"""End-to-end CLI behavior through main(), plus entry-point checks and
the package's exported names.

The `maxentgames` console script declared in pyproject.toml is run by name
from any checkout, through a launcher written the way an installer writes
one; a really installed script is checked only where it is on PATH.
"""

import ast
import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import types
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import maxentgames
from maxentgames import (
    get_treatment,
    logit_policy,
    read_session_csv,
    run_ensemble,
    run_session,
    write_session_csv,
)
from maxentgames import errors
from maxentgames.cli import main

try:
    from maxentgames import _fastcore
except ImportError:
    _fastcore = None

needs_fastcore = pytest.mark.skipif(_fastcore is None,
                                    reason="compiled kernel not built")


def run_cli(*argv):
    return main(list(argv))


def simulate_into(tmp_path, *extra):
    out = tmp_path / "sessions"
    rc = run_cli("simulate", "--treatment", "1", "--groups", "3",
                 "--rounds", "120", "--seed", "9", "--out", str(out), *extra)
    assert rc == 0
    return out


class TestSimulate:
    def test_writes_sessions_and_manifest(self, tmp_path, capsys):
        out = simulate_into(tmp_path)
        files = sorted(p.name for p in out.iterdir())
        assert files == ["group_01.csv", "group_02.csv", "group_03.csv",
                         "manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["treatment"] == 1
        assert manifest["groups"] == 3
        assert manifest["rounds"] == 120
        assert manifest["base_seed"] == 9
        assert len(manifest["sessions"]) == 3
        assert "wrote 3 sessions" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        a = simulate_into(tmp_path / "a")
        b = simulate_into(tmp_path / "b")
        for name in ("group_01.csv", "group_02.csv", "group_03.csv",
                     "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_sessions_match_library_api(self, tmp_path):
        out = simulate_into(tmp_path)
        records = run_ensemble(get_treatment(1), groups=3, rounds=120,
                               base_seed=9)
        for g, record in enumerate(records, start=1):
            assert read_session_csv(out / f"group_{g:02d}.csv") == record

    def test_unknown_treatment_exits_two(self, tmp_path, capsys):
        rc = run_cli("simulate", "--treatment", "13",
                     "--out", str(tmp_path / "x"))
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_logit_requires_intensity(self, tmp_path, capsys):
        rc = run_cli("simulate", "--treatment", "1", "--policy", "logit",
                     "--out", str(tmp_path / "x"))
        assert rc == 2
        assert "--intensity" in capsys.readouterr().err

    def test_iid_policy_flags(self, tmp_path):
        out = tmp_path / "s"
        rc = run_cli("simulate", "--treatment", "1", "--policy", "iid",
                     "--p", "1.0", "--q", "0.0", "--groups", "1",
                     "--rounds", "5", "--out", str(out))
        assert rc == 0
        record = read_session_csv(out / "group_01.csv")
        assert record.rounds == ((4, 0),) * 5

    def test_custom_treatment_config(self, tmp_path):
        config = tmp_path / "custom.txt"
        config.write_text("41 10 8 0 18 9 9 10 8 2 30\n", encoding="utf-8")
        out = tmp_path / "s"
        rc = run_cli("simulate", "--treatment", "41",
                     "--treatments", str(config), "--out", str(out))
        assert rc == 0
        record = read_session_csv(out / "group_01.csv")
        assert record.treatment_id == 41
        assert len(record.rounds) == 30

    def test_treatment_missing_from_config(self, tmp_path, capsys):
        config = tmp_path / "custom.txt"
        config.write_text("41 10 8 0 18 9 9 10 8 2 30\n", encoding="utf-8")
        rc = run_cli("simulate", "--treatment", "1",
                     "--treatments", str(config), "--out", str(tmp_path / "x"))
        assert rc == 2
        assert "not in" in capsys.readouterr().err

    def test_non_finite_payoff_names_its_line(self, tmp_path, capsys):
        config = tmp_path / "custom.txt"
        config.write_text("1 10 8 0 18 9 9 10 8 2 30\n"
                          "2 inf 8 0 18 9 9 10 8 12 200\n", encoding="utf-8")
        rc = run_cli("simulate", "--treatment", "1",
                     "--treatments", str(config), "--out", str(tmp_path / "x"))
        assert rc == 2
        assert f"{config}: line 2" in capsys.readouterr().err


class TestAnalyze:
    def test_single_session_line(self, tmp_path, capsys):
        out = simulate_into(tmp_path)
        rc = run_cli("analyze", str(out / "group_01.csv"))
        assert rc == 0
        text = capsys.readouterr().out
        assert "group_01.csv: treatment=1 T=120" in text
        assert "S_e=" in text and "chi2=" in text and "Z=" in text
        assert "ensemble:" not in text

    def test_multi_session_ensemble_block(self, tmp_path, capsys):
        out = simulate_into(tmp_path)
        rc = run_cli("analyze", *(str(out / f"group_{g:02d}.csv")
                                  for g in (1, 2, 3)))
        assert rc == 0
        text = capsys.readouterr().out
        assert "ensemble: sessions=3" in text
        assert "D_te mean=" in text and "Z    mean=" in text

    def test_json_report(self, tmp_path):
        out = simulate_into(tmp_path)
        report_path = tmp_path / "new" / "report.json"  # made on write
        rc = run_cli("analyze", str(out / "group_01.csv"),
                     str(out / "group_02.csv"), "--json", str(report_path))
        assert rc == 0
        obj = json.loads(report_path.read_text())
        assert len(obj["sessions"]) == 2
        assert obj["sessions"][0]["group_id"] == 1
        assert obj["sessions"][0]["treatment_id"] == 1
        assert obj["ensemble"]["sessions"] == 2

    def test_json_report_infinite_t(self, tmp_path):
        # two identical sessions have zero spread, so each ensemble t is
        # +inf, written as the literal Infinity that Python's json reads
        out = simulate_into(tmp_path)
        shutil.copy(out / "group_01.csv", tmp_path / "copy.csv")
        report_path = tmp_path / "report.json"
        rc = run_cli("analyze", str(out / "group_01.csv"),
                     str(tmp_path / "copy.csv"), "--json", str(report_path))
        assert rc == 0
        text = report_path.read_text()
        assert '"t":Infinity' in text
        ensemble = json.loads(text)["ensemble"]
        assert ensemble["d_te_test"]["t"] == math.inf
        assert ensemble["z_test"]["t"] == math.inf

    def test_json_single_session_has_null_ensemble(self, tmp_path):
        out = simulate_into(tmp_path)
        report_path = tmp_path / "report.json"
        rc = run_cli("analyze", str(out / "group_01.csv"),
                     "--json", str(report_path))
        assert rc == 0
        assert json.loads(report_path.read_text())["ensemble"] is None

    def test_svg_outputs(self, tmp_path):
        out = simulate_into(tmp_path)
        svg_dir = tmp_path / "figures"
        rc = run_cli("analyze", str(out / "group_01.csv"),
                     str(out / "group_02.csv"), "--svg", str(svg_dir))
        assert rc == 0
        files = sorted(p.name for p in svg_dir.iterdir())
        assert files == ["group_01.svg", "group_02.svg"]
        ET.fromstring((svg_dir / "group_01.svg").read_text())

    def test_input_digest_is_of_the_canonical_csv(self, tmp_path):
        # the digest hashes the record's re-serialization, not the bytes
        # read, so a CRLF copy reports the LF original's digest
        out = simulate_into(tmp_path)
        lf = out / "group_01.csv"
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        digests = []
        for path in (lf, crlf):
            report_path = tmp_path / f"{path.stem}.json"
            assert run_cli("analyze", str(path),
                           "--json", str(report_path)) == 0
            obj = json.loads(report_path.read_text())
            digests.append(obj["sessions"][0]["input_digest"])
        assert digests[0] == digests[1]
        assert digests[0] == hashlib.sha256(lf.read_bytes()).hexdigest()
        assert digests[1] != hashlib.sha256(crlf.read_bytes()).hexdigest()

    def test_strict_flags_bad_fit(self, tmp_path):
        # high-rationality logit play locks into corners; the chi-square
        # criterion catches it and --strict turns that into exit 1
        record = run_session(get_treatment(1), policy=logit_policy(8.0),
                             rounds=200, seed=4)
        path = tmp_path / "locked.csv"
        write_session_csv(record, path)
        assert run_cli("analyze", str(path)) == 0
        assert run_cli("analyze", str(path), "--strict") == 1

    def test_strict_passes_good_fit(self, tmp_path):
        out = simulate_into(tmp_path)
        rc = run_cli("analyze", str(out / "group_01.csv"), "--strict")
        assert rc == 0

    def test_missing_file_exits_two(self, tmp_path, capsys):
        rc = run_cli("analyze", str(tmp_path / "absent.csv"))
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("round,x1_count,y1_count\n1,0,0\n", encoding="utf-8")
        rc = run_cli("analyze", str(path))
        assert rc == 2

    def test_bad_row_names_its_file(self, tmp_path, capsys):
        out = simulate_into(tmp_path)
        paths = [tmp_path / f"{name}.csv" for name in "abc"]
        for path, group in zip(paths, sorted(out.glob("group_*.csv"))):
            path.write_bytes(group.read_bytes())
        lines = paths[1].read_text(encoding="utf-8").splitlines(True)
        assert lines[7].startswith("3,")  # line 8 holds round 3
        lines[7] = "3,5,0\n"
        paths[1].write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("analyze", *map(str, paths)) == 2
        err = capsys.readouterr().err
        assert f"error: {paths[1]}: line 8: counts (5, 0) beyond n=4" in err

    def test_population_beyond_limit_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("# n=517\nround,x1_count,y1_count\n1,0,0\n",
                        encoding="utf-8")
        assert run_cli("analyze", str(path)) == 2
        assert "line 1: population size" in capsys.readouterr().err

    def test_no_sessions_is_usage_error(self):
        assert run_cli("analyze") == 2

    def test_rounds_per_group_override(self, tmp_path, capsys):
        out = simulate_into(tmp_path)
        rc = run_cli("analyze", str(out / "group_01.csv"),
                     "--rounds-per-group", "200")
        assert rc == 0
        assert "bound=0.0848" in capsys.readouterr().out


class TestPredict:
    def test_balanced_mean_table(self, capsys):
        rc = run_cli("predict", "0.5", "0.5")
        assert rc == 0
        text = capsys.readouterr().out
        assert "S_t=1.0" in text
        assert "0.140625" in text

    def test_corner_mean(self, capsys):
        rc = run_cli("predict", "0", "0")
        assert rc == 0
        text = capsys.readouterr().out
        assert "S_t=0.0" in text

    def test_out_json(self, tmp_path):
        path = tmp_path / "new" / "prediction.json"  # made on write
        rc = run_cli("predict", "0.5", "0.5", "--out", str(path))
        assert rc == 0
        obj = json.loads(path.read_text())
        assert obj["n"] == 4
        assert obj["densities"]["2,2"] == 0.140625
        assert obj["s_t"] == 1.0

    def test_out_of_range_mean(self, capsys):
        assert run_cli("predict", "1.5", "0.5") == 2
        assert "error:" in capsys.readouterr().err
        assert run_cli("predict", "nan", "0.5") == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("population", ["0", "-1"])
    def test_nonpositive_population(self, population, capsys):
        assert run_cli("predict", "0.5", "0.5",
                       "--population", population) == 2
        err = capsys.readouterr().err
        assert "error: population size must be positive" in err

    def test_population_limit(self, capsys):
        # 516 is the largest n whose degeneracies are all finite doubles
        assert run_cli("predict", "0.5", "0.5", "--population", "516") == 0
        capsys.readouterr()
        assert run_cli("predict", "0.5", "0.5", "--population", "517") == 2
        assert "error: population size" in capsys.readouterr().err


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run_cli() == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "simulate" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert run_cli("frobnicate") == 2
        capsys.readouterr()


ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

# each argument error, the arguments after the subcommand and its whole
# message; "{csv}" stands for a session CSV to analyze
ARGUMENT_ERRORS = [
    pytest.param(["simulate", "--policy", "iid", "--p", "1.5"],
                 "p must be in [0, 1], got 1.5", id="p"),
    pytest.param(["simulate", "--groups", "0"],
                 "groups must be >= 1, got 0", id="groups"),
    pytest.param(["simulate", "--policy", "logit", "--intensity", "-1"],
                 "intensity must be finite and >= 0, got -1.0",
                 id="intensity"),
    pytest.param(["simulate", "--rounds", "0"],
                 "rounds must be >= 1", id="rounds"),
    pytest.param(["analyze", "{csv}", "--ect-significance", "1.5"],
                 "confidence must be in (0, 1), got 1.5", id="ect"),
    pytest.param(["analyze", "{csv}", "--chi-significance", "0"],
                 "significance must be in (0, 1), got 0.0", id="chi"),
]


def _limit_memory():
    """Cap a child's address space at 1 GiB, so a kernel that ran a huge
    session instead of refusing it fails fast rather than filling memory."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestErrors:
    def test_every_package_error_is_a_value_error(self):
        assert issubclass(maxentgames.MaxentGamesError, ValueError)
        defined = {name: value for name, value in vars(errors).items()
                   if isinstance(value, type)
                   and issubclass(value, BaseException)}
        assert set(defined) == {
            "MaxentGamesError", "DegenerateGame", "NoInteriorEquilibrium",
            "DegenerateTheory", "ParseError", "SchemaError", "RangeError",
            "DuplicateId"}
        for cls in defined.values():
            assert issubclass(cls, maxentgames.MaxentGamesError), cls

    @pytest.mark.parametrize("argv,message", ARGUMENT_ERRORS)
    def test_argument_error_exits_two(self, tmp_path, capsys, argv, message):
        command, *rest = argv
        if command == "simulate":
            rest = ["--treatment", "1", "--out", str(tmp_path / "x"), *rest]
        else:
            csv = simulate_into(tmp_path) / "group_01.csv"
            capsys.readouterr()
            rest = [str(csv) if a == "{csv}" else a for a in rest]
        assert run_cli(command, *rest) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("backend", [
        "python", pytest.param("c", marks=needs_fastcore)])
    @pytest.mark.parametrize("flag,message", [
        ("--rounds", "rounds must be at most 2147483647"),
        ("--population", "compiled kernel supports populations up to 64")])
    def test_count_beyond_kernel_limit_exits_two(self, tmp_path, backend,
                                                 flag, message):
        env = dict(os.environ, MAXENTGAMES_BACKEND=backend)
        proc = subprocess.run(
            [sys.executable, "-m", "maxentgames", "simulate", "--treatment",
             "1", "--groups", "1", flag, "3000000000",
             "--out", str(tmp_path / "x")],
            capture_output=True, text=True, env=env, timeout=120,
            preexec_fn=_limit_memory)
        assert (proc.returncode, proc.stderr) == (2, f"error: {message}\n")


def copy_source_tree(dest: Path) -> None:
    """What a build reads: setup.py, pyproject.toml, README.md and src/,
    without built or cached files."""
    for name in ("setup.py", "pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, dest / name)
    shutil.copytree(ROOT / "src", dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so",
                                                  "*.egg-info"))


class TestPackaging:
    @pytest.mark.skipif(shutil.which("false") is None,
                        reason="no `false` command to stand in for a compiler")
    def test_failed_kernel_build_still_succeeds(self, tmp_path):
        pytest.importorskip("setuptools")
        copy_source_tree(tmp_path)
        env = dict(os.environ, CC="false")
        proc = subprocess.run(
            [sys.executable, "setup.py", "build_ext",
             "--build-lib", str(tmp_path / "lib"),
             "--build-temp", str(tmp_path / "temp")],
            cwd=tmp_path, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert ('building extension "maxentgames._fastcore" failed'
                in proc.stdout + proc.stderr)
        assert not list(tmp_path.rglob("_fastcore*.so"))

    def test_version_has_one_source(self, tmp_path):
        pytest.importorskip("setuptools")
        copy_source_tree(tmp_path)
        proc = subprocess.run([sys.executable, "setup.py", "--version"],
                              cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == maxentgames.__version__



class TestInstalledEntryPoints:
    """The declared console script runs by name from any checkout; the
    installed one is checked only where an install put it on PATH."""

    def test_console_script(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            spec = tomllib.load(fh)["project"]["scripts"]["maxentgames"]
        module, func = spec.split(":")
        # the wrapper an installer writes for a console script
        launcher = tmp_path / "maxentgames"
        launcher.write_text(f"#!{sys.executable}\n"
                            "import sys\n"
                            f"from {module} import {func}\n"
                            f"sys.exit({func}())\n", encoding="utf-8")
        launcher.chmod(0o755)
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
        proc = subprocess.run(["maxentgames", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "maximum-entropy" in proc.stdout

    @pytest.mark.skipif(shutil.which("maxentgames") is None,
                        reason="maxentgames console script not on PATH")
    def test_installed_console_script(self):
        proc = subprocess.run(["maxentgames", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "maximum-entropy" in proc.stdout

    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "maxentgames", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0

    def test_module_usage_error(self):
        proc = subprocess.run([sys.executable, "-m", "maxentgames"],
                              capture_output=True, text=True)
        assert proc.returncode == 2


class TestPublicNames:
    def test_all_lists_every_public_global(self):
        # `from maxentgames import *` gives exactly what the package exports
        public = {name for name, value in vars(maxentgames).items()
                  if not name.startswith("_")
                  and not isinstance(value, types.ModuleType)}
        assert public == set(maxentgames.__all__)


class TestStdlibOnly:
    def test_runtime_imports_only_the_standard_library(self):
        # the package declares no dependencies; every absolute import in
        # its modules must come from the standard library or the package
        package = Path(maxentgames.__file__).parent
        modules = sorted(package.glob("*.py"))
        assert modules
        for path in modules:
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    root = name.split(".")[0]
                    assert (root in sys.stdlib_module_names
                            or root == "maxentgames"), (path.name, name)


class TestReproduce:
    def test_tree_shape_and_summary(self, tmp_path, capsys):
        out = tmp_path / "repro"
        rc = run_cli("reproduce", "--seed", "42", "--out", str(out))
        assert rc == 0
        text = capsys.readouterr().out
        assert "delta_s criterion" in text
        assert "M=2400: 0.0071" in text
        assert "M=1200: 0.0141" in text
        assert "M=200: 0.0848" in text
        assert "total" in text

        from maxentgames import treatment_catalog
        catalog = treatment_catalog()
        total_groups = sum(t.groups for t in catalog)
        session_dirs = sorted(p.name for p in (out / "sessions").iterdir())
        assert session_dirs == [f"treatment_{t.id:02d}" for t in catalog]
        for treatment in catalog:
            t_dir = out / "sessions" / f"treatment_{treatment.id:02d}"
            groups = sorted(p.name for p in t_dir.iterdir())
            assert groups == [f"group_{g:02d}.csv"
                              for g in range(1, treatment.groups + 1)]

        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 42
        assert len(summary["treatments"]) == 12
        assert summary["total"]["sessions"] == total_groups

        lines = (out / "groups.csv").read_text().splitlines()
        assert lines[0].startswith("treatment,group,seed")
        assert len(lines) == 1 + total_groups

    def test_rerun_into_one_tree_keeps_only_its_own_drawings(
            self, tmp_path, capsys):
        # seed 42 flags sessions that seed 7 does not; rerunning seed 7 into
        # the seed-42 tree must leave the drawings of a fresh seed-7 run,
        # and leave alone any file reproduce does not write
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert run_cli("reproduce", "--seed", "42", "--out", str(reused)) == 0
        (reused / "svg" / "notes.txt").write_text("kept\n")
        assert run_cli("reproduce", "--seed", "7", "--out", str(reused)) == 0
        assert run_cli("reproduce", "--seed", "7", "--out", str(fresh)) == 0
        capsys.readouterr()
        assert (reused / "svg" / "notes.txt").read_text() == "kept\n"
        (reused / "svg" / "notes.txt").unlink()

        def drawings(out):
            return {p.name: p.read_bytes() for p in (out / "svg").iterdir()}

        assert drawings(reused) == drawings(fresh)

    def test_requires_seed(self, capsys):
        assert run_cli("reproduce", "--out", "/tmp/ignored") == 2
        capsys.readouterr()
