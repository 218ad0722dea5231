"""Golden output bytes of the paper-facing commands.

Pins the sha256 of what `reproduce --seed 42`, `analyze` over that tree
(with --json and --svg) and `predict --solver dual` write, so a refactor
cannot silently move a number, a per-cell residual or an SVG pixel.  The
digests are the same on the pure-Python and the compiled kernel.

A tree digest is the sha256 of "".join(f"{relpath} {sha256}\\n") over the
files of a directory, sorted by relative POSIX path.
"""

import hashlib
import os
from pathlib import Path

import pytest

from maxentgames.cli import main

REPRODUCE_SUMMARY = ("0a342041fcd46fadd630e9f4fe3d7ec4"
                     "5464cef757872ea8171e892554f171d8")
REPRODUCE_GROUPS = ("ac3c5046dc0081f7a66566472f3e810b"
                    "278b99c2d0177a6ac9ab3a579ab22b45")
REPRODUCE_TREE = ("0fefeb5979546c3ecb6992aad5ba8d91"
                  "50af6bfade0fc1911c88a35c6511f5fe")
ANALYZE_REPORT = ("8010b54de98c1270d2c9a973aa78e411"
                  "07f72521d8c1aea12a1bb25426fd6d67")
ANALYZE_SVG_TREE = ("f3b42c6659b4891155fbba3f89e537c3"
                    "fdb44f8d1e71e70974abed85fb7f5ad2")
PREDICT_JSON = ("caf29ecff91c62a16e0f4577114a6a19"
                "bd7e6587b11d90558fb8ce5c251bf82f")
PREDICT_STDOUT = ("97f18c6144049be85c2158b8b76720f4"
                  "52b6060f9d1d17eea673b56b3edcfca2")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_files(directory: Path) -> list[str]:
    return sorted(p.relative_to(directory).as_posix()
                  for p in directory.rglob("*") if p.is_file())


def tree_digest(directory: Path) -> str:
    lines = "".join(f"{rel} {sha256((directory / rel).read_bytes())}\n"
                    for rel in tree_files(directory))
    return sha256(lines.encode("utf-8"))


@pytest.fixture(scope="module")
def reproduced(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "repro"
    assert main(["reproduce", "--seed", "42", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def analyzed(reproduced):
    # relative paths, so the report's `source` fields do not depend on
    # where the tree lives
    inputs = [rel for rel in tree_files(reproduced)
              if rel.startswith("sessions/")]
    out = reproduced.parent / "analysis"
    out.mkdir()
    cwd = os.getcwd()
    os.chdir(reproduced)
    try:
        rc = main(["analyze", *inputs, "--json", str(out / "report.json"),
                   "--svg", str(out / "svg")])
    finally:
        os.chdir(cwd)
    assert rc == 0
    return out


class TestReproduce:
    def test_summary_json(self, reproduced):
        assert sha256((reproduced / "summary.json").read_bytes()) \
            == REPRODUCE_SUMMARY

    def test_groups_csv(self, reproduced):
        assert sha256((reproduced / "groups.csv").read_bytes()) \
            == REPRODUCE_GROUPS

    def test_whole_tree(self, reproduced):
        assert len(tree_files(reproduced)) == 116
        assert tree_digest(reproduced) == REPRODUCE_TREE


class TestAnalyze:
    def test_report_json(self, analyzed):
        assert sha256((analyzed / "report.json").read_bytes()) \
            == ANALYZE_REPORT

    def test_svg_tree(self, analyzed):
        assert len(tree_files(analyzed / "svg")) == 12
        assert tree_digest(analyzed / "svg") == ANALYZE_SVG_TREE


class TestPredict:
    def test_dual_prediction(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(["predict", "0.3", "0.8", "--solver", "dual",
                     "--out", "p.json"]) == 0
        stdout = capsys.readouterr().out
        assert sha256((tmp_path / "p.json").read_bytes()) == PREDICT_JSON
        assert sha256(stdout.encode("utf-8")) == PREDICT_STDOUT
