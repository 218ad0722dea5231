"""Golden output bytes of the paper-facing commands.

Pins the sha256 of what `reproduce --seed 42`, `analyze` over that tree
(with --json and --svg), `predict 0.3 0.8`, a history-dependent
logit `simulate` under each matching scheme, and the benchmark's long
logit `simulate` write, so a refactor cannot
silently move a number, a per-cell residual or an SVG pixel.  The digests
are the same on the pure-Python and the compiled kernel.

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
PREDICT_JSON = ("3b9bbdc4ee612d95376d611c1fcca584"
                "a5ff8b9b43ff2c1a3bd8077e5975e231")
PREDICT_STDOUT = ("62cfecddfefc2ad943c22503f8987a6e"
                  "c69356cdaba5240626443bcade5c79f5")
# simulate --treatment 1 --policy logit --intensity 0.5 --population 8
#          --rounds 300 --groups 3 --seed 42 --matching <scheme>
SIMULATE_LOGIT = {
    "uniform": {
        "manifest.json": ("4e5b2aa90e36e2328bbf905d3d8f0933"
                          "1d3e556d7da303673a9c56c1bb0d375e"),
        "group_01.csv": ("a0ac33399815b5278f1a23980aa10b82"
                         "6216ecdbbda5e4c4fb753a0c0f1536a7"),
        "group_02.csv": ("239bab44110dd1a271db0cdbe6322cbe"
                         "6f8139dbecb967e7e07b2a001bf09c77"),
        "group_03.csv": ("f595f08ecfcf4a60789b8a87d1ead9fc"
                         "7d3223e00f2e099ca9891f26b89436a8"),
    },
    "round_robin": {
        "manifest.json": ("a6517b9659609331292b903f121e3e67"
                          "61c9d6e2ec89b13886545feaaea7bcd4"),
        "group_01.csv": ("9832186ef4f2ddebd9c401ecadc6fce9"
                         "dc69bba542aae8536c69debbe3eb9ff9"),
        "group_02.csv": ("e4269cf4f49e428350fed216eb76a5cd"
                         "0145992144c2244351f6290661419363"),
        "group_03.csv": ("b841c50290fc0024921c6709b7b7eab2"
                         "897c7bf895f6425e53cb7d6b49c61681"),
    },
}

# the benchmark's simulate_long workload: simulate --treatment 1 --policy
# logit --intensity 0.5 --population 8 --rounds 2400 --groups 12 --seed 42;
# the same digest as pipebench/run.py's, pinned here so the pure kernel's
# bytes are checked when the benchmark runs the compiled one
SIMULATE_LONG_MANIFEST = ("404ff2c228ea4092a517f7fa2a19651f"
                          "ce3c84ad42b1ddaa3570ea4e92167ac8")


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
    def test_prediction(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(["predict", "0.3", "0.8", "--out", "p.json"]) == 0
        stdout = capsys.readouterr().out
        assert sha256((tmp_path / "p.json").read_bytes()) == PREDICT_JSON
        assert sha256(stdout.encode("utf-8")) == PREDICT_STDOUT


class TestSimulate:
    @pytest.mark.parametrize("matching", sorted(SIMULATE_LOGIT))
    def test_logit_sessions(self, tmp_path, matching):
        out = tmp_path / matching
        assert main(["simulate", "--treatment", "1", "--policy", "logit",
                     "--intensity", "0.5", "--population", "8",
                     "--rounds", "300", "--groups", "3", "--seed", "42",
                     "--matching", matching, "--out", str(out)]) == 0
        assert {rel: sha256((out / rel).read_bytes())
                for rel in tree_files(out)} == SIMULATE_LOGIT[matching]

    def test_benchmark_long_logit_manifest(self, tmp_path):
        assert main(["simulate", "--treatment", "1", "--policy", "logit",
                     "--intensity", "0.5", "--population", "8",
                     "--rounds", "2400", "--groups", "12", "--seed", "42",
                     "--out", str(tmp_path)]) == 0
        assert sha256((tmp_path / "manifest.json").read_bytes()) \
            == SIMULATE_LONG_MANIFEST
