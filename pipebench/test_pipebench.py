"""Tests of the pipeline benchmark itself.

Run from the repository root: python3 -m pytest pipebench
Each test runs real (short) benchmark passes, so the file takes about a
minute on the pure-Python kernel.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run

BENCHMARK_JSON = Path(run.ROOT, "BENCHMARK.json")


def _main(capsys, *argv: str) -> tuple[int, dict]:
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


@pytest.fixture
def quick(monkeypatch):
    # two passes of each kind: enough to check that passes agree
    monkeypatch.setattr(run, "MIN_PASSES", 2)


def test_wrong_pinned_digest_fails_every_pass(quick, monkeypatch, capsys):
    monkeypatch.setitem(run.GOLDEN[42]["reproduce"], "summary.json", "0" * 64)
    code, result = _main(capsys, "--workload", "reproduce", "--seed", "42",
                         "--seconds", "0", "--trace", "0")
    assert code != 0
    assert result["correct"] is False
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"]  # fail_ratio = 1


def test_wrong_pinned_digest_fails_a_run_at_another_seed(monkeypatch, capsys):
    monkeypatch.setitem(run.GOLDEN[42]["reproduce"], "groups.csv", "0" * 64)
    code, result = _main(capsys, "--workload", "reproduce", "--seed", "7",
                         "--seconds", "0", "--trace", "0")
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1  # nothing timed


def test_untraced_run_prints_the_end_to_end_metrics(quick, capsys):
    code, result = _main(capsys, "--workload", "simulate_long", "--seed", "42",
                         "--seconds", "0", "--trace", "0")
    assert code == 0 and result["correct"] is True
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_analyze_counts_are_exact(quick, capsys):
    code, result = _main(capsys, "--workload", "analyze", "--seed", "42",
                         "--seconds", "0", "--trace", "1")
    assert code == 0 and result["correct"] is True
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    values = {name: metric["value"]
              for name, metric in result["metrics"].items()}
    assert values["kernels.simulate_session.calls"] == 0
    assert values["sessionio.read_session_csv.calls_per_session"] == 2.0
    # 108 via maxent.ect_bound plus 108 via stats.chi_square_gof: both
    # modules bind the name with `from .special import`
    assert values["special.chi_square_quantile.calls"] == 216
    assert values["sessionio.analyze_session.calls"] == 108


def test_traced_simulate_long_never_reaches_the_analysis(quick):
    outcome = run.run_workload("simulate_long", 42, 0, True)
    traced = [p for p in outcome["passes"] if p["traced"]]
    assert len(traced) >= 2
    assert not any(p["problems"] for p in outcome["passes"])
    metrics = run.summarize("simulate_long", outcome, True)
    assert metrics["special.chi_square_quantile.calls"][0] == 0
    assert metrics["special.student_t_quantile.calls"][0] == 0
    assert metrics["kernels.simulate_session.calls"][0] == 12
    assert metrics["sessionio.write_session_csv.calls"][0] == 12


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == run.PER_LAYER
