"""Acceptance gate: the externally checkable claims, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in the
captured output of a failure) and then asserts.  Tolerances are stated next
to the values they guard.
"""

import filecmp
import math
import random
import time
from pathlib import Path

from maxentgames import (
    MeanObservation,
    PayoffMatrix,
    Treatment,
    analyze_session,
    binomial_prediction,
    chi_square_gof,
    chi_square_quantile,
    degeneracies,
    ect_bound,
    entropy_report,
    fit_prediction,
    get_treatment,
    logit_policy,
    mixed_nash,
    mixed_policy,
    nash_policy,
    read_session_csv,
    run_ensemble,
    run_session,
    summarize_ensemble,
    treatment_catalog,
)
from maxentgames.cli import main
from maxentgames.kernels import splitmix64_sequence
from maxentgames.sessionio import canonical_json, to_obj

from oracles import (_payoff_gap_x, _payoff_gap_y, dual_maxent_solve,
                     fit_and_digest)


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num:>2}: {status} - {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


def test_criterion_01_concentration_bound_values():
    targets = {2400: 0.0070667, 1200: 0.0141333, 200: 0.0848}
    gaps = {m: abs(ect_bound(m) - t) for m, t in targets.items()}
    ok = all(gap <= 0.0005 for gap in gaps.values())
    _verdict(1, "delta_S bound at M=2400/1200/200 within 5e-4 of "
                "0.0070667/0.0141333/0.0848", ok,
             "got " + ", ".join(f"{ect_bound(m):.7f}" for m in targets))


def test_criterion_02_chi_square_criterion_value():
    value = chi_square_quantile(22, 0.95)
    ok = abs(value - 33.92) <= 0.01
    _verdict(2, "95th-percentile chi-square at 22 freedoms = 33.92 +- 0.01",
             ok, f"got {value:.6f}")


def test_criterion_03_entropy_bound_structural():
    # the degeneracy-weighted entropy of any observation never exceeds the
    # entropy of the prediction fitted from its own mean
    rng = random.Random(12345)
    catalog = treatment_catalog()
    worst = -math.inf
    sessions = 1000
    for k in range(sessions):
        treatment = catalog[rng.randrange(len(catalog))]
        policy = mixed_policy(rng.random(), rng.random())
        rounds = rng.randint(50, 2400)
        dist = run_session(treatment, policy, rounds=rounds,
                           seed=k).distribution()
        report = entropy_report(dist, fit_prediction(dist))
        worst = max(worst, report.s_e - report.s_t)
    ok = worst <= 1e-12
    _verdict(3, f"S_e <= S_t on {sessions} random sessions", ok,
             f"max S_e - S_t = {worst:.3e}")


def test_criterion_04_dual_solver_matches_closed_form():
    rng = random.Random(4)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        mean = MeanObservation(0.01 + 0.98 * rng.random(),
                               0.01 + 0.98 * rng.random())
        closed = binomial_prediction(mean, 4).densities
        solved = dual_maxent_solve(mean, 4)
        worst = max(worst, max(abs(s - c) for s, c in zip(solved, closed)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and elapsed < 1.0
    _verdict(4, "dual solver matches closed form to sup-norm 1e-8 on 100 "
                "interior means in under 1 s", ok,
             f"gap {worst:.2e}, {elapsed * 1000:.0f} ms")


def test_criterion_05_equilibrium_play_meets_concentration_bound():
    # equilibrium i.i.d. play at M=2400: the entropy gap should fall inside
    # the 95% concentration band in at least 85% of sessions
    catalog = treatment_catalog()
    seeds = splitmix64_sequence(5, 100)
    bound = ect_bound(2400)
    hits = 0
    for k, seed in enumerate(seeds):
        treatment = catalog[k % len(catalog)]
        policy = nash_policy(treatment.payoffs)
        dist = run_session(treatment, policy, rounds=2400,
                           seed=seed).distribution()
        report = entropy_report(dist, fit_prediction(dist))
        if report.s_t - report.s_e <= bound:
            hits += 1
    fraction = hits / len(seeds)
    ok = fraction >= 0.85
    _verdict(5, "fraction of Nash sessions within delta_S(0.95) at M=2400 "
                ">= 0.85", ok, f"got {fraction:.2f}")


def test_criterion_06_chi_square_calibration():
    # sampling straight from the predicted law must trip the 5% criterion
    # rarely, but not never: exceedance within [0.01, 0.15]
    prediction = binomial_prediction(MeanObservation(0.5, 0.5), 4)
    treatment = get_treatment(1)
    policy = mixed_policy(0.5, 0.5)
    seeds = splitmix64_sequence(6, 200)
    exceed = 0
    for seed in seeds:
        dist = run_session(treatment, policy, rounds=2400,
                           seed=seed).distribution()
        if chi_square_gof(dist, prediction).exceeds:
            exceed += 1
    rate = exceed / len(seeds)
    ok = 0.01 <= rate <= 0.15
    _verdict(6, "chi-square exceedance under the null in [0.01, 0.15] "
                "across 200 sessions", ok, f"got {rate:.3f}")


def test_criterion_07_ensemble_deviation_scale():
    # full catalog layout at 200 rounds per group: pooled mean D_te is
    # positive (finite-sample concentration) but small
    catalog = treatment_catalog()
    reports = []
    for treatment, t_seed in zip(catalog,
                                 splitmix64_sequence(42, len(catalog))):
        for record in run_ensemble(treatment, base_seed=t_seed):
            reports.append(analyze_session(record, *fit_and_digest(record)))
    total = summarize_ensemble(reports)
    ok = 0.0 < total.d_te.mean < 0.02 and total.sessions == 108
    _verdict(7, "pooled mean D_te over the 108-group layout in (0, 0.02)",
             ok, f"got {total.d_te.mean:+.4f} over {total.sessions} groups")


def test_criterion_08_detectors_catch_concentrated_play():
    # pure coordination payoffs with high rationality: every group cascades
    # onto one consensus corner and stays, far tighter than any binomial.
    # Both detectors must fire: chi-square on most groups, and the ensemble
    # Z t-test at the 1% level.
    payoffs = PayoffMatrix(a11=1, a12=0, a21=0, a22=1,
                           b11=1, b12=0, b21=0, b22=1)
    treatment = Treatment(id=90, payoffs=payoffs, groups=50,
                          rounds_per_group=200)
    records = run_ensemble(treatment, policy=logit_policy(10.0), base_seed=7)
    reports = [analyze_session(r, *fit_and_digest(r)) for r in records]
    summary = summarize_ensemble(reports)
    exceed_ok = summary.chi_exceed_count >= 25
    z_ok = summary.z_test.p_value < 0.01
    _verdict(8, "engineered concentration trips chi-square on >= half the "
                "groups and the Z t-test at p < 0.01",
             exceed_ok and z_ok,
             f"exceed {summary.chi_exceed_count}/50, "
             f"Z p = {summary.z_test.p_value:.2e}")


def test_criterion_09_equilibrium_solver_residuals():
    worst = 0.0
    for treatment in treatment_catalog():
        payoffs = treatment.payoffs
        eq = mixed_nash(payoffs)
        worst = max(worst, abs(_payoff_gap_x(payoffs, eq.q_star)),
                    abs(_payoff_gap_y(payoffs, eq.p_star)))
    eq1 = mixed_nash(get_treatment(1).payoffs)
    game1_gap = max(abs(eq1.p_star - 1 / 11), abs(eq1.q_star - 10 / 11))
    ok = worst <= 1e-12 and game1_gap <= 1e-12
    _verdict(9, "indifference residuals <= 1e-12 on all 12 treatments and "
                "game 1 equilibrium = (1/11, 10/11)", ok,
             f"residual {worst:.2e}, game-1 gap {game1_gap:.2e}")


def _trees_identical(a: Path, b: Path) -> bool:
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.diff_files or cmp.funny_files:
        return False
    for name in cmp.common_files:
        if (a / name).read_bytes() != (b / name).read_bytes():
            return False
    return all(_trees_identical(a / sub, b / sub)
               for sub in cmp.common_dirs)


def test_criterion_10_end_to_end_determinism(tmp_path, capsys):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["reproduce", "--seed", "11", "--out", str(first)]) == 0
    assert main(["reproduce", "--seed", "11", "--out", str(second)]) == 0
    trees_ok = _trees_identical(first, second)

    # file pipeline vs in-process: identical bytes, not just equal values
    sessions = tmp_path / "sim"
    report_path = tmp_path / "report.json"
    assert main(["simulate", "--treatment", "2", "--groups", "4",
                 "--rounds", "150", "--seed", "3",
                 "--out", str(sessions)]) == 0
    paths = [sessions / f"group_{g:02d}.csv" for g in range(1, 5)]
    assert main(["analyze", *map(str, paths),
                 "--json", str(report_path)]) == 0
    records = [read_session_csv(p) for p in paths]
    reports = [analyze_session(r, *fit_and_digest(r), source=str(p),
                               group_id=g)
               for g, (p, r) in enumerate(zip(paths, records), start=1)]
    expected = canonical_json(
        {"sessions": [to_obj(r) for r in reports],
         "ensemble": to_obj(summarize_ensemble(reports))}) + "\n"
    files_ok = report_path.read_text(encoding="utf-8") == expected

    capsys.readouterr()
    _verdict(10, "reproduce trees byte-identical across runs; CLI analysis "
                 "equals in-process analysis byte for byte",
             trees_ok and files_ok,
             f"trees {'ok' if trees_ok else 'DIFFER'}, "
             f"reports {'ok' if files_ok else 'DIFFER'}")


def test_criterion_11_degeneracy_facts():
    d = degeneracies(4)
    single = d[1 * 5 + 3]
    total = sum(d)
    ok = single == 16 and total == 256
    _verdict(11, "degeneracy(4,1,3) = 16 and total profile count = 256", ok,
             f"got {single}, {total}")
