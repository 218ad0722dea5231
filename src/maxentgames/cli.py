"""Command-line interface.

Four subcommands: `simulate` writes session CSVs, `analyze` scores them
against the maximum-entropy prediction, `reproduce` runs the full
12-treatment ensemble and emits the summary tables, `predict` evaluates
the prediction for a given mean.  Exit codes: 0 success, 1 analysis
flagged under --strict, 2 usage or input error.  Every command is
deterministic given its full argument list.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .games import (Treatment, get_treatment, mixed_nash,
                    read_treatment_config, treatment_catalog)
from .kernels import splitmix64_sequence
from .lattice import MeanObservation
from .maxent import MaxentPrediction, binomial_prediction, ect_bound
from .sessionio import (ENSEMBLE_CONFIDENCE, AnalysisReport,
                        analyze_session, canonical_json, fit_prediction,
                        format_float, read_session_csv, session_digest,
                        summarize_ensemble, to_obj, write_lattice_svg,
                        write_session_csv, write_text, TOOL_VERSION)
from .simulate import (DEFAULT_POPULATION, PolicySpec, logit_policy,
                       mixed_policy, nash_policy, run_ensemble)


def _add_policy_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--policy", choices=("nash", "iid", "logit"),
                        default="nash",
                        help="agent behavior (default: nash)")
    parser.add_argument("--p", type=float, default=0.5,
                        help="X action-1 probability for --policy iid")
    parser.add_argument("--q", type=float, default=0.5,
                        help="Y action-1 probability for --policy iid")
    parser.add_argument("--intensity", type=float, default=None,
                        help="rationality lambda for --policy logit")
    parser.add_argument("--init-p", type=float, default=0.5,
                        help="first-round X mix for --policy logit")
    parser.add_argument("--init-q", type=float, default=0.5,
                        help="first-round Y mix for --policy logit")


def _build_policy(args: argparse.Namespace,
                  treatment: Treatment) -> PolicySpec:
    if args.policy == "nash":
        return nash_policy(treatment.payoffs)
    if args.policy == "iid":
        return mixed_policy(args.p, args.q)
    if args.intensity is None:
        raise ValueError("--policy logit requires --intensity")
    return logit_policy(args.intensity, args.init_p, args.init_q)


def _load_treatment(args: argparse.Namespace) -> Treatment:
    if args.treatments is not None:
        table = {t.id: t for t in read_treatment_config(args.treatments)}
        if args.treatment not in table:
            raise ValueError(
                f"treatment {args.treatment} not in {args.treatments}")
        return table[args.treatment]
    try:
        return get_treatment(args.treatment)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None


def _group_name(index: int) -> str:
    return f"group_{index:02d}.csv"


def cmd_simulate(args: argparse.Namespace) -> int:
    treatment = _load_treatment(args)
    policy = _build_policy(args, treatment)
    records = run_ensemble(treatment, policy, groups=args.groups,
                           rounds=args.rounds, base_seed=args.seed,
                           n=args.population, matching=args.matching)
    out = Path(args.out)
    entries = []
    for g, record in enumerate(records, start=1):
        name = _group_name(g)
        entries.append({"file": name, "group": g, "seed": record.seed,
                        "digest": write_session_csv(record, out / name)})
    manifest = {"version": TOOL_VERSION, "treatment": treatment.id,
                "policy": policy.label(), "population": args.population,
                "matching": args.matching, "rounds": len(records[0].rounds),
                "groups": len(records), "base_seed": args.seed,
                "sessions": entries}
    write_text(out / "manifest.json", canonical_json(manifest) + "\n")
    print(f"wrote {len(records)} sessions + manifest to {out}")
    return 0


def _session_line(name: str, report: AnalysisReport) -> str:
    ent = report.entropy
    chi = report.chi_square
    rel = ">" if chi.exceeds else "<="
    return (f"{name}: treatment={report.treatment_id}"
            f" T={chi.sample_size}"
            f" mean=({report.mean_p:.4f},{report.mean_q:.4f})"
            f" S_e={ent.s_e:.4f} S_t={ent.s_t:.4f}"
            f" D_te={report.deviation.d_te:+.4f}"
            f" bound={ent.delta_s_bound:.4f}"
            f" within_bound={'yes' if ent.within_bound else 'no'}"
            f" chi2={chi.statistic:.2f}{rel}{chi.criterion:.2f}"
            f" Z={report.deviation.z:+.4f}")


def cmd_analyze(args: argparse.Namespace) -> int:
    reports = []
    # one read, tally and fit per session; --svg draws the last scored pair
    # per output file, since inputs that share a stem share a file
    svgs = {}
    for g, path in enumerate(args.sessions, start=1):
        record = read_session_csv(path)
        prediction = fit_prediction(record.distribution())
        if args.svg is not None:
            svgs[Path(path).stem + ".svg"] = (record.distribution(),
                                               prediction, Path(path).name)
        reports.append(analyze_session(
            record, prediction, session_digest(record), source=str(path),
            group_id=g, confidence=args.ect_significance,
            significance=args.chi_significance,
            base_corrected=args.base_corrected,
            ect_sample_size=args.rounds_per_group))
        print(_session_line(Path(path).name, reports[-1]))

    ensemble = summarize_ensemble(reports) if len(reports) > 1 else None
    if ensemble is not None:
        d, z = ensemble.d_te, ensemble.z
        print(f"ensemble: sessions={ensemble.sessions}"
              f" chi_exceed={ensemble.chi_exceed_count}")
        print(f"  D_te mean={d.mean:+.5f} SE={d.std_error:.5f}"
              f" CI{d.confidence * 100:g}=[{d.ci_low:+.5f},{d.ci_high:+.5f}]"
              f" t={ensemble.d_te_test.t:.3f}"
              f" p={ensemble.d_te_test.p_value:.4g}")
        print(f"  Z    mean={z.mean:+.5f} SE={z.std_error:.5f}"
              f" CI{z.confidence * 100:g}=[{z.ci_low:+.5f},{z.ci_high:+.5f}]"
              f" t={ensemble.z_test.t:.3f}"
              f" p={ensemble.z_test.p_value:.4g}")

    if args.json is not None:
        obj = {"sessions": [to_obj(r) for r in reports],
               "ensemble": None if ensemble is None else to_obj(ensemble)}
        write_text(args.json, canonical_json(obj) + "\n")
    if args.svg is not None:
        for name, (dist, prediction, title) in svgs.items():
            write_lattice_svg(dist, Path(args.svg) / name, prediction,
                              title=title)
    if args.strict and any(r.chi_square.exceeds for r in reports):
        return 1
    return 0


def _print_prediction(prediction: MaxentPrediction) -> None:
    n = prediction.n
    print(f"n={n} mean=({format_float(prediction.mean.o_p)},"
          f"{format_float(prediction.mean.o_q)})"
          f" S_t={format_float(prediction.s_t)}")
    print("E (rows i=0..n, columns j=0..n):")
    for i in range(n + 1):
        row = prediction.densities[i * (n + 1):(i + 1) * (n + 1)]
        print("  " + " ".join(format_float(v) for v in row))


def cmd_predict(args: argparse.Namespace) -> int:
    mean = MeanObservation(args.o_p, args.o_q)
    prediction = binomial_prediction(mean, args.population)
    _print_prediction(prediction)
    if args.out is not None:
        obj = {"n": args.population, "mean": [mean.o_p, mean.o_q],
               "s_t": prediction.s_t, "solver": "closed",
               "densities": to_obj(prediction.densities)}
        write_text(args.out, canonical_json(obj) + "\n")
    return 0


_CRITERION_SCALES = (2400, 1200, 200)

_GROUPS_HEADER = ("treatment,group,seed,mean_p,mean_q,s_e,s_t,d_te,z,"
                  "chi_square,chi_exceeds")


def _groups_row(report: AnalysisReport, seed: int) -> str:
    dev = report.deviation
    return ",".join([
        str(report.treatment_id), str(report.group_id), str(seed),
        format_float(report.mean_p), format_float(report.mean_q),
        format_float(dev.s_e), format_float(dev.s_t),
        format_float(dev.d_te), format_float(dev.z),
        format_float(report.chi_square.statistic),
        "1" if report.chi_square.exceeds else "0",
    ])


def cmd_reproduce(args: argparse.Namespace) -> int:
    out = Path(args.out)
    # present even when no session is flagged, so the tree has one shape;
    # an earlier run's drawings go, so svg/ matches this run's groups.csv
    (out / "svg").mkdir(parents=True, exist_ok=True)
    for stale in (out / "svg").glob("treatment_*_group_*.svg"):
        stale.unlink()

    catalog = treatment_catalog()
    treatment_seeds = splitmix64_sequence(args.seed, len(catalog))
    bounds = {str(m): ect_bound(m) for m in _CRITERION_SCALES}
    print("delta_s criterion (k=22, F=0.95):")
    for m in _CRITERION_SCALES:
        print(f"  M={m}: {bounds[str(m)]:.4f}"
              f" ({format_float(bounds[str(m)])})")

    treatment_rows = []
    group_lines = [_GROUPS_HEADER]
    all_reports = []
    print("treatment rows (D_te mean / SE / "
          f"{ENSEMBLE_CONFIDENCE * 100:g}% CI):")
    for treatment, t_seed in zip(catalog, treatment_seeds):
        eq = mixed_nash(treatment.payoffs)
        records = run_ensemble(treatment, base_seed=t_seed)
        t_dir = out / "sessions" / f"treatment_{treatment.id:02d}"
        reports = []
        for g, record in enumerate(records, start=1):
            digest = write_session_csv(record, t_dir / _group_name(g))
            prediction = fit_prediction(record.distribution())
            report = analyze_session(
                record, prediction, digest,
                source=f"treatment_{treatment.id:02d}/{_group_name(g)}",
                group_id=g)
            reports.append(report)
            group_lines.append(_groups_row(report, record.seed))
            if report.chi_square.exceeds:
                name = f"treatment_{treatment.id:02d}_group_{g:02d}.svg"
                write_lattice_svg(
                    record.distribution(), out / "svg" / name, prediction,
                    title=f"treatment {treatment.id} group {g} "
                          f"chi2={report.chi_square.statistic:.1f}")
        all_reports.extend(reports)
        summary = summarize_ensemble(reports)
        row = {"id": treatment.id, "p_star": eq.p_star, "q_star": eq.q_star,
               "rounds_per_group": treatment.rounds_per_group,
               "base_seed": t_seed}
        row.update(to_obj(summary))
        treatment_rows.append(row)
        d = summary.d_te
        print(f"  treatment {treatment.id:>2}: groups={summary.sessions:>2}"
              f" D_te={d.mean:+.4f} SE={d.std_error:.4f}"
              f" CI{d.confidence * 100:g}=[{d.ci_low:+.4f},{d.ci_high:+.4f}]"
              f" chi_exceed={summary.chi_exceed_count}")

    total = summarize_ensemble(all_reports)
    d = total.d_te
    print(f"  total       : groups={total.sessions}"
          f" D_te={d.mean:+.4f} SE={d.std_error:.4f}"
          f" CI{d.confidence * 100:g}=[{d.ci_low:+.4f},{d.ci_high:+.4f}]"
          f" chi_exceed={total.chi_exceed_count}")

    summary_obj = {"version": TOOL_VERSION, "seed": args.seed,
                   "delta_s_criterion": bounds,
                   "treatments": treatment_rows,
                   "total": to_obj(total)}
    write_text(out / "summary.json", canonical_json(summary_obj) + "\n")
    write_text(out / "groups.csv", "\n".join(group_lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxentgames",
        description="Simulate population 2x2 games and test the outcomes "
                    "against maximum-entropy predictions.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate",
                         help="run one treatment and write session CSVs")
    sim.add_argument("--treatment", type=int, required=True,
                     help="treatment id")
    sim.add_argument("--treatments", default=None,
                     help="treatment config file (default: built-in catalog)")
    _add_policy_flags(sim)
    sim.add_argument("--rounds", type=int, default=None,
                     help="rounds per group (default: treatment value)")
    sim.add_argument("--groups", type=int, default=None,
                     help="number of groups (default: treatment value)")
    sim.add_argument("--seed", type=int, default=0,
                     help="base seed; group seeds derive from it")
    sim.add_argument("--population", type=int, default=DEFAULT_POPULATION,
                     help="agents per side (default: %(default)s)")
    sim.add_argument("--matching", choices=("uniform", "round_robin"),
                     default="uniform")
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze",
                         help="score session CSVs against the prediction")
    ana.add_argument("sessions", nargs="+", help="session CSV paths")
    ana.add_argument("--json", default=None,
                     help="write combined report JSON here")
    ana.add_argument("--svg", default=None,
                     help="write one lattice SVG per input file stem "
                          "here (the last input with that stem)")
    ana.add_argument("--ect-significance", type=float, default=0.95,
                     help="ECT confidence level F (default: 0.95)")
    ana.add_argument("--chi-significance", type=float, default=0.05,
                     help="chi-square significance (default: 0.05)")
    ana.add_argument("--rounds-per-group", type=int, default=None,
                     help="override M in the ECT bound")
    ana.add_argument("--base-corrected", action="store_true",
                     help="divide the ECT bound by ln(gamma)")
    ana.add_argument("--strict", action="store_true",
                     help="exit 1 if any session exceeds the chi-square "
                          "criterion")
    ana.set_defaults(func=cmd_analyze)

    rep = sub.add_parser("reproduce",
                         help="run the full 12-treatment ensemble and write "
                              "the summary tables")
    rep.add_argument("--seed", type=int, required=True,
                     help="base seed (required: no silent nondeterminism)")
    rep.add_argument("--out", required=True, help="output directory")
    rep.set_defaults(func=cmd_reproduce)

    pre = sub.add_parser("predict",
                         help="evaluate the maximum-entropy prediction for "
                              "a mean")
    pre.add_argument("o_p", type=float, help="mean X action-1 density")
    pre.add_argument("o_q", type=float, help="mean Y action-1 density")
    pre.add_argument("--population", type=int, default=DEFAULT_POPULATION,
                     help="agents per side (default: %(default)s)")
    pre.add_argument("--out", default=None, help="write prediction JSON here")
    pre.set_defaults(func=cmd_predict)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())
