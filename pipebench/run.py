#!/usr/bin/env python3
"""Pipeline benchmark: the maxentgames CLI end to end, and layer by layer.

Usage, from the repository root:

    python3 pipebench/run.py --workload reproduce --seed 42 --seconds 20 --trace 0
    python3 pipebench/run.py --workload all --seed 42 --seconds 20

Each pass runs `maxentgames.cli.main(argv)` once in a fresh child process
(pipebench/child.py), so in-process caches never carry over from one pass
to the next.  Passes run one after another until --seconds have elapsed
(and at least MIN_PASSES have run).  Every pass hashes its output files
and what the CLI printed, and checks them: against pinned digests for
seed 42, against internal consistency rules for any seed, and against the
first pass of the run.  A run at another seed first makes one untimed
pass at seed 42, so byte changes fail every run whatever its seed.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates plain and
traced passes and reports the per-layer metrics (README.md maps them to
workloads).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Exit status: 0 every pass
correct, 1 an output check failed (the JSON says correct: false), 2 the
package could not be built or imported (no JSON is printed).

MAXENTGAMES_BACKEND is removed from the children's environment, so the
benchmark measures the kernel a user gets by default.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from spans import SPAN_NAMES  # noqa: E402

MIN_PASSES = 3
PASS_TIMEOUT_S = 60  # a pass takes about a second; a run must end in 180 s
BUILD_TIMEOUT_S = 840

# sessions one pass completes, and why the workload is in the benchmark
WORKLOADS = {
    "reproduce": (108, "paper headline run: 12 treatments, 108 groups x 200 "
                       "rounds, Nash i.i.d. play; touches every layer"),
    "analyze": (108, "scores the 108 CSVs reproduce writes, with JSON and "
                     "SVG output; no kernel work, CSV parse and analysis "
                     "only"),
    "simulate_long": (12, "history-dependent logit play, n=8, M=2400: "
                          "kernel-bound, no analysis; an i.i.d.-only "
                          "kernel change must not move it"),
}

# sha256 of output files for the pinned seed, identical on both kernels.
# A run at another seed first makes one untimed pass at this seed.
PINNED_SEED = 42
GOLDEN = {
    PINNED_SEED: {
        "reproduce": {
            "summary.json": "0a342041fcd46fadd630e9f4fe3d7ec4"
                            "5464cef757872ea8171e892554f171d8",
            "groups.csv": "ac3c5046dc0081f7a66566472f3e810b"
                          "278b99c2d0177a6ac9ab3a579ab22b45",
        },
        "analyze": {
            "report.json": "8010b54de98c1270d2c9a973aa78e411"
                           "07f72521d8c1aea12a1bb25426fd6d67",
        },
        "simulate_long": {
            "manifest.json": "404ff2c228ea4092a517f7fa2a19651f"
                             "ce3c84ad42b1ddaa3570ea4e92167ac8",
        },
    },
}

END_TO_END = {
    "sessions_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


# spans with extra metrics beyond .calls and .self_s
PER_SESSION = ("lattice.tally", "sessionio.read_session_csv")
QUANTILES = ("special.chi_square_quantile", "special.student_t_quantile")
SIZED = ("sessionio.read_session_csv", "sessionio.write_session_csv",
         "sessionio.write_lattice_svg", "sessionio.canonical_json")


def _per_layer_specs() -> dict[str, tuple[str, str]]:
    specs = {}
    for name in SPAN_NAMES:
        specs[f"{name}.calls"] = ("count", "lower")
        specs[f"{name}.self_s"] = ("s", "lower")
    specs["kernels.rounds_per_s"] = ("1/s", "higher")
    for name in PER_SESSION:
        specs[f"{name}.calls_per_session"] = ("count", "lower")
    for name in QUANTILES:
        specs[f"{name}.distinct_ratio"] = ("ratio", "higher")
    specs["sessionio.analyze_session.call_us_p50"] = ("us", "lower")
    specs["sessionio.analyze_session.call_us_p90"] = ("us", "lower")
    for name in SIZED:
        specs[f"{name}.bytes"] = ("bytes", "lower")
    specs["cli.self_s"] = ("s", "lower")
    specs["trace.overhead_ratio"] = ("ratio", "lower")
    return specs


PER_LAYER = _per_layer_specs()

# per-layer metrics that are exact counts: they must repeat identically
EXACT_SUFFIXES = (".calls", ".bytes", ".calls_per_session", ".distinct_ratio")


class SetupError(Exception):
    """The package could not be built, imported or prepared."""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _child(argv: list[str] | None, cwd: Path, trace: bool) -> dict:
    """Run child.py once and return its JSON result."""
    spec = {"src": str(SRC), "argv": argv, "trace": trace}
    env = {k: v for k, v in os.environ.items() if k != "MAXENTGAMES_BACKEND"}
    proc = subprocess.run(
        [sys.executable, "-I", str(HERE / "child.py"), json.dumps(spec)],
        cwd=cwd, env=env, capture_output=True, text=True,
        timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"pass process exited {proc.returncode}: "
                           f"{tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def build_and_probe() -> dict:
    """Build the package in place the way an install would, import it in
    a fresh process, and return the environment record."""
    if not (SRC / "maxentgames" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'maxentgames'}")
    if (ROOT / "setup.py").is_file():
        proc = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace"],
            cwd=ROOT, capture_output=True, text=True,
            timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupError("setup.py build_ext failed: "
                             + proc.stderr.strip()[-500:])
    try:
        probe = _child(None, ROOT, False)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        raise SetupError(f"cannot import maxentgames: {exc}") from None
    if not Path(probe["module"]).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"imported {probe['module']}, not the package "
                         f"under {SRC}")
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            commit = git.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"backend": probe["backend"], "fastcore_imports": probe["fastcore"],
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "git_commit": commit}


def _pass_argv(workload: str, seed: int, out: str,
               inputs: list[str]) -> list[str]:
    if workload == "reproduce":
        return ["reproduce", "--seed", str(seed), "--out", out]
    if workload == "analyze":
        return ["analyze", *inputs, "--json", f"{out}/report.json",
                "--svg", f"{out}/svg"]
    return ["simulate", "--treatment", "1", "--policy", "logit",
            "--intensity", "0.5", "--population", "8", "--rounds", "2400",
            "--groups", "12", "--seed", str(seed), "--out", out]


def _digest_tree(directory: Path) -> dict[str, str]:
    return {p.relative_to(directory).as_posix(): _sha256(p.read_bytes())
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _pinned_problems(pinned: dict[str, str],
                     files: dict[str, str]) -> list[str]:
    return [f"{name}: sha256 {files.get(name)} is not the pinned {digest}"
            for name, digest in pinned.items() if files.get(name) != digest]


def _reproduce_problems(out: Path, files: dict[str, str]) -> list[str]:
    sessions = [f for f in files if f.startswith("sessions/")]
    with open(out / "groups.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(sessions) != 108 or len(rows) != 108:
        problems.append(f"{len(sessions)} session CSVs and {len(rows)} "
                        "groups.csv rows, expected 108 each")
    return problems


_GROUP_FIELDS = (("mean_p", ("mean_p",)), ("mean_q", ("mean_q",)),
                 ("s_e", ("entropy", "s_e")), ("s_t", ("entropy", "s_t")),
                 ("d_te", ("deviation", "d_te")), ("z", ("deviation", "z")),
                 ("chi_square", ("chi_square", "statistic")))


def _analyze_problems(out: Path, files: dict[str, str],
                      tree: Path) -> list[str]:
    """The analyze report must score each session exactly as reproduce
    did when it wrote the tree (groups.csv), in the same order."""
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    with open(tree / "groups.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    sessions = report["sessions"]
    # one SVG per file name stem: group_01.csv of every treatment shares
    # svg/group_01.svg, so later treatments overwrite earlier ones
    svgs = [f for f in files if f.startswith("svg/")]
    stems = {Path(s["source"]).stem for s in sessions}
    if len(sessions) != len(rows) or len(svgs) != len(stems):
        return [f"{len(sessions)} reports and {len(svgs)} SVGs for "
                f"{len(rows)} sessions"]
    for row, session in zip(rows, sessions):
        for column, path in _GROUP_FIELDS:
            value = session
            for key in path:
                value = value[key]
            if float(row[column]) != value:
                return [f"{session['source']}: {column} {value!r} differs "
                        f"from reproduce's {row[column]}"]
    return []


def _simulate_problems(out: Path, files: dict[str, str]) -> list[str]:
    """Each manifest entry's digest must be the sha256 of its CSV."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    entries = manifest["sessions"]
    problems = [f"{e['file']}: manifest digest does not match the file"
                for e in entries if files.get(e["file"]) != e["digest"]]
    if len(entries) != 12 or manifest["rounds"] != 2400:
        problems.append("manifest does not describe 12 groups x 2400 rounds")
    return problems


def _check_outputs(workload: str, out: Path, files: dict[str, str],
                   tree: Path | None, pinned: dict[str, str]) -> list[str]:
    """Problems in one pass's output tree; empty when it is correct."""
    problems = _pinned_problems(pinned, files)
    try:
        if workload == "reproduce":
            problems += _reproduce_problems(out, files)
        elif workload == "analyze":
            problems += _analyze_problems(out, files, tree)
        else:
            problems += _simulate_problems(out, files)
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def _layer_metrics(spans: list, wall_s: float,
                   sessions: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass.  Self time is a span's
    duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: Counter = Counter()
    self_s: Counter = Counter()
    durations = defaultdict(list)
    notes = defaultdict(list)
    top = 0.0
    for (name, start, end, parent, note), inner in zip(spans, covered):
        calls[name] += 1
        self_s[name] += end - start - inner
        durations[name].append(end - start)
        if note is not None:
            notes[name].append(note)
        if parent < 0:
            top += end - start
    m: dict[str, float] = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    kernel_s = self_s["kernels.simulate_session"]
    m["kernels.rounds_per_s"] = (
        sum(notes["kernels.simulate_session"]) / kernel_s if kernel_s else 0.0)
    for name in PER_SESSION:
        m[f"{name}.calls_per_session"] = calls[name] / sessions
    for name in QUANTILES:
        m[f"{name}.distinct_ratio"] = (
            len(set(notes[name])) / calls[name] if calls[name] else 0.0)
    analyze_us = [d * 1e6 for d in durations["sessionio.analyze_session"]]
    if len(analyze_us) >= 2:
        deciles = statistics.quantiles(analyze_us, n=10)
        p50, p90 = deciles[4], deciles[8]
    else:
        p50 = p90 = analyze_us[0] if analyze_us else 0.0
    m["sessionio.analyze_session.call_us_p50"] = p50
    m["sessionio.analyze_session.call_us_p90"] = p90
    for name in SIZED:
        m[f"{name}.bytes"] = sum(notes[name])
    m["cli.self_s"] = wall_s - top
    return m


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Prepare, run passes for `seconds`, check them, and summarize."""
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        return _run_in(work, workload, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _make_tree(work: Path, name: str,
               seed: int) -> tuple[Path, list[str], list[str]]:
    """Untimed set-up for analyze: the session tree `reproduce --seed`
    writes, checked like a reproduce pass.  Returns the tree, its session
    CSVs as paths relative to it, and the problems found."""
    tree = work / name
    try:
        result = _child(_pass_argv("reproduce", seed, name, []), work, False)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return tree, [], [f"set-up reproduce: {exc}"]
    if result["rc"] != 0:
        return tree, [], [f"set-up reproduce exited {result['rc']}"]
    files = _digest_tree(tree)
    problems = _check_outputs("reproduce", tree, files, None,
                              GOLDEN.get(seed, {}).get("reproduce", {}))
    inputs = sorted(f for f in files if f.startswith("sessions/"))
    return tree, inputs, problems


def _pinned_seed_problems(work: Path, workload: str) -> list[str]:
    """One untimed pass at the pinned seed, so that a run checks output
    bytes against pinned digests whatever seed it times."""
    cwd, inputs, tree = work, [], None
    if workload == "analyze":
        tree, inputs, problems = _make_tree(work, "pinned_tree", PINNED_SEED)
        if problems:
            return problems
        cwd = tree
    record = _one_pass(workload, PINNED_SEED, cwd, inputs, tree, -1, False,
                       GOLDEN[PINNED_SEED][workload])
    return [f"seed {PINNED_SEED}: {p}" for p in record["problems"]]


def _run_in(work: Path, workload: str, seed: int, seconds: float,
            trace: bool) -> dict:
    sessions = WORKLOADS[workload][0]
    pinned = GOLDEN.get(seed, {})
    problems = [] if pinned else _pinned_seed_problems(work, workload)
    cwd, inputs, tree = work, [], None
    if workload == "analyze" and not problems:
        # analyze reads the tree through relative paths, so the report's
        # `source` fields do not depend on where the checkout lives
        tree, inputs, problems = _make_tree(work, "tree", seed)
        cwd = tree
    if problems:
        return {"setup_problems": problems, "passes": []}

    passes: list[dict] = []
    reference = None
    reference_counts = None
    deadline = time.monotonic() + seconds
    index = 0
    while (time.monotonic() < deadline
           or sum(not p["traced"] for p in passes) < MIN_PASSES
           or (trace and sum(p["traced"] for p in passes) < MIN_PASSES)):
        traced = trace and index % 2 == 1
        record = _one_pass(workload, seed, cwd, inputs, tree, index, traced,
                           pinned.get(workload, {}))
        if "signature" in record:
            if reference is None:
                reference = record["signature"]
            elif record["signature"] != reference:
                record["problems"].append("outputs differ from the first "
                                          "pass of this run")
        if traced and "spans" in record:
            record["layers"] = _layer_metrics(record["spans"],
                                              record["wall_s"], sessions)
            counts = {k: v for k, v in record["layers"].items()
                      if k.endswith(EXACT_SUFFIXES)}
            if reference_counts is None:
                reference_counts = counts
            elif counts != reference_counts:
                record["problems"].append("traced counts differ from the "
                                          "first traced pass")
        passes.append(record)
        index += 1
    return {"setup_problems": [], "passes": passes}


def _one_pass(workload: str, seed: int, cwd: Path, inputs: list[str],
              tree: Path | None, index: int, traced: bool,
              pinned: dict[str, str]) -> dict:
    # one output name for every pass: the CLI prints it, and stdout is
    # part of what passes must agree on
    out = "pass_out"
    out_dir = cwd / out
    if workload == "analyze":
        out_dir.mkdir()
    record = {"pass": index, "traced": traced, "problems": []}
    try:
        result = _child(_pass_argv(workload, seed, out, inputs), cwd, traced)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        record["problems"].append(str(exc))
        shutil.rmtree(out_dir, ignore_errors=True)
        return record
    record.update(wall_s=result["wall_s"], setup_s=result["setup_s"],
                  rss_kb=result["rss_kb"])
    if traced:
        record["spans"] = result["spans"]
        # a renamed or removed layer function reads 0; say so
        record["unwrapped"] = sorted(set(SPAN_NAMES) - set(result["wrapped"]))
    problems = record["problems"]
    if result["rc"] != 0:
        problems.append(f"cli exited {result['rc']}")
    else:
        files = _digest_tree(out_dir)
        problems += _check_outputs(workload, out_dir, files, tree, pinned)
        files["<stdout>"] = result["stdout_sha256"]
        record["signature"] = _sha256(
            json.dumps(files, sort_keys=True).encode("utf-8"))
    shutil.rmtree(out_dir, ignore_errors=True)
    return record


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(workload: str, outcome: dict, trace: bool) -> dict:
    """Metrics of one workload run: {name: (value, unit, samples, q1, q3)}."""
    timed = [p for p in outcome["passes"] if "wall_s" in p]
    plain = [p for p in timed if not p["traced"]]
    metrics: dict[str, tuple] = {}

    def put(name, values):
        unit = (END_TO_END | PER_LAYER)[name][0]
        q1, q3 = _quartiles(values)
        metrics[name] = (statistics.median(values), unit, len(values), q1, q3)

    if not plain:
        return metrics
    if not trace:
        sessions = WORKLOADS[workload][0]
        put("sessions_per_s", [sessions / p["wall_s"] for p in plain])
        put("setup_s", [p["setup_s"] for p in plain])
        put("peak_rss_mb", [p["rss_kb"] / 1024 for p in plain])
        return metrics
    layered = [p for p in timed if "layers" in p]
    if not layered:
        return metrics
    for name in PER_LAYER:
        if name == "trace.overhead_ratio":
            continue
        values = [p["layers"][name] for p in layered]
        # exact counts are equal in every traced pass (checked per pass)
        put(name, values[:1] if name.endswith(EXACT_SUFFIXES) else values)
    put("trace.overhead_ratio",
        [statistics.median(p["wall_s"] for p in layered)
         / statistics.median(p["wall_s"] for p in plain) - 1.0])
    return metrics


def _write_results(workload: str, seed: int, trace: bool, environment: dict,
                   outcome: dict, metrics: dict) -> None:
    stem = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    passes = [{k: v for k, v in p.items() if k != "spans"}
              for p in outcome["passes"]]
    record = {"workload": workload, "why": WORKLOADS[workload][1],
              "seed": seed, "environment": environment,
              "setup_problems": outcome["setup_problems"],
              "metrics": {name: {"value": v, "unit": u, "samples": n,
                                 "q1": q1, "q3": q3}
                          for name, (v, u, n, q1, q3) in metrics.items()},
              "passes": passes}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n",
                                         encoding="utf-8")
    if trace:
        spans = {"fields": ["name", "start", "end", "parent", "note"],
                 "passes": [{"pass": p["pass"], "spans": p["spans"]}
                            for p in outcome["passes"] if "spans" in p]}
        Path(f"{stem}-spans.json").write_text(json.dumps(spans) + "\n",
                                              encoding="utf-8")


def _print_workload(workload: str, outcome: dict, metrics: dict) -> None:
    passes = outcome["passes"]
    failed = sum(bool(p["problems"]) for p in passes)
    print(f"== {workload}: {WORKLOADS[workload][1]}")
    for problem in outcome["setup_problems"]:
        print(f"  SET-UP FAILED: {problem}")
    for p in passes:
        for problem in p["problems"]:
            print(f"  pass {p['pass']} FAILED: {problem}")
    unwrapped = {name for p in passes for name in p.get("unwrapped", ())}
    if unwrapped:
        print(f"  not found, so not traced: {', '.join(sorted(unwrapped))}")
    for name, (value, unit, n, q1, q3) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit:<6} "
              f"n={n} q1={q1:.6g} q3={q3:.6g}")
    attempted = max(len(passes), 1)
    print(f"  {'fail_ratio':<48} {failed / attempted:>14.6g} ratio  "
          f"({failed} of {attempted} passes)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the maxentgames CLI workloads and check outputs.")
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    try:
        environment = build_and_probe()
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("environment: " + json.dumps(environment, sort_keys=True))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    reported = {}
    for workload in names:
        outcome = run_workload(workload, args.seed, args.seconds, trace)
        metrics = summarize(workload, outcome, trace)
        _print_workload(workload, outcome, metrics)
        _write_results(workload, args.seed, trace, environment, outcome,
                       metrics)
        if outcome["setup_problems"]:
            attempted += 1
            failed += 1
        attempted += len(outcome["passes"])
        failed += sum(bool(p["problems"]) for p in outcome["passes"])
        prefix = "" if len(names) == 1 else f"{workload}."
        for name, (value, unit, *_) in metrics.items():
            reported[prefix + name] = {"value": value, "unit": unit}

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
