"""Throughput comparison of the two simulation kernels.

Runs the same workload through the compiled extension and the pure-Python
fallback and reports rounds/second plus the speedup.  Also asserts the two
backends produce identical output on the benchmark workload, since the
speed comparison is meaningless if they diverge.

Usage: python benchmarks/bench_kernels.py [--rounds N] [--repeat K]
"""

from __future__ import annotations

import argparse
import time

from maxentgames import _purecore

try:
    from maxentgames import _fastcore
except ImportError:
    _fastcore = None

# treatment-1 Nash probabilities and a mid-strength logit table
IID_PROBS = (1 / 11,) * 3 + (10 / 11,) * 3
LOGIT_PROBS = (0.5, 0.9999546021312976, 4.5397868702434395e-05,
               0.5, 0.5, 0.8807970779778823)

WORKLOADS = (
    ("iid/uniform", IID_PROBS, False),
    ("logit/uniform", LOGIT_PROBS, False),
    ("logit/round_robin", LOGIT_PROBS, True),
)


def run(impl, rounds: int, repeat: int, probs, round_robin: bool):
    best = float("inf")
    states = None
    for _ in range(repeat):
        start = time.perf_counter()
        states = impl.simulate_session(4, rounds, probs, 12345, round_robin)
        best = min(best, time.perf_counter() - start)
    return states, best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=200_000)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    if _fastcore is None:
        print("compiled extension not available; benchmarking the pure "
              "backend only")
    header = f"{'workload':<20} {'python':>12} {'c':>12} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for name, probs, round_robin in WORKLOADS:
        py_states, py_time = run(_purecore, args.rounds, args.repeat,
                                 probs, round_robin)
        py_rate = args.rounds / py_time
        if _fastcore is None:
            print(f"{name:<20} {py_rate:>10.0f}/s {'-':>12} {'-':>9}")
            continue
        c_states, c_time = run(_fastcore, args.rounds, args.repeat,
                               probs, round_robin)
        if c_states != py_states:
            raise SystemExit(f"backend mismatch on {name}: kernels disagree")
        c_rate = args.rounds / c_time
        print(f"{name:<20} {py_rate:>10.0f}/s {c_rate:>10.0f}/s "
              f"{c_time and py_time / c_time:>8.1f}x")


if __name__ == "__main__":
    main()
