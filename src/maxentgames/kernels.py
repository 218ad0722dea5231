"""Kernel backend selection.

The compiled extension is preferred when importable; the pure-Python twin is
the fallback and the behavioral reference.  Both implement the identical RNG
protocol documented in _purecore, so swapping backends never changes
results, only speed.  Set MAXENTGAMES_BACKEND=python or =c to force one
(forcing c raises if the extension is missing rather than silently falling
back).
"""

from __future__ import annotations

import operator
import os

from ._purecore import _splitmix64

MODE_IID = 0
MODE_LOGIT = 1
MATCHING_UNIFORM = 0
MATCHING_ROUND_ROBIN = 1

_requested = os.environ.get("MAXENTGAMES_BACKEND", "").strip().lower()
if _requested not in ("", "c", "python"):
    raise ImportError(
        f"MAXENTGAMES_BACKEND must be 'c' or 'python', got {_requested!r}")

if _requested == "python":
    from . import _purecore as _impl
    BACKEND = "python"
else:
    try:
        from . import _fastcore as _impl  # type: ignore[no-redef]
        BACKEND = "c"
    except ImportError:
        if _requested == "c":
            raise
        from . import _purecore as _impl  # type: ignore[no-redef]
        BACKEND = "python"

# how many entries of `probs` each policy mode reads; an unknown mode is
# left to the kernel's own error
_PROBS_PER_MODE = {MODE_IID: 2, MODE_LOGIT: 6}


def simulate_session(n: int, rounds: int, mode: int, probs, seed: int,
                     matching: int = 0, record: bool = False):
    """Run one session on the active backend; the contract is
    _purecore.simulate_session's.

    The arguments are checked here, alike for both backends: n and rounds
    must be integers and probs a sequence of exactly the entries its mode
    reads.  The compiled kernel reads probs unchecked, so a short table
    would otherwise read past its end.
    """
    n = operator.index(n)
    rounds = operator.index(rounds)
    probs = tuple(probs)
    wanted = _PROBS_PER_MODE.get(mode, len(probs))
    if len(probs) != wanted:
        raise ValueError(f"policy mode {mode} takes {wanted} probabilities, "
                         f"got {len(probs)}")
    return _impl.simulate_session(n, rounds, mode, probs, seed, matching,
                                  record)


def splitmix64_sequence(seed: int, count: int) -> list[int]:
    """First `count` splitmix64 outputs for `seed`; used to derive per-group
    and per-treatment seeds so an experiment is reproducible from a single
    base seed."""
    if count < 0:
        raise ValueError("count must be >= 0")
    state = seed
    out = []
    for _ in range(count):
        state, z = _splitmix64(state)
        out.append(z)
    return out
