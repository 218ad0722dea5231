"""Kernel backend selection.

The compiled extension is preferred when importable; the pure-Python twin is
the fallback and the behavioral reference.  Both implement the identical RNG
protocol documented in _purecore, so swapping backends never changes
results, only speed.  Set MAXENTGAMES_BACKEND=python or =c to force one
(forcing c raises if the extension is missing rather than silently falling
back).
"""

from __future__ import annotations

import os

from ._purecore import _splitmix64

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

def simulate_session(n: int, rounds: int, probs, seed: int,
                     round_robin: bool = False) -> list[tuple[int, int]]:
    """Run one session on the active backend; the contract is
    _purecore.simulate_session's.

    probs may be any sequence; it is passed on as a tuple, which is what
    the compiled kernel takes.  Each kernel checks every argument, with the
    same error type and message on both.
    """
    return _impl.simulate_session(n, rounds, tuple(probs), seed, round_robin)


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
