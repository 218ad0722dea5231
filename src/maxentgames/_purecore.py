"""Pure-Python session kernel.

Reference implementation of the round loop; the compiled twin in
_fastcore.c follows this file statement for statement and must produce
bit-identical output.  Keep the two in sync when touching either.

RNG protocol (fixed, portable, no platform dependence):

* splitmix64 expands the 64-bit session seed into eight words; the first
  four seed the action stream, the last four the matching stream.  Both
  streams are xoshiro256**.
* uniforms are (next() >> 11) * 2^-53, giving doubles in [0, 1).
* a Bernoulli(prob) draw is `u < prob`; an integer below k is int(u * k).
* every round consumes exactly 2n action uniforms (X agents in index order,
  then Y agents), then, under logit play with uniform matching only, n-1
  matching uniforms for a Fisher-Yates shuffle.  The two streams are
  separate, so the action draws are identical across matching schemes, and
  i.i.d. play, which reads no history, skips the matching altogether.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_DOUBLE_UNIT = 2.0 ** -53
_MAX_POP = 64  # the compiled twin keeps its counts in a fixed-size C array


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


def _splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (next_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def _next(s: list[int]) -> int:
    """xoshiro256** step on a 4-word state list."""
    x = s[1]
    result = (_rotl((x * 5) & _MASK, 7) * 9) & _MASK
    t = (x << 17) & _MASK
    s[2] ^= s[0]
    s[3] ^= s[1]
    s[1] ^= s[2]
    s[0] ^= s[3]
    s[2] ^= t
    s[3] = _rotl(s[3], 45)
    return result


def simulate_session(n: int, rounds: int, mode: int, probs: tuple[float, ...],
                     seed: int, matching: int = 0, record: bool = False):
    """Run one session and tally social states.

    mode 0: every agent mixes i.i.d.; probs = (p, q).
    mode 1: logit response to the last matched opponent's action;
            probs = (px_init, px1, px0, py_init, py1, py0) where px1 is the
            X-side probability of action 1 after seeing a 1, and the _init
            entries apply before any history exists.
    matching 0 draws a fresh uniform matching each round, 1 rotates
    round-robin (X agent m meets Y agent (m + r) mod n).

    Returns (counts, trajectory): counts is a row-major (n+1)^2 list indexed
    by i*(n+1)+j, trajectory a per-round list of (i, j) or None.
    """
    if n < 1:
        raise ValueError("population size must be >= 1")
    if n > _MAX_POP:
        raise ValueError(f"compiled kernel supports populations up to {_MAX_POP}")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")

    state = seed & _MASK
    words = []
    for _ in range(8):
        state, out = _splitmix64(state)
        words.append(out)
    action = words[:4]
    match = words[4:]

    if mode != 0 and mode != 1:
        raise ValueError(f"unknown policy mode {mode}")
    wanted = 2 if mode == 0 else 6
    if len(probs) != wanted:
        raise ValueError(f"policy mode {mode} takes {wanted} probabilities, "
                         f"got {len(probs)}")
    if mode == 0:
        probs = (probs[0],) * 3 + (probs[1],) * 3
    px_init, px1, px0, py_init, py1, py0 = probs

    size = n + 1
    counts = [0] * (size * size)
    trajectory: list[tuple[int, int]] | None = [] if record else None
    seen_y = [-1] * n  # last opponent action seen by each X agent
    seen_x = [-1] * n  # last opponent action seen by each Y agent
    x_actions = [0] * n
    y_actions = [0] * n
    perm = list(range(n))

    for r in range(rounds):
        i = 0
        for m in range(n):
            u = (_next(action) >> 11) * _DOUBLE_UNIT
            s = seen_y[m]
            prob = px_init if s < 0 else (px1 if s == 1 else px0)
            a = 1 if u < prob else 0
            x_actions[m] = a
            i += a
        j = 0
        for m in range(n):
            u = (_next(action) >> 11) * _DOUBLE_UNIT
            s = seen_x[m]
            prob = py_init if s < 0 else (py1 if s == 1 else py0)
            a = 1 if u < prob else 0
            y_actions[m] = a
            j += a

        # i.i.d. play never reads seen_*, so it draws no matching
        if mode == 1:
            if matching == 0:
                for m in range(n):
                    perm[m] = m
                for m in range(n - 1, 0, -1):
                    u = (_next(match) >> 11) * _DOUBLE_UNIT
                    k = int(u * (m + 1))
                    perm[m], perm[k] = perm[k], perm[m]
            else:
                for m in range(n):
                    perm[m] = (m + r) % n
            for m in range(n):
                partner = perm[m]
                seen_y[m] = y_actions[partner]
                seen_x[partner] = x_actions[m]

        counts[i * size + j] += 1
        if trajectory is not None:
            trajectory.append((i, j))

    return counts, trajectory
