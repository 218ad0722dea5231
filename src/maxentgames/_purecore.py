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
  then Y agents), then, with uniform matching, n-1 matching uniforms for a
  Fisher-Yates shuffle.  A table that reads no history (px_init == px1 ==
  px0 and py_init == py1 == py0) skips the matching altogether.  The two
  streams are separate, so the action draws are identical across matching
  schemes and whether or not the matching is drawn.
"""

from __future__ import annotations

import operator

_MASK = (1 << 64) - 1
_DOUBLE_UNIT = 2.0 ** -53
_MAX_POP = 64  # the compiled twin's per-agent arrays are fixed-size
_MAX_ROUNDS = 2**31 - 1  # the compiled twin counts rounds in a C int


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


def simulate_session(n: int, rounds: int, probs: tuple[float, ...],
                     seed: int, round_robin: bool = False):
    """Run one session and return its per-round social states.

    probs = (px_init, px1, px0, py_init, py1, py0): px1 is the X-side
    probability of action 1 after its last matched opponent played 1, px0
    the same after a 0, and the _init entries apply before any history
    exists; i.i.d. play at (p, q) is (p, p, p, q, q, q).  The matching is a
    fresh uniform one each round, or with round_robin X agent m meets Y
    agent (m + r) mod n in round r.

    n, rounds and seed may be any integers (objects with __index__); the
    seed is read mod 2^64.  Returns the list of (i, j) states, one per round.
    """
    n = operator.index(n)
    rounds = operator.index(rounds)
    if n < 1:
        raise ValueError("population size must be >= 1")
    if n > _MAX_POP:
        raise ValueError(f"compiled kernel supports populations up to {_MAX_POP}")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if rounds > _MAX_ROUNDS:
        raise ValueError(f"rounds must be at most {_MAX_ROUNDS}")

    state = operator.index(seed) & _MASK
    words = []
    for _ in range(8):
        state, out = _splitmix64(state)
        words.append(out)
    action = words[:4]
    match = words[4:]

    if len(probs) != 6:
        raise ValueError(
            f"the probability table takes 6 entries, got {len(probs)}")
    px_init, px1, px0, py_init, py1, py0 = probs
    # a table that reads no history draws no matching
    matched = not (px_init == px1 == px0 and py_init == py1 == py0)

    states: list[tuple[int, int]] = []
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

        if matched:
            if round_robin:
                for m in range(n):
                    perm[m] = (m + r) % n
            else:
                for m in range(n):
                    perm[m] = m
                for m in range(n - 1, 0, -1):
                    u = (_next(match) >> 11) * _DOUBLE_UNIT
                    k = int(u * (m + 1))
                    perm[m], perm[k] = perm[k], perm[m]
            for m in range(n):
                partner = perm[m]
                seen_y[m] = y_actions[partner]
                seen_x[partner] = x_actions[m]

        states.append((i, j))

    return states
