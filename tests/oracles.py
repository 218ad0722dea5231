"""Independent reference implementations used only by the tests.

Each oracle recomputes a quantity by a route deliberately different from
the library's: entropy by enumerating every individual action profile,
equilibria by searching for best-response indifference on a grid plus
bisection, degeneracy by explicit profile counting.  Agreement between the
two routes is what the derived test values rest on.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Mapping, Sequence

from maxentgames import fit_prediction, session_digest


def flat(n: int, cells: Mapping[tuple[int, int], float]) -> list:
    """Row-major (n+1)^2 vector from a sparse {(i, j): value} map; cells
    not named are 0."""
    vector = [0] * (n + 1) ** 2
    for (i, j), value in cells.items():
        assert 0 <= i <= n and 0 <= j <= n, (i, j)
        vector[i * (n + 1) + j] = value
    return vector


def fit_and_digest(record):
    """A session record's self-fit and canonical-CSV digest, the two values
    the CLI passes to `analyze_session` after the record itself."""
    return fit_prediction(record.distribution()), session_digest(record)


def microstate_entropy(densities: Sequence[float], n: int) -> float:
    """Shannon entropy over all 2^(2n) action profiles, base 2^(2n).

    Spreads each state's density uniformly across its own microstates by
    direct enumeration, never using the C(n,i)*C(n,j) formula the library
    relies on.
    """
    probs = []
    for profile in itertools.product((0, 1), repeat=2 * n):
        i = sum(profile[:n])
        j = sum(profile[n:])
        state_mass = densities[i * (n + 1) + j]
        if state_mass <= 0.0:
            continue
        copies = sum(1 for other in itertools.product((0, 1), repeat=2 * n)
                     if sum(other[:n]) == i and sum(other[n:]) == j)
        probs.append(state_mass / copies)
    h = -math.fsum(p * math.log(p) for p in probs)
    return h / (2 * n * math.log(2.0))


def profile_count(n: int, i: int, j: int) -> int:
    """Number of action profiles with exactly i X-ones and j Y-ones,
    counted one profile at a time."""
    return sum(1 for profile in itertools.product((0, 1), repeat=2 * n)
               if sum(profile[:n]) == i and sum(profile[n:]) == j)


def _payoff_gap_x(payoffs, q: float) -> float:
    # X's expected gain from action 1 over action 2 against Y mixing q
    return (q * payoffs.a11 + (1.0 - q) * payoffs.a12
            - q * payoffs.a21 - (1.0 - q) * payoffs.a22)


def _payoff_gap_y(payoffs, p: float) -> float:
    return (p * payoffs.b11 + (1.0 - p) * payoffs.b21
            - p * payoffs.b12 - (1.0 - p) * payoffs.b22)


def _indifference_root(gap, lo: float = 0.0, hi: float = 1.0):
    """Grid scan for a sign change, then bisection to ~1e-15."""
    steps = 1000
    values = [gap(lo + (hi - lo) * k / steps) for k in range(steps + 1)]
    for k in range(steps):
        a, b = values[k], values[k + 1]
        if a == 0.0:
            return lo + (hi - lo) * k / steps
        if a * b < 0.0:
            left = lo + (hi - lo) * k / steps
            right = lo + (hi - lo) * (k + 1) / steps
            for _ in range(100):
                mid = 0.5 * (left + right)
                if gap(left) * gap(mid) <= 0.0:
                    right = mid
                else:
                    left = mid
            return 0.5 * (left + right)
    if values[-1] == 0.0:
        return hi
    return None


def grid_nash(payoffs) -> tuple[float, float] | None:
    """Interior mixed equilibrium by indifference search, or None.

    p* is where Y is indifferent, q* where X is indifferent; both found by
    scanning for the sign change of the payoff gap and bisecting.
    """
    q_star = _indifference_root(lambda q: _payoff_gap_x(payoffs, q))
    p_star = _indifference_root(lambda p: _payoff_gap_y(payoffs, p))
    if p_star is None or q_star is None:
        return None
    return p_star, q_star


def exact_nash_fraction(payoffs) -> tuple[Fraction, Fraction]:
    """Closed-form equilibrium in exact rational arithmetic (for payoff
    tables with integral entries)."""
    den_p = Fraction(payoffs.b11) - payoffs.b12 - payoffs.b21 + payoffs.b22
    den_q = Fraction(payoffs.a11) - payoffs.a12 - payoffs.a21 + payoffs.a22
    p = (Fraction(payoffs.b22) - payoffs.b21) / den_p
    q = (Fraction(payoffs.a22) - payoffs.a12) / den_q
    return p, q
