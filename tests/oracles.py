"""Independent reference implementations used only by the tests.

Each oracle recomputes a quantity by a route deliberately different from
the library's: entropy by enumerating every individual action profile,
equilibria by searching for best-response indifference on a grid plus
bisection, degeneracy by explicit profile counting, the Maxent density by
Newton iteration on the Lagrangian dual, canonical JSON by recursive string
concatenation with one `json.dumps` per string.  Agreement between the two
routes is what the derived test values rest on.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import Any, Mapping, Sequence

from maxentgames import (MeanObservation, degeneracies, fit_prediction,
                         lattice_cells, session_digest)

_DUAL_TOLERANCE = 1e-12


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


def _moment(n: int, log_weight_step: float) -> tuple[float, float]:
    """Mean and variance of i/n under rho_i proportional to C(n,i) exp(theta*i)."""
    weights = [math.comb(n, i) * math.exp(log_weight_step * i)
               for i in range(n + 1)]
    z = math.fsum(weights)
    mean = math.fsum(w * i for i, w in enumerate(weights)) / (z * n)
    second = math.fsum(w * i * i for i, w in enumerate(weights)) / (z * n * n)
    return mean, second - mean * mean


def dual_maxent_solve(mean: MeanObservation, n: int,
                      max_iterations: int = 200) -> list[float]:
    """Independent Maxent solver: damped Newton on the Lagrangian dual.

    Maximizes the degeneracy-corrected entropy subject to the two mean
    constraints by solving the moment-matching equations for the dual
    variables (theta_p, theta_q) of the exponential family
    rho_ij ~ D_ij exp(theta_p i + theta_q j).  The iteration starts at
    theta = 0 (the uniform microstate distribution), not at the closed-form
    answer logit(mean), so the solver reaches it on its own.

    The oracle for binomial_prediction; agreement to sup-norm 1e-8 is part
    of the acceptance gate.  Raises ValueError for a mean on the boundary,
    and ArithmeticError where the dual cannot be evaluated: a residual that
    does not reach tolerance (or is NaN in either coordinate), or weights
    that are not finite doubles.
    """
    p, q = mean.o_p, mean.o_q
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise ValueError(f"dual solver needs an interior mean, got ({p}, {q})")
    theta = [0.0, 0.0]

    def residual(th: list[float]) -> tuple[list[float], list[float]]:
        mp, vp = _moment(n, th[0])
        mq, vq = _moment(n, th[1])
        return [mp - p, mq - q], [vp, vq]

    res, var = residual(theta)
    # hypot is NaN when either coordinate is, so neither can hide the other
    err = math.hypot(res[0], res[1])
    for _ in range(max_iterations):
        if err <= _DUAL_TOLERANCE:
            break
        # Diagonal Newton step (the two moments decouple); variances stay
        # positive for interior means so the step is always defined.
        step = [res[0] / (n * var[0]), res[1] / (n * var[1])]
        damping = 1.0
        while True:
            trial = [theta[0] - damping * step[0], theta[1] - damping * step[1]]
            try:
                trial_res, trial_var = residual(trial)
            except OverflowError:
                # step left the evaluable range of exp; damp harder (the
                # current theta evaluated fine, so this terminates)
                damping *= 0.5
                continue
            trial_err = math.hypot(trial_res[0], trial_res[1])
            if trial_err < err or damping < 1e-8:
                theta, res, var, err = trial, trial_res, trial_var, trial_err
                break
            damping *= 0.5
    if not err <= _DUAL_TOLERANCE:  # a NaN residual fails here too
        raise ArithmeticError(
            f"dual solver residual {err:.3e} after {max_iterations} iterations")
    try:
        weights = [d * math.exp(theta[0] * i + theta[1] * j)
                   for (i, j), d in zip(lattice_cells(n), degeneracies(n))]
        z = math.fsum(weights)
    except OverflowError:
        z = math.inf
    if not z < math.inf:
        raise ArithmeticError(
            f"dual solver weights not finite at theta {theta}")
    return [w / z for w in weights]


def reference_format_float(value: float) -> str:
    """`%.17g` with `.0` on whole numbers and `NaN`/`Infinity` literals,
    classifying the value before formatting it."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    text = format(value, ".17g")
    if not any(c in text for c in ".eE"):
        text += ".0"
    return text


def reference_canonical_json(obj: Any) -> str:
    """Canonical JSON (sorted keys, reference_format_float floats), each
    value rendered to its own string and concatenated on the way up; the
    oracle for sessionio.canonical_json, errors included."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return reference_format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(reference_canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(
                    f"JSON object keys must be strings, got {key!r}")
            items.append(json.dumps(key, ensure_ascii=False) + ":"
                         + reference_canonical_json(obj[key]))
        return "{" + ",".join(items) + "}"
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")
