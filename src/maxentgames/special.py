"""Special functions backing the statistics: log-gamma, regularized
incomplete gamma and beta, and the chi-square / Student-t distribution
functions built on them.

Implemented in-repo (Lanczos approximation plus the classic series /
continued-fraction evaluations) so results are bit-reproducible and the
package stays dependency-free.  Accuracy is comfortably below 1e-9 over
the desk-scale argument ranges used here.

The two quantile functions are pure in (freedoms, probability) and cost a
300-step bisection each, while an analysis asks for the same few arguments
once per session; they are memoized with `functools.lru_cache`, so a value
is solved once per process and later calls return the same float.  Invalid
arguments raise on every call (the cache never stores an exception).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

_EPS = 1e-15
_ITMAX = 500
_LN_SQRT_2PI = 0.9189385332046727  # ln(sqrt(2*pi))

# Lanczos coefficients, g = 7, 9 terms.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        # Reflection keeps the Lanczos sum in its accurate range.
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    x -= 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (x + i)
    t = x + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (x + 0.5) * math.log(t) - t + math.log(acc)


def _gamma_series(a: float, x: float) -> float:
    """Lower regularized gamma by power series; valid for x < a + 1."""
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_ITMAX):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - log_gamma(a))


def _gamma_cont_fraction(a: float, x: float) -> float:
    """Upper regularized gamma by Lentz continued fraction; valid for x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - log_gamma(a))


def regularized_gamma_p(a: float, x: float) -> float:
    """Lower regularized incomplete gamma P(a, x)."""
    if a <= 0.0:
        raise ValueError("a must be positive")
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_series(a, x)
    return 1.0 - _gamma_cont_fraction(a, x)


def _beta_cont_fraction(a: float, b: float, x: float) -> float:
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _ITMAX + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def regularized_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("a and b must be positive")
    if x < 0.0 or x > 1.0:
        raise ValueError("x must be in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(log_gamma(a + b) - log_gamma(a) - log_gamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_fraction(a, b, x) / a
    return 1.0 - front * _beta_cont_fraction(b, a, 1.0 - x) / b


def chi_square_cdf(freedoms: int, x: float) -> float:
    """CDF of the chi-square distribution with `freedoms` degrees of freedom."""
    if freedoms < 1:
        raise ValueError("freedoms must be >= 1")
    if x <= 0.0:
        return 0.0
    return regularized_gamma_p(freedoms / 2.0, x / 2.0)


def _invert_cdf(cdf: Callable[[float], float], probability: float,
                hi: float) -> float:
    """Smallest x >= 0 with cdf(x) >= probability, to machine precision:
    double `hi` until it brackets the quantile, then bisect [0, hi]."""
    lo = 0.0
    while cdf(hi) < probability:
        hi *= 2.0
        if hi > 1e300:
            return hi
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if cdf(mid) < probability:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=None)
def chi_square_quantile(freedoms: int, probability: float) -> float:
    """Inverse chi-square CDF by bracketed bisection to machine precision."""
    if freedoms < 1:
        raise ValueError("freedoms must be >= 1")
    if not 0.0 < probability < 1.0:
        raise ValueError(
            f"quantile probability must be in (0, 1), got {probability}")
    return _invert_cdf(lambda x: chi_square_cdf(freedoms, x), probability,
                       float(freedoms))


def student_t_cdf(freedoms: int, t: float) -> float:
    """CDF of Student's t with `freedoms` degrees of freedom."""
    if freedoms < 1:
        raise ValueError("freedoms must be >= 1")
    if t == 0.0:
        return 0.5
    tail = 0.5 * student_t_two_sided_p(freedoms, t)
    return 1.0 - tail if t > 0.0 else tail


def student_t_two_sided_p(freedoms: int, t: float) -> float:
    """Two-sided tail probability P(|T| >= |t|)."""
    if freedoms < 1:
        raise ValueError("freedoms must be >= 1")
    if t == 0.0:
        return 1.0
    return regularized_beta(freedoms / 2.0, 0.5, freedoms / (freedoms + t * t))


@functools.lru_cache(maxsize=None)
def student_t_quantile(freedoms: int, probability: float) -> float:
    """Inverse Student-t CDF by symmetry plus bracketed bisection."""
    if freedoms < 1:
        raise ValueError("freedoms must be >= 1")
    if not 0.0 < probability < 1.0:
        raise ValueError(
            f"quantile probability must be in (0, 1), got {probability}")
    if probability == 0.5:
        return 0.0
    if probability < 0.5:
        return -student_t_quantile(freedoms, 1.0 - probability)
    return _invert_cdf(lambda t: student_t_cdf(freedoms, t), probability, 1.0)
