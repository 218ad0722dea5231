"""Maximum-entropy machinery on the social-state lattice.

The entropy here is the microstate entropy: each lattice state's density is
credited with the log of its degeneracy, which equals plain Shannon entropy
over all 2^(2n) individual action profiles when profiles within a state are
equiprobable.  Under the two first-moment constraints this entropy is
maximized by the product-binomial distribution, evaluated in closed form by
binomial_prediction and independently by the dual Newton solver.

Entropy base: gamma = 2^(2n) (one bit per agent), so values live in [0, 1]
for any population size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (BoundaryMean, InvalidConfidence, NoConvergence,
                     NotNormalized, OutOfRange)
from .lattice import (LatticeDistribution, MeanObservation,
                      check_population, degeneracy, lattice_cells)
from .special import chi_square_quantile

_NORMALIZATION_TOL = 1e-9
_DUAL_TOLERANCE = 1e-12


@dataclass(frozen=True)
class MaxentPrediction:
    """Closed-form maximum-entropy density for a given mean, with its entropy.

    `densities` is row-major over the lattice, indexed by i*(n+1)+j."""

    n: int
    densities: list[float]
    mean: MeanObservation
    s_t: float


@dataclass(frozen=True)
class EntropyReport:
    """Observed vs. theoretical entropy with the concentration-bound verdict."""

    s_e: float
    s_t: float
    delta_s_bound: float
    sample_size: int
    within_bound: bool


def entropy(densities: Sequence[float], n: int) -> float:
    """Degeneracy-corrected entropy of a row-major lattice density vector.

    S = -sum_ij [rho_ij log_g rho_ij - rho_ij log_g D_ij] with g = 2^(2n)
    and the 0*log 0 = 0 convention.  The result lies in [0, 1]: zero for a
    point mass on a non-degenerate corner, one for the uniform distribution
    over microstates.
    """
    check_population(n)
    if len(densities) != (n + 1) ** 2:
        raise OutOfRange(f"{len(densities)} densities do not cover the "
                         f"{(n + 1) ** 2} cells of the lattice for n={n}")
    total = math.fsum(densities)
    if abs(total - 1.0) > _NORMALIZATION_TOL:
        raise NotNormalized(f"densities sum to {total!r}, expected 1")
    terms = []
    for (i, j), rho in zip(lattice_cells(n), densities):
        if rho < 0.0:
            raise NotNormalized(f"negative density at ({i}, {j})")
        if rho > 0.0:
            d = float(degeneracy(n, i, j))
            ratio = d / rho
            # ratio form keeps the uniform-microstate case exact (every
            # ratio is a power of two); the difference form only guards
            # against overflow at denormal densities
            if math.isinf(ratio):
                terms.append(rho * (math.log2(d) - math.log2(rho)))
            else:
                terms.append(rho * math.log2(ratio))
    return math.fsum(terms) / (2 * n)


def binomial_prediction(mean: MeanObservation, n: int) -> MaxentPrediction:
    """Closed-form Maxent density for a two-moment constraint.

    E_ij = C(n,i) C(n,j) p^i (1-p)^(n-i) q^j (1-q)^(n-j) with (p, q) the mean
    observation.  Boundary means are allowed and concentrate all mass on the
    corresponding lattice edge (0^0 = 1).
    """
    check_population(n)
    p, q = mean.o_p, mean.o_q
    densities = [degeneracy(n, i, j) * p ** i * (1.0 - p) ** (n - i)
                 * q ** j * (1.0 - q) ** (n - j)
                 for (i, j) in lattice_cells(n)]
    s_t = entropy(densities, n)
    return MaxentPrediction(n=n, densities=densities, mean=mean, s_t=s_t)


def ect_bound(sample_size: int, freedoms: int = 22, confidence: float = 0.95,
              base_bits: int | None = None) -> float:
    """Entropy-concentration bound: delta_S = chi2_quantile(k, F) / (2M).

    The default reproduces the published convention of leaving the quantile
    in natural units even though entropies are reported in base 2^(2n);
    passing base_bits additionally divides by ln(2^base_bits) for a
    dimensionally consistent bound (a factor of about 5.5 smaller at n=4).
    """
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")
    if freedoms < 1:
        raise ValueError("freedoms must be >= 1")
    if not 0.0 < confidence < 1.0:
        raise InvalidConfidence(
            f"confidence must be in (0, 1), got {confidence}")
    bound = chi_square_quantile(freedoms, confidence) / (2.0 * sample_size)
    if base_bits is not None:
        bound /= base_bits * math.log(2.0)
    return bound


def lattice_freedoms(n: int) -> int:
    """Degrees of freedom for the fit test: states minus the two fitted moments
    minus normalization: (n+1)^2 - 3 (22 on the 5x5 lattice)."""
    return (n + 1) ** 2 - 3


def entropy_report(observed: LatticeDistribution,
                   prediction: MaxentPrediction,
                   confidence: float = 0.95,
                   sample_size: int | None = None,
                   base_corrected: bool = False) -> EntropyReport:
    """Assemble the entropy comparison for one observed distribution.

    Against the prediction fitted from the observed mean, s_e <= s_t is
    structural.  sample_size overrides the ECT bound's M (defaults to the
    distribution's round count).
    """
    n = observed.n
    s_e = entropy(observed.densities(), n)
    s_t = prediction.s_t
    m = observed.total if sample_size is None else sample_size
    bound = ect_bound(m, lattice_freedoms(n), confidence,
                      base_bits=2 * n if base_corrected else None)
    return EntropyReport(s_e=s_e, s_t=s_t, delta_s_bound=bound,
                         sample_size=m, within_bound=(s_t - s_e) <= bound)


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

    Exists as an oracle for binomial_prediction; agreement to sup-norm 1e-8
    is part of the acceptance gate.  Raises NoConvergence where the dual
    cannot be evaluated: a residual that does not reach tolerance (or is
    NaN), or weights that are not finite doubles.
    """
    p, q = mean.o_p, mean.o_q
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise BoundaryMean(f"dual solver needs an interior mean, got ({p}, {q})")
    theta = [0.0, 0.0]

    def residual(th: list[float]) -> tuple[list[float], list[float]]:
        mp, vp = _moment(n, th[0])
        mq, vq = _moment(n, th[1])
        return [mp - p, mq - q], [vp, vq]

    res, var = residual(theta)
    err = max(abs(res[0]), abs(res[1]))
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
            trial_err = max(abs(trial_res[0]), abs(trial_res[1]))
            if trial_err < err or damping < 1e-8:
                theta, res, var, err = trial, trial_res, trial_var, trial_err
                break
            damping *= 0.5
    if not err <= _DUAL_TOLERANCE:  # a NaN residual fails here too
        raise NoConvergence(
            f"dual solver residual {err:.3e} after {max_iterations} iterations")
    try:
        weights = [degeneracy(n, i, j) * math.exp(theta[0] * i + theta[1] * j)
                   for (i, j) in lattice_cells(n)]
        z = math.fsum(weights)
    except OverflowError:
        z = math.inf
    if not z < math.inf:
        raise NoConvergence(f"dual solver weights not finite at theta {theta}")
    return [w / z for w in weights]
