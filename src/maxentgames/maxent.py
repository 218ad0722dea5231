"""Maximum-entropy machinery on the social-state lattice.

The entropy here is the microstate entropy: each lattice state's density is
credited with the log of its degeneracy, which equals plain Shannon entropy
over all 2^(2n) individual action profiles when profiles within a state are
equiprobable.  Under the two first-moment constraints this entropy is
maximized by the product-binomial distribution, evaluated in closed form by
binomial_prediction.

Entropy base: gamma = 2^(2n) (one bit per agent), so values live in [0, 1]
for any population size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .lattice import (LatticeDistribution, MeanObservation,
                      degeneracies, lattice_cells)
from .special import chi_square_quantile

_NORMALIZATION_TOL = 1e-9


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
    return _entropy(densities, n, degeneracies(n))


def _entropy(densities: Sequence[float], n: int,
             degeneracy: Sequence[int]) -> float:
    """`entropy`, crediting each cell with its entry of `degeneracy`, which
    is degeneracies(n): a fit passes the vector it has built already."""
    if len(densities) != (n + 1) ** 2:
        raise ValueError(f"{len(densities)} densities do not cover the "
                         f"{(n + 1) ** 2} cells of the lattice for n={n}")
    total = math.fsum(densities)
    if abs(total - 1.0) > _NORMALIZATION_TOL:
        raise ValueError(f"densities sum to {total!r}, expected 1")
    terms = []
    for (i, j), rho, d in zip(lattice_cells(n), densities, degeneracy):
        if rho < 0.0:
            raise ValueError(f"negative density at ({i}, {j})")
        if rho > 0.0:
            d = float(d)
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
    degeneracy = degeneracies(n)
    p, q = mean.o_p, mean.o_q
    densities = [d * p ** i * (1.0 - p) ** (n - i)
                 * q ** j * (1.0 - q) ** (n - j)
                 for (i, j), d in zip(lattice_cells(n), degeneracy)]
    s_t = _entropy(densities, n, degeneracy)
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
        raise ValueError(
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
    s_e = entropy(observed.densities, n)
    s_t = prediction.s_t
    m = observed.total if sample_size is None else sample_size
    bound = ect_bound(m, lattice_freedoms(n), confidence,
                      base_bits=2 * n if base_corrected else None)
    return EntropyReport(s_e=s_e, s_t=s_t, delta_s_bound=bound,
                         sample_size=m, within_bound=(s_t - s_e) <= bound)
