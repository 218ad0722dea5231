"""Fit statistics comparing observed lattice distributions to predictions.

Three complementary views: a Pearson chi-square goodness-of-fit test on raw
counts, a signed distance-weighted deviation (the Z statistic) that detects
mass drifting toward or away from the mean, and a relative entropy gap
D_te.  Group-level values aggregate into t tests and confidence intervals
at the treatment level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateTheory
from .lattice import LatticeDistribution, lattice_cells
from .maxent import MaxentPrediction, lattice_freedoms
from .special import (chi_square_cdf, chi_square_quantile,
                      student_t_quantile, student_t_two_sided_p)


@dataclass(frozen=True)
class ChiSquareReport:
    """Pearson GOF result.

    `impossible` marks observations in zero-probability cells, which force
    an infinite statistic instead of an exception; `cells_used` counts the
    lattice cells with positive expectation that entered the sum, and
    `min_expected` their smallest expected count (edge cells strain the
    chi-square approximation, and this is how you see it).
    """

    statistic: float
    freedoms: int
    criterion: float
    exceeds: bool
    cells_used: int
    p_value: float
    significance: float
    sample_size: int
    min_expected: float
    impossible: bool


@dataclass(frozen=True)
class DeviationReport:
    """Pattern statistics for one session: Z, the entropy gap D_te, and the
    signed per-cell density residuals (observed minus predicted), row-major
    over the lattice."""

    d_te: float
    z: float
    per_cell: list[float]
    s_e: float
    s_t: float


@dataclass(frozen=True)
class TTestReport:
    """One-sample two-sided t test with a matching confidence interval."""

    t: float
    p_value: float
    freedoms: int
    mean: float
    ci_low: float
    ci_high: float
    confidence: float


@dataclass(frozen=True)
class SummaryStats:
    """Mean, standard error, and t-based confidence interval of a sample."""

    mean: float
    std_error: float
    ci_low: float
    ci_high: float
    confidence: float
    sample_count: int


def chi_square_gof(observed: LatticeDistribution,
                   prediction: MaxentPrediction,
                   significance: float = 0.05) -> ChiSquareReport:
    """Test an observed distribution against a Maxent prediction.

    Freedoms are (n+1)^2 - 3: cells minus normalization minus the two
    fitted moments.  No cells are pooled: the statistic sums
    (O - T*E)^2 / (T*E) over cells with E > 0, and an observation in a
    zero-expectation cell makes it infinite (the observation is impossible
    under the prediction).
    """
    if not 0.0 < significance < 1.0:
        raise ValueError(
            f"significance must be in (0, 1), got {significance}")
    total = observed.total
    statistic = 0.0
    impossible = False
    cells_used = 0
    min_expected = math.inf
    for count, density in zip(observed.counts, prediction.densities):
        expected = total * density
        if expected == 0.0:
            if count:
                impossible = True
            continue
        cells_used += 1
        min_expected = min(min_expected, expected)
        statistic += (count - expected) ** 2 / expected
    if impossible:
        statistic = math.inf
    freedoms = lattice_freedoms(observed.n)
    criterion = chi_square_quantile(freedoms, 1.0 - significance)
    p_value = 0.0 if impossible else 1.0 - chi_square_cdf(freedoms, statistic)
    return ChiSquareReport(statistic=statistic, freedoms=freedoms,
                           criterion=criterion,
                           exceeds=statistic > criterion,
                           cells_used=cells_used, p_value=p_value,
                           significance=significance, sample_size=total,
                           min_expected=min_expected, impossible=impossible)


def deviation_report(observed: LatticeDistribution,
                     prediction: MaxentPrediction,
                     s_e: float) -> DeviationReport:
    """Z, D_te, and per-cell residuals for one session, given its observed
    entropy s_e, in one pass over the lattice.

    Z = sum_ij ||(i/n, j/n) - mean||_2 * (E_ij - rho_ij), a distance-weighted
    density deviation anchored at the prediction's mean (the observed mean
    when the prediction is self-fitted).  Positive Z means observed mass
    sits nearer the mean than predicted (more concentrated); negative Z
    means mass pushed outward.

    D_te = 1 - S_e / S_t, the relative entropy gap (positive when the data
    are more concentrated than the prediction).  When s_e and s_t are both
    zero the prediction is the point mass the data already are (a corner
    mean scored against its own fit), so D_te is 0.  A zero-entropy
    prediction against spread data raises DegenerateTheory.  The residuals
    rho_ij - E_ij (observed minus predicted) run row-major over the lattice.
    """
    s_t = prediction.s_t
    if s_t == 0.0 and s_e != 0.0:
        raise DegenerateTheory("theoretical entropy is zero")
    d_te = 0.0 if s_t == 0.0 else 1.0 - s_e / s_t
    mean = prediction.mean
    n = observed.n
    z = 0.0
    per_cell = []
    for (i, j), rho, expected in zip(lattice_cells(n), observed.densities,
                                     prediction.densities):
        z += math.hypot(i / n - mean.o_p, j / n - mean.o_q) * (expected - rho)
        per_cell.append(rho - expected)
    return DeviationReport(d_te=d_te, z=z, per_cell=per_cell, s_e=s_e, s_t=s_t)


def summarize(values: Sequence[float],
              confidence: float = 0.95) -> SummaryStats:
    """Mean, standard error, and t-based confidence interval.

    A constant sample collapses the interval to the mean.  Needs at least
    two observations.
    """
    if len(values) < 2:
        raise ValueError(
            f"summary needs at least 2 values, got {len(values)}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(
            f"confidence must be in (0, 1), got {confidence}")
    count = len(values)
    mean = math.fsum(values) / count
    var = math.fsum((v - mean) ** 2 for v in values) / (count - 1)
    se = math.sqrt(var / count)
    half = (0.0 if se == 0.0 else
            student_t_quantile(count - 1, 0.5 + confidence / 2.0) * se)
    return SummaryStats(mean=mean, std_error=se, ci_low=mean - half,
                        ci_high=mean + half, confidence=confidence,
                        sample_count=count)


def one_sample_t_test(values: Sequence[float], mu0: float = 0.0,
                      confidence: float = 0.95) -> TTestReport:
    """Two-sided one-sample t test of mean(values) against mu0, with the
    count, mean and confidence interval of `summarize`.  A zero-variance
    sample degenerates to t = 0 (p = 1) when the mean hits mu0 exactly,
    else t = +-inf with p = 0; reported, not raised.
    """
    summary = summarize(values, confidence)
    freedoms = summary.sample_count - 1
    mean = summary.mean
    if summary.std_error == 0.0:
        t = 0.0 if mean == mu0 else math.copysign(math.inf, mean - mu0)
        p = 1.0 if t == 0.0 else 0.0
    else:
        t = (mean - mu0) / summary.std_error
        p = student_t_two_sided_p(freedoms, t)
    return TTestReport(t=t, p_value=p, freedoms=freedoms, mean=mean,
                       ci_low=summary.ci_low, ci_high=summary.ci_high,
                       confidence=confidence)
