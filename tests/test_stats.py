"""Fit statistics: chi-square GOF, the Z pattern statistic, entropy gaps,
and the t-test aggregation layer."""

import dataclasses
import math
import random

import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from maxentgames import (
    DegenerateTheory,
    LatticeDistribution,
    MaxentPrediction,
    MeanObservation,
    binomial_prediction,
    chi_square_gof,
    chi_square_quantile,
    degeneracies,
    deviation_report,
    entropy,
    entropy_report,
    fit_prediction,
    lattice_cells,
    one_sample_t_test,
    summarize,
)

from oracles import flat

N = 4
CELLS = list(lattice_cells(N))


def microstate_counts():
    # 256 rounds hitting every state exactly at its degeneracy weight:
    # a perfect sample of the balanced binomial product
    return LatticeDistribution(n=N, counts=degeneracies(N))


def score(observed, prediction):
    """The deviation report with the observed entropy as s_e."""
    return deviation_report(observed, prediction,
                            entropy(observed.densities, observed.n))


@st.composite
def tallies(draw):
    """M in 1..2400 rounds on a lattice with n in 1..8: spread over a random
    support (so some cells are empty), kept to one edge of the lattice (a
    boundary mean), or all in one cell."""
    n = draw(st.integers(min_value=1, max_value=8))
    cells = list(lattice_cells(n))
    shape = draw(st.sampled_from(["spread", "edge", "single"]))
    if shape == "edge":
        axis = draw(st.integers(min_value=0, max_value=1))
        side = draw(st.sampled_from([0, n]))
        cells = [cell for cell in cells if cell[axis] == side]
    rounds = draw(st.integers(min_value=1, max_value=2400))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    support = rng.sample(cells, 1 if shape == "single"
                         else rng.randint(1, len(cells)))
    counts = dict.fromkeys(support, 0)
    for cell in rng.choices(support, k=rounds):
        counts[cell] += 1
    return LatticeDistribution(n=n, counts=flat(n, counts))


def random_counts(rng, total=500):
    counts = {}
    for _ in range(total):
        cell = (rng.randint(0, N), rng.randint(0, N))
        counts[cell] = counts.get(cell, 0) + 1
    return LatticeDistribution(n=N, counts=flat(N, counts))


class TestChiSquare:
    def test_perfect_fit_is_zero(self):
        observed = microstate_counts()
        prediction = binomial_prediction(MeanObservation(0.5, 0.5), N)
        report = chi_square_gof(observed, prediction)
        assert report.statistic == pytest.approx(0.0, abs=1e-18)
        assert not report.exceeds
        assert report.p_value == pytest.approx(1.0, abs=1e-12)

    def test_synthetic_shift_statistic(self):
        # balanced binomial at T=2400, observed = expected except +24 at
        # (2,2) and -24 at (0,0): chi2 = 24^2/337.5 + 24^2/9.375 = 63.1467...
        # The corner goes negative (9.375 - 24), so this table cannot be an
        # integer round tally; feed the Pearson loop a duck-typed stand-in.
        prediction = binomial_prediction(MeanObservation(0.5, 0.5), N)
        table = [2400 * d for d in prediction.densities]
        table[CELLS.index((2, 2))] += 24
        table[CELLS.index((0, 0))] -= 24

        class Table:
            n = N
            total = 2400
            counts = table

        statistic = chi_square_gof(Table(), prediction).statistic
        assert statistic == pytest.approx(576 / 337.5 + 576 / 9.375, rel=1e-12)
        assert statistic == pytest.approx(63.1467, abs=1e-4)
        assert statistic > 33.924438471443793

    def test_criterion_and_freedoms(self):
        observed = microstate_counts()
        report = chi_square_gof(observed, fit_prediction(observed))
        assert report.freedoms == 22
        assert report.criterion == pytest.approx(33.924438471443793, abs=1e-9)
        assert report.significance == 0.05
        assert report.sample_size == 256

    def test_cells_used_and_min_expected(self):
        observed = microstate_counts()
        prediction = binomial_prediction(MeanObservation(0.5, 0.5), N)
        report = chi_square_gof(observed, prediction)
        assert report.cells_used == 25
        # corner cells have expectation 256/256 = 1
        assert report.min_expected == pytest.approx(1.0, rel=1e-12)

    def test_impossible_observation_is_flagged_not_raised(self):
        # prediction puts zero mass off the (4, j) edge; observing (0, 0)
        # under it is impossible
        prediction = binomial_prediction(MeanObservation(1.0, 0.5), N)
        observed = LatticeDistribution(n=N, counts=flat(N, {(0, 0): 5, (4, 2): 5}))
        report = chi_square_gof(observed, prediction)
        assert report.impossible
        assert math.isinf(report.statistic)
        assert report.exceeds
        assert report.p_value == 0.0

    def test_statistic_matches_scipy(self):
        rng = random.Random(3)
        observed = random_counts(rng)
        prediction = binomial_prediction(MeanObservation(0.5, 0.5), N)
        expected_counts = [observed.total * d for d in prediction.densities]
        oracle = scipy.stats.chisquare(observed.counts, expected_counts,
                                       ddof=2, sum_check=False)
        report = chi_square_gof(observed, prediction)
        assert report.statistic == pytest.approx(oracle.statistic, rel=1e-12)
        assert report.p_value == pytest.approx(oracle.pvalue, abs=1e-10)

    @given(seed=st.integers(min_value=0, max_value=5000))
    def test_population_swap_invariance(self, seed):
        # relabeling the two sides transposes observation and prediction
        # together, leaving the statistic unchanged
        rng = random.Random(seed)
        observed = random_counts(rng, total=200)
        flipped = LatticeDistribution(
            n=N, counts=[observed.counts[j * (N + 1) + i] for (i, j) in CELLS])
        mean = mean_pq = MeanObservation(0.3, 0.8)
        swapped = MeanObservation(mean_pq.o_q, mean_pq.o_p)
        a = chi_square_gof(observed, binomial_prediction(mean, N)).statistic
        b = chi_square_gof(flipped, binomial_prediction(swapped, N)).statistic
        assert a == pytest.approx(b, rel=1e-12)

    def test_invalid_significance(self):
        observed = microstate_counts()
        with pytest.raises(ValueError,
                           match=r"^significance must be in \(0, 1\), got 0\.0$"):
            chi_square_gof(observed, fit_prediction(observed),
                           significance=0.0)


class TestZStatistic:
    def test_two_cell_example(self):
        # 1% of mass moved from distance-0 to distance-sqrt(1/2):
        # Z = sqrt(0.5) * (E - rho) = sqrt(0.5) * (-0.01)
        n = 2
        mean = MeanObservation(0.5, 0.5)
        predicted = MaxentPrediction(n=n, densities=flat(n, {(1, 1): 1.0}),
                                     mean=mean, s_t=0.0)
        observed = LatticeDistribution(
            n=n, counts=flat(n, {(1, 1): 99, (2, 2): 1}))
        z = deviation_report(observed, predicted, s_e=0.0).z
        assert z == pytest.approx(-0.01 * math.sqrt(0.5), abs=1e-15)

    def test_zero_when_distributions_equal(self):
        prediction = binomial_prediction(MeanObservation(0.5, 0.5), N)
        observed = microstate_counts()
        assert score(observed, prediction).z == pytest.approx(0.0, abs=1e-15)

    def test_concentration_is_positive(self):
        # all observed mass on the cell at the prediction's mean
        prediction = binomial_prediction(MeanObservation(0.5, 0.5), N)
        observed = LatticeDistribution(n=N, counts=flat(N, {(2, 2): 100}))
        z = score(observed, prediction).z
        assert z > 0

    def test_dispersion_is_negative(self):
        # all observed mass pushed to the far corners
        prediction = binomial_prediction(MeanObservation(0.5, 0.5), N)
        observed = LatticeDistribution(
            n=N, counts=flat(N, {(0, 0): 50, (4, 4): 50}))
        z = score(observed, prediction).z
        assert z < 0

    @given(seed=st.integers(min_value=0, max_value=5000))
    def test_antisymmetric_in_swap(self, seed):
        # swapping observed and predicted flips the sign exactly
        rng = random.Random(seed)
        obs = random_counts(rng, total=300)
        mean = MeanObservation(0.4, 0.6)
        pred = binomial_prediction(mean, N)

        class Swapped:
            n = N
            densities = pred.densities

        swapped_pred = MaxentPrediction(n=N, densities=obs.densities,
                                        mean=mean, s_t=0.0)
        forward = score(obs, pred).z
        backward = deviation_report(Swapped(), swapped_pred, s_e=0.0).z
        assert forward == pytest.approx(-backward, rel=1e-12, abs=1e-15)


class TestResiduals:
    @given(seed=st.integers(min_value=0, max_value=5000))
    def test_residuals_sum_to_zero(self, seed):
        rng = random.Random(seed)
        observed = random_counts(rng)
        prediction = binomial_prediction(MeanObservation(0.5, 0.5), N)
        grid = score(observed, prediction).per_cell
        assert len(grid) == 25
        assert math.fsum(grid) == pytest.approx(0.0, abs=1e-12)

    def test_sign_convention(self):
        # observed minus predicted: surplus cells positive
        prediction = binomial_prediction(MeanObservation(0.5, 0.5), N)
        observed = LatticeDistribution(n=N, counts=flat(N, {(2, 2): 10}))
        grid = score(observed, prediction).per_cell
        assert grid[CELLS.index((2, 2))] == pytest.approx(1.0 - 0.140625)
        assert grid[CELLS.index((0, 0))] == pytest.approx(-1 / 256)


class TestDeviationPass:
    @settings(max_examples=200, deadline=None)
    @given(observed=tallies(),
           mean=st.none() | st.builds(
               MeanObservation,
               st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
               st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)))
    def test_matches_separate_loops_bit_for_bit(self, observed, mean):
        # against the self-fit (mean None) or a fixed mean; a boundary mean
        # leaves cells with zero expectation
        n = observed.n
        prediction = (fit_prediction(observed) if mean is None
                      else binomial_prediction(mean, n))
        # s_e only sets d_te; equal to s_t it never raises
        report = deviation_report(observed, prediction, prediction.s_t)
        z = 0.0
        for (i, j), rho, expected in zip(lattice_cells(n),
                                         observed.densities,
                                         prediction.densities):
            dist = math.hypot(i / n - prediction.mean.o_p,
                              j / n - prediction.mean.o_q)
            z += dist * (expected - rho)
        residuals = [rho - expected for rho, expected
                     in zip(observed.densities, prediction.densities)]
        assert report.z == z
        assert report.per_cell == residuals


class TestDevianceIdentity:
    # Against its self-fit, S_t - S_e = G / (4 n M ln 2) with the deviance
    # G = 2 sum_{O>0} O ln(O / (M E)), so the base-corrected ECT verdict is
    # the G test against chi-square with (n+1)^2 - 3 freedoms (Jaynes 1982,
    # Proc. IEEE 70:939; Wilks 1938, Ann. Math. Stat. 9:60).
    @settings(max_examples=300, deadline=None)
    @given(observed=tallies())
    def test_entropy_gap_is_scaled_deviance(self, observed):
        n, rounds = observed.n, observed.total
        prediction = fit_prediction(observed)
        g = 2.0 * math.fsum(
            o * math.log(o / (rounds * e))
            for o, e in zip(observed.counts, prediction.densities) if o > 0)
        report = entropy_report(observed, prediction, base_corrected=True)
        gap = report.s_t - report.s_e
        assert abs(gap - g / (4 * n * rounds * math.log(2.0))) <= 1e-12
        criterion = chi_square_quantile((n + 1) ** 2 - 3, 0.95)
        if abs(g - criterion) > 1e-9 * criterion:
            assert report.within_bound == (g <= criterion)


def entropy_gap(s_e, s_t):
    """D_te of a deviation report whose prediction has entropy s_t."""
    prediction = dataclasses.replace(
        binomial_prediction(MeanObservation(0.5, 0.5), N), s_t=s_t)
    return deviation_report(microstate_counts(), prediction, s_e).d_te


class TestEntropyDeviation:
    def test_zero_gap(self):
        assert entropy_gap(0.9, 0.9) == 0.0

    def test_two_percent_gap(self):
        assert entropy_gap(0.98 * 0.9, 0.9) == pytest.approx(0.02, abs=1e-12)

    def test_deviation_report_consistency(self):
        observed = LatticeDistribution(
            n=N, counts=flat(N, {(1, 3): 150, (2, 2): 30, (1, 2): 20}))
        report = deviation_report(observed, fit_prediction(observed),
                                  entropy(observed.densities, N))
        assert report.d_te == pytest.approx(
            1.0 - report.s_e / report.s_t, abs=1e-15)
        assert report.d_te > 0  # observed is more concentrated
        assert math.fsum(report.per_cell) == pytest.approx(
            0.0, abs=1e-12)
        assert report.z == pytest.approx(
            score(observed, binomial_prediction(
                MeanObservation(*_mean_of(observed)), N)).z, rel=1e-12)

    def test_corner_point_mass_against_its_own_fit(self):
        # the only zero-entropy self-fit: the data are the predicted point
        # mass, so there is no gap and no deviation to score
        observed = LatticeDistribution(n=N, counts=flat(N, {(N, 0): 200}))
        prediction = fit_prediction(observed)
        assert prediction.s_t == 0.0
        report = deviation_report(observed, prediction,
                                  entropy(observed.densities, N))
        assert report.d_te == 0.0
        assert report.z == 0.0
        assert report.per_cell == [0.0] * len(CELLS)

    def test_zero_entropy_prediction_against_spread_data(self):
        prediction = binomial_prediction(MeanObservation(1.0, 0.0), N)
        observed = LatticeDistribution(
            n=N, counts=flat(N, {(4, 0): 150, (3, 1): 50}))
        with pytest.raises(DegenerateTheory):
            deviation_report(observed, prediction,
                             entropy(observed.densities, N))


def _mean_of(dist):
    from maxentgames import mean_observation
    m = mean_observation(dist)
    return m.o_p, m.o_q


class TestSummarize:
    def test_documented_example(self):
        stats = summarize([0.01, 0.02, 0.03], confidence=0.99)
        assert stats.mean == pytest.approx(0.02, abs=1e-15)
        assert stats.std_error == pytest.approx(0.005773502691896258, rel=1e-9)
        # t_2(0.995) = 9.9248...
        assert stats.ci_low == pytest.approx(-0.0373, abs=1e-4)
        assert stats.ci_high == pytest.approx(0.0773, abs=1e-4)
        assert stats.sample_count == 3

    def test_insufficient_data(self):
        with pytest.raises(ValueError,
                           match="^summary needs at least 2 values, got 1$"):
            summarize([0.5])

    def test_invalid_confidence(self):
        with pytest.raises(ValueError,
                           match=r"^confidence must be in \(0, 1\), got 1\.0$"):
            summarize([1.0, 2.0], confidence=1.0)

    def test_constant_sample_collapses(self):
        stats = summarize([0.75, 0.75, 0.75])
        assert stats.std_error == 0.0
        assert stats.ci_low == stats.ci_high == 0.75

    def test_wider_confidence_widens_interval(self):
        values = [0.1, 0.4, 0.2, 0.35, 0.15]
        narrow = summarize(values, confidence=0.95)
        wide = summarize(values, confidence=0.99)
        assert wide.ci_low < narrow.ci_low
        assert wide.ci_high > narrow.ci_high
        assert wide.mean == narrow.mean


class TestOneSampleTTest:
    def test_documented_example(self):
        report = one_sample_t_test([1, 2, 3, 4, 5], mu0=0.0)
        assert report.t == pytest.approx(4.242640687119285, rel=1e-12)
        assert report.p_value == pytest.approx(0.0132, abs=1e-4)
        assert report.freedoms == 4
        assert report.mean == 3.0

    def test_matches_scipy(self):
        rng = random.Random(8)
        values = [rng.gauss(0.01, 0.05) for _ in range(40)]
        oracle = scipy.stats.ttest_1samp(values, 0.0)
        report = one_sample_t_test(values, mu0=0.0)
        assert report.t == pytest.approx(oracle.statistic, rel=1e-12)
        assert report.p_value == pytest.approx(oracle.pvalue, abs=1e-12)

    def test_nonzero_reference_mean(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert one_sample_t_test(values, mu0=3.0).t == 0.0
        assert one_sample_t_test(values, mu0=3.0).p_value == 1.0

    @given(scale=st.floats(min_value=0.01, max_value=100.0))
    def test_scale_invariance(self, scale):
        base = [0.5, 1.5, -0.5, 2.0, 1.0]
        a = one_sample_t_test(base, mu0=0.0)
        b = one_sample_t_test([scale * v for v in base], mu0=0.0)
        assert b.t == pytest.approx(a.t, rel=1e-9)
        assert b.p_value == pytest.approx(a.p_value, rel=1e-9, abs=1e-12)

    def test_zero_variance_at_reference(self):
        report = one_sample_t_test([2.0, 2.0, 2.0], mu0=2.0)
        assert report.t == 0.0 and report.p_value == 1.0

    def test_zero_variance_off_reference(self):
        report = one_sample_t_test([2.0, 2.0, 2.0], mu0=0.0)
        assert report.t == math.inf and report.p_value == 0.0
        below = one_sample_t_test([-2.0, -2.0], mu0=0.0)
        assert below.t == -math.inf and below.p_value == 0.0

    def test_confidence_interval_brackets_mean(self):
        report = one_sample_t_test([0.9, 1.1, 1.0, 1.2], mu0=0.0)
        assert report.ci_low < report.mean < report.ci_high
        # CI excludes 0, consistent with the small p-value
        assert report.ci_low > 0.0 and report.p_value < 0.05

    def test_insufficient_data(self):
        with pytest.raises(ValueError,
                           match="^summary needs at least 2 values, got 1$"):
            one_sample_t_test([1.0])

    def test_invalid_confidence(self):
        with pytest.raises(ValueError,
                           match=r"^confidence must be in \(0, 1\), got 0\.0$"):
            one_sample_t_test([1.0, 2.0], confidence=0.0)
