"""Entropy, the closed-form Maxent prediction, the dual-solver oracle, and
the entropy-concentration bound."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from maxentgames import (
    LatticeDistribution,
    MeanObservation,
    binomial_prediction,
    degeneracies,
    ect_bound,
    entropy,
    entropy_report,
    fit_prediction,
    lattice_cells,
    lattice_freedoms,
    mean_observation,
)

from oracles import dual_maxent_solve, flat, microstate_entropy

N = 4
CELLS = list(lattice_cells(N))


def uniform_microstate_density(n):
    total = 2 ** (2 * n)
    return [d / total for d in degeneracies(n)]


def random_density(rng, n):
    raw = [rng.random() for cell in lattice_cells(n)]
    z = math.fsum(raw)
    return [v / z for v in raw]


class TestEntropy:
    def test_uniform_microstates_is_exactly_one(self):
        assert entropy(uniform_microstate_density(N), N) == 1.0

    def test_point_mass_on_corner_is_exactly_zero(self):
        assert entropy(flat(N, {(0, 0): 1.0}), N) == 0.0
        assert entropy(flat(N, {(N, N): 1.0}), N) == 0.0

    def test_point_mass_on_degenerate_cell(self):
        # all mass on (2,2): S = log2(36)/8, pure degeneracy credit
        expected = math.log2(36) / 8
        assert entropy(flat(N, {(2, 2): 1.0}), N) == pytest.approx(expected, abs=1e-15)

    def test_missing_cells_treated_as_zero(self):
        sparse = {(0, 0): 0.5, (4, 4): 0.5}
        full = [sparse.get(cell, 0.0) for cell in CELLS]
        assert entropy(flat(N, sparse), N) == entropy(full, N)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError,
                           match=r"^densities sum to 0\.9, expected 1$"):
            entropy(flat(N, {(0, 0): 0.9}), N)

    def test_rejects_negative_density(self):
        dens = flat(N, {(0, 0): 0.5, (1, 1): 0.6, (2, 2): -0.1})
        with pytest.raises(ValueError, match=r"^negative density at \(2, 2\)$"):
            entropy(dens, N)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_bounded_in_unit_interval(self, seed):
        import random
        dens = random_density(random.Random(seed), N)
        s = entropy(dens, N)
        assert 0.0 <= s <= 1.0 + 1e-12

    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_matches_profile_enumeration_oracle(self, seed):
        import random
        dens = random_density(random.Random(seed), N)
        assert entropy(dens, N) == pytest.approx(
            microstate_entropy(dens, N), abs=1e-10)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_diagonal_relabel_invariance(self, seed):
        # swapping the two populations swaps the C(n,i) and C(n,j) factors,
        # leaving every state's degeneracy (and so the entropy) unchanged
        import random
        dens = random_density(random.Random(seed), N)
        flipped = [dens[CELLS.index((j, i))] for (i, j) in CELLS]
        assert entropy(flipped, N) == pytest.approx(entropy(dens, N), rel=1e-13)


class TestBinomialPrediction:
    def test_central_cell_value(self):
        # C(4,2)^2 / 2^8 at the (0.5, 0.5) mean
        pred = binomial_prediction(MeanObservation(0.5, 0.5), N)
        assert pred.densities[CELLS.index((2, 2))] == pytest.approx(0.140625, abs=1e-15)

    def test_balanced_mean_is_uniform_microstates(self):
        pred = binomial_prediction(MeanObservation(0.5, 0.5), N)
        for got, value in zip(pred.densities, uniform_microstate_density(N)):
            assert got == pytest.approx(value, abs=1e-16)
        assert pred.s_t == 1.0

    def test_corner_mean_is_point_mass(self):
        pred = binomial_prediction(MeanObservation(0.0, 0.0), N)
        assert pred.densities[CELLS.index((0, 0))] == 1.0
        assert pred.s_t == 0.0

    def test_normalized_at_catalog_equilibrium(self):
        pred = binomial_prediction(MeanObservation(1 / 11, 10 / 11), N)
        assert math.fsum(pred.densities) == pytest.approx(1.0, abs=1e-12)

    @given(p=st.floats(min_value=0.0, max_value=1.0),
           q=st.floats(min_value=0.0, max_value=1.0))
    def test_mean_recovery(self, p, q):
        # the prediction's first moments reproduce the constraint vector
        pred = binomial_prediction(MeanObservation(p, q), N)
        got_p = math.fsum(d * i / N for (i, j), d in zip(CELLS, pred.densities))
        got_q = math.fsum(d * j / N for (i, j), d in zip(CELLS, pred.densities))
        assert got_p == pytest.approx(p, abs=1e-12)
        assert got_q == pytest.approx(q, abs=1e-12)

    def test_entropy_monotone_toward_center(self):
        centered = binomial_prediction(MeanObservation(0.5, 0.5), N)
        skewed = binomial_prediction(MeanObservation(0.1, 0.1), N)
        assert centered.s_t > skewed.s_t

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_empty_population(self, n):
        message = f"^population size must be positive, got {n}$"
        with pytest.raises(ValueError, match=message):
            binomial_prediction(MeanObservation(0.5, 0.5), n)
        with pytest.raises(ValueError, match=message):
            entropy([1.0], n)

    @given(p=st.floats(min_value=0.01, max_value=0.99),
           q=st.floats(min_value=0.01, max_value=0.99),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_prediction_maximizes_entropy_for_its_mean(self, p, q, seed):
        # any observed distribution sharing the mean has s_e <= s_t
        import random
        rng = random.Random(seed)
        pred = binomial_prediction(MeanObservation(p, q), N)
        # mix the prediction with a random same-mean perturbation built by
        # symmetric two-cell transfers that cancel in both moments
        dens = dict(zip(CELLS, pred.densities))
        for _ in range(8):
            (i1, j1) = rng.choice(CELLS)
            (i2, j2) = rng.choice(CELLS)
            lo = min(dens[(i1, j1)], dens[(i2, j2)])
            if lo <= 0 or (i1 + i2, j1 + j2) == (0, 0):
                continue
            mirror1 = (i2, j1)
            mirror2 = (i1, j2)
            eps = rng.uniform(0, lo * 0.5)
            # moving mass (i1,j1)+(i2,j2) -> (i2,j1)+(i1,j2) keeps both sums
            dens[(i1, j1)] -= eps
            dens[(i2, j2)] -= eps
            dens[mirror1] += eps
            dens[mirror2] += eps
        assert entropy(flat(N, dens), N) <= pred.s_t + 1e-12


class TestEctBound:
    def test_published_scales(self):
        assert ect_bound(2400) == pytest.approx(0.007067591348217456, abs=1e-15)
        assert ect_bound(1200) == pytest.approx(0.014135182696434913, abs=1e-15)
        assert ect_bound(200) == pytest.approx(0.08481109617860948, abs=1e-15)

    def test_linear_in_inverse_sample_size(self):
        assert ect_bound(2400) == pytest.approx(ect_bound(1200) / 2, rel=1e-14)

    def test_confidence_monotone(self):
        assert ect_bound(1200, confidence=0.99) > ect_bound(1200, confidence=0.95)

    def test_base_corrected_divides_by_ln_gamma(self):
        plain = ect_bound(1200)
        corrected = ect_bound(1200, base_bits=8)
        assert corrected == pytest.approx(plain / (8 * math.log(2)), rel=1e-14)

    def test_invalid_confidence(self):
        with pytest.raises(ValueError,
                           match=r"^confidence must be in \(0, 1\), got 1\.0$"):
            ect_bound(1200, confidence=1.0)
        with pytest.raises(ValueError,
                           match=r"^confidence must be in \(0, 1\), got 0\.0$"):
            ect_bound(1200, confidence=0.0)

    def test_invalid_sample_size(self):
        with pytest.raises(ValueError):
            ect_bound(0)

    def test_freedoms_default_matches_lattice(self):
        assert lattice_freedoms(4) == 22
        assert lattice_freedoms(2) == 6


class TestEntropyReport:
    def test_self_fitted_prediction_brackets_entropy(self):
        dist = LatticeDistribution(n=N, counts=flat(N, {(1, 3): 150, (2, 2): 50}))
        report = entropy_report(dist, fit_prediction(dist))
        assert report.s_e <= report.s_t + 1e-12
        assert report.sample_size == 200
        assert report.delta_s_bound == pytest.approx(ect_bound(200), rel=1e-14)

    def test_sample_size_override(self):
        dist = LatticeDistribution(n=N, counts=flat(N, {(2, 2): 10}))
        report = entropy_report(dist, fit_prediction(dist),
                                sample_size=2400)
        assert report.sample_size == 2400
        assert report.delta_s_bound == pytest.approx(ect_bound(2400), rel=1e-14)

    def test_within_bound_flag(self):
        # binomial counts scaled exactly: s_e == s_t, gap 0 <= bound
        pred = binomial_prediction(MeanObservation(0.5, 0.5), N)
        counts = [round(d * 256) for d in pred.densities]
        dist = LatticeDistribution(n=N, counts=counts)
        report = entropy_report(dist, fit_prediction(dist))
        assert report.within_bound
        assert report.s_e == pytest.approx(report.s_t, abs=1e-14)

    def test_concentrated_observation_fails_bound(self):
        # everything on one off-mean cell: huge gap vs tiny bound at M=100000
        dist = LatticeDistribution(n=N, counts=flat(N, {(1, 0): 50_000, (0, 1): 50_000}))
        report = entropy_report(dist, fit_prediction(dist))
        assert not report.within_bound
        assert report.s_t - report.s_e > report.delta_s_bound

    def test_base_corrected_mode_shrinks_bound(self):
        dist = LatticeDistribution(n=N, counts=flat(N, {(2, 2): 100}))
        plain = entropy_report(dist, fit_prediction(dist))
        corrected = entropy_report(dist, fit_prediction(dist),
                                   base_corrected=True)
        assert corrected.delta_s_bound < plain.delta_s_bound


class TestDualSolver:
    def test_matches_closed_form_balanced(self):
        pred = binomial_prediction(MeanObservation(0.5, 0.5), N)
        solved = dual_maxent_solve(MeanObservation(0.5, 0.5), N)
        gap = max(abs(s - e) for s, e in zip(solved, pred.densities))
        assert gap <= 1e-12

    def test_matches_closed_form_catalog_equilibrium(self):
        mean = MeanObservation(1 / 11, 10 / 11)
        pred = binomial_prediction(mean, N)
        solved = dual_maxent_solve(mean, N)
        gap = max(abs(s - e) for s, e in zip(solved, pred.densities))
        assert gap <= 1e-10

    @settings(max_examples=30, deadline=None)
    @given(p=st.floats(min_value=0.02, max_value=0.98),
           q=st.floats(min_value=0.02, max_value=0.98))
    def test_matches_closed_form_generic(self, p, q):
        mean = MeanObservation(p, q)
        pred = binomial_prediction(mean, N)
        solved = dual_maxent_solve(mean, N)
        gap = max(abs(s - e) for s, e in zip(solved, pred.densities))
        assert gap <= 1e-8

    def test_solution_is_normalized(self):
        solved = dual_maxent_solve(MeanObservation(0.23, 0.81), N)
        assert math.fsum(solved) == pytest.approx(1.0, abs=1e-12)

    def test_boundary_mean_rejected(self):
        with pytest.raises(ValueError, match="interior mean"):
            dual_maxent_solve(MeanObservation(0.0, 0.5), N)
        with pytest.raises(ValueError, match="interior mean"):
            dual_maxent_solve(MeanObservation(0.5, 1.0), N)

    def test_no_convergence_when_starved(self):
        with pytest.raises(ArithmeticError):
            dual_maxent_solve(MeanObservation(0.9, 0.9), N, max_iterations=1)

    @pytest.mark.parametrize("p, q, n", [
        (0.999999999999, 0.999999999999, 13),  # exp overflows
        (0.25, 0.999999999999, 26),  # weights overflow to inf
    ])
    def test_unevaluable_dual_fails_loudly(self, p, q, n):
        with pytest.raises(ArithmeticError, match="dual solver"):
            dual_maxent_solve(MeanObservation(p, q), n)

    def test_nan_residual_fails_alike_in_either_coordinate(self):
        # at n=200 a full Newton step on the 0.99 side overflows its
        # weights to inf and its moment to NaN; swapping p and q must not
        # change which check fails
        messages = []
        for p, q in [(0.3, 0.99), (0.99, 0.3)]:
            with pytest.raises(ArithmeticError) as info:
                dual_maxent_solve(MeanObservation(p, q), 200,
                                  max_iterations=20)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "residual" in messages[0]


def per_cell_entropy(densities, n):
    """The entropy with D_ij spelled C(n,i)*C(n,j) cell by cell."""
    terms = []
    for (i, j), rho in zip(lattice_cells(n), densities):
        if rho > 0.0:
            d = float(math.comb(n, i) * math.comb(n, j))
            ratio = d / rho
            if math.isinf(ratio):
                terms.append(rho * (math.log2(d) - math.log2(rho)))
            else:
                terms.append(rho * math.log2(ratio))
    return math.fsum(terms) / (2 * n)


class TestPerCellFormulas:
    """The flat-vector fit, entropies and mean equal, bit for bit, the
    per-cell formulas they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(min_value=1, max_value=8), data=st.data(),
           p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           q=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    def test_equal_to_per_cell_formulas(self, n, data, p, q):
        counts = data.draw(st.lists(
            st.sampled_from([0]) | st.integers(0, 400),
            min_size=(n + 1) ** 2, max_size=(n + 1) ** 2).filter(any))
        observed = LatticeDistribution(n=n, counts=counts)
        prediction = binomial_prediction(MeanObservation(p, q), n)

        densities = [math.comb(n, i) * math.comb(n, j)
                     * p ** i * (1.0 - p) ** (n - i)
                     * q ** j * (1.0 - q) ** (n - j)
                     for (i, j) in lattice_cells(n)]
        assert prediction.densities == densities
        assert prediction.s_t == per_cell_entropy(densities, n)

        total = sum(counts)
        rhos = [c / total for c in counts]
        assert observed.densities == rhos
        s_e = entropy_report(observed, prediction).s_e
        assert s_e == per_cell_entropy(rhos, n)

        o_p = o_q = 0.0
        for (i, j), c in zip(lattice_cells(n), counts):
            if c:
                o_p += c / total * (i / n)
                o_q += c / total * (j / n)
        assert mean_observation(observed) == MeanObservation(
            min(o_p, 1.0), min(o_q, 1.0))
