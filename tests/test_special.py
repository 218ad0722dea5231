"""Special-function routines checked against scipy as an independent oracle."""

import hashlib
import math
import re

import pytest
from hypothesis import given, strategies as st
from scipy import special as sp
from scipy import stats as sps

from maxentgames import chi_square_quantile, student_t_quantile
from maxentgames.special import (
    chi_square_cdf,
    log_gamma,
    regularized_beta,
    regularized_gamma_p,
    student_t_cdf,
    student_t_two_sided_p,
)


def _bad_probability(probability: float) -> str:
    """The whole message a quantile gives for a probability outside (0, 1)."""
    return (r"^quantile probability must be in \(0, 1\), got "
            + re.escape(str(probability)) + "$")


class TestLogGamma:
    @pytest.mark.parametrize("x", [0.5, 1.0, 1.5, 2.0, 4.0, 11.0, 123.456, 1e4])
    def test_against_scipy(self, x):
        assert log_gamma(x) == pytest.approx(sp.gammaln(x), rel=1e-13, abs=1e-13)

    def test_factorial_values(self):
        # Gamma(k+1) = k!
        for k in range(1, 15):
            assert log_gamma(k + 1.0) == pytest.approx(
                math.log(math.factorial(k)), rel=1e-13)

    @given(x=st.floats(min_value=0.05, max_value=500.0))
    def test_recurrence(self, x):
        # ln Gamma(x+1) = ln Gamma(x) + ln x
        assert log_gamma(x + 1.0) == pytest.approx(
            log_gamma(x) + math.log(x), rel=1e-11, abs=1e-11)


class TestRegularizedGamma:
    @given(a=st.floats(min_value=0.2, max_value=60.0),
           x=st.floats(min_value=0.0, max_value=200.0))
    def test_against_scipy(self, a, x):
        assert regularized_gamma_p(a, x) == pytest.approx(
            sp.gammainc(a, x), abs=1e-11)


class TestRegularizedBeta:
    @given(a=st.floats(min_value=0.3, max_value=40.0),
           b=st.floats(min_value=0.3, max_value=40.0),
           x=st.floats(min_value=0.0, max_value=1.0))
    def test_against_scipy(self, a, b, x):
        assert regularized_beta(a, b, x) == pytest.approx(
            sp.betainc(a, b, x), abs=1e-11)

    def test_endpoints(self):
        assert regularized_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_beta(2.0, 3.0, 1.0) == 1.0


class TestChiSquare:
    def test_lattice_criterion_value(self):
        # 95th percentile with 22 freedoms, the fit criterion for n=4
        assert chi_square_quantile(22, 0.95) == pytest.approx(
            33.924438471443793, abs=1e-9)

    def test_median_one_freedom(self):
        assert chi_square_quantile(1, 0.5) == pytest.approx(0.4549, abs=1e-4)

    @pytest.mark.parametrize("freedoms", [1, 2, 5, 22, 100])
    @pytest.mark.parametrize("probability", [0.01, 0.5, 0.9, 0.95, 0.999])
    def test_against_scipy(self, freedoms, probability):
        assert chi_square_quantile(freedoms, probability) == pytest.approx(
            sps.chi2.ppf(probability, freedoms), rel=1e-10, abs=1e-10)

    @given(freedoms=st.integers(min_value=1, max_value=200),
           x=st.floats(min_value=0.0, max_value=400.0))
    def test_cdf_against_scipy(self, freedoms, x):
        assert chi_square_cdf(freedoms, x) == pytest.approx(
            sps.chi2.cdf(x, freedoms), abs=1e-11)

    @given(freedoms=st.integers(min_value=1, max_value=120),
           probability=st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_quantile_cdf_round_trip(self, freedoms, probability):
        x = chi_square_quantile(freedoms, probability)
        assert chi_square_cdf(freedoms, x) == pytest.approx(probability, abs=1e-9)

    def test_cdf_below_support(self):
        assert chi_square_cdf(5, 0.0) == 0.0
        assert chi_square_cdf(5, -3.0) == 0.0

    # the quantile is memoized: a repeated bad call must raise again
    @pytest.mark.parametrize("probability", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_invalid_probability(self, probability):
        for _ in range(2):
            with pytest.raises(ValueError, match=_bad_probability(probability)):
                chi_square_quantile(22, probability)

    def test_invalid_freedoms(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                chi_square_quantile(0, 0.5)
        with pytest.raises(ValueError):
            chi_square_cdf(0, 1.0)


class TestStudentT:
    # |t| < 1e-4 excluded: there x = f/(f+t^2) rounds toward 1 and the tail
    # formula loses absolute digits; that region is checked separately below
    @given(freedoms=st.integers(min_value=1, max_value=200),
           t=st.floats(min_value=1e-4, max_value=40.0),
           negate=st.booleans())
    def test_cdf_against_scipy(self, freedoms, t, negate):
        if negate:
            t = -t
        assert student_t_cdf(freedoms, t) == pytest.approx(
            sps.t.cdf(t, freedoms), abs=1e-9)

    @given(freedoms=st.integers(min_value=1, max_value=200),
           t=st.floats(min_value=1e-4, max_value=40.0))
    def test_two_sided_p_against_scipy(self, freedoms, t):
        expected = 2.0 * sps.t.sf(t, freedoms)
        assert student_t_two_sided_p(freedoms, t) == pytest.approx(
            expected, abs=1e-9)

    @given(freedoms=st.integers(min_value=1, max_value=200),
           t=st.floats(min_value=-1e-4, max_value=1e-4))
    def test_near_zero_t(self, freedoms, t):
        # the CDF moves from 0.5 by at most pdf(0)*|t| < 0.4*1e-4 here
        assert student_t_cdf(freedoms, t) == pytest.approx(0.5, abs=5e-5)
        assert student_t_two_sided_p(freedoms, t) == pytest.approx(1.0, abs=1e-4)

    def test_cdf_symmetry(self):
        assert student_t_cdf(7, 0.0) == 0.5
        assert student_t_cdf(7, 1.3) + student_t_cdf(7, -1.3) == \
            pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("freedoms", [1, 2, 4, 22, 107])
    @pytest.mark.parametrize("probability", [0.9, 0.95, 0.975, 0.995])
    def test_quantile_against_scipy(self, freedoms, probability):
        assert student_t_quantile(freedoms, probability) == pytest.approx(
            sps.t.ppf(probability, freedoms), rel=1e-9, abs=1e-9)

    def test_quantile_symmetry(self):
        assert student_t_quantile(9, 0.5) == 0.0
        assert student_t_quantile(9, 0.05) == -student_t_quantile(9, 0.95)

    def test_confidence_width_value(self):
        # two-sample-size CI half-width factor used by the 99% summaries
        assert student_t_quantile(2, 0.995) == pytest.approx(
            9.924843200918023, abs=1e-8)

    @pytest.mark.parametrize("probability", [0.0, 1.0, math.nan])
    def test_invalid_probability(self, probability):
        for _ in range(2):
            with pytest.raises(ValueError, match=_bad_probability(probability)):
                student_t_quantile(5, probability)

    def test_invalid_freedoms(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                student_t_quantile(0, 0.975)


# 25 freedoms from 1 to 200 x (5 chi-square + 6 Student-t quantiles, each
# with the CDF at it) = 550 values
TABLE_FREEDOMS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 20, 22, 25,
                  30, 40, 50, 60, 80, 100, 150, 200)
TABLE_SHA256 = ("522840c9faaffdc3e7b68b840dcd011c"
                "c97a92f76e35d7dcfcad1f96a8d72eab")


def quantile_table() -> list[float]:
    values = []
    for k in TABLE_FREEDOMS:
        for p in (0.01, 0.05, 0.5, 0.95, 0.99):
            x = chi_square_quantile(k, p)
            values += [x, chi_square_cdf(k, x)]
        for p in (0.005, 0.025, 0.1, 0.9, 0.975, 0.995):
            t = student_t_quantile(k, p)
            values += [t, student_t_cdf(k, t)]
    return values


class TestMemoizedQuantiles:
    """The quantiles are memoized; the values must stay bit-identical to
    the unmemoized bisection, whose table digest is pinned here."""

    def digest(self, values):
        return hashlib.sha256(
            "\n".join(v.hex() for v in values).encode("ascii")).hexdigest()

    def test_table_digest_cold_and_warm(self):
        chi_square_quantile.cache_clear()
        student_t_quantile.cache_clear()
        cold = quantile_table()
        assert len(cold) == 550
        assert self.digest(cold) == TABLE_SHA256
        # every quantile now comes from the cache
        before = chi_square_quantile.cache_info().hits
        assert self.digest(quantile_table()) == TABLE_SHA256
        assert chi_square_quantile.cache_info().hits == before + 125

    def test_errors_are_not_cached(self):
        chi_square_quantile.cache_clear()
        for _ in range(3):
            with pytest.raises(ValueError, match=_bad_probability(1.0)):
                chi_square_quantile(22, 1.0)
        info = chi_square_quantile.cache_info()
        assert (info.hits, info.currsize) == (0, 0)
