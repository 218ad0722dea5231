import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from maxentgames.errors import DegenerateGame, NoInteriorEquilibrium
from maxentgames.games import (PayoffMatrix, Treatment, get_treatment,
                               mixed_nash, treatment_catalog)

from oracles import (_payoff_gap_x, _payoff_gap_y, exact_nash_fraction,
                     grid_nash)

# interior equilibria of the 12 built-in games, all at elevenths; games
# 7-12 are the non-constant-sum twins of 1-6 with identical equilibria
CATALOG_EQUILIBRIA = {
    1: (Fraction(1, 11), Fraction(10, 11)),
    2: (Fraction(2, 11), Fraction(8, 11)),
    3: (Fraction(3, 11), Fraction(10, 11)),
    4: (Fraction(4, 11), Fraction(9, 11)),
    5: (Fraction(4, 11), Fraction(8, 11)),
    6: (Fraction(5, 11), Fraction(7, 11)),
    7: (Fraction(1, 11), Fraction(10, 11)),
    8: (Fraction(2, 11), Fraction(8, 11)),
    9: (Fraction(3, 11), Fraction(10, 11)),
    10: (Fraction(4, 11), Fraction(9, 11)),
    11: (Fraction(4, 11), Fraction(8, 11)),
    12: (Fraction(5, 11), Fraction(7, 11)),
}


class TestCatalog:
    def test_twelve_treatments_ordered(self):
        catalog = treatment_catalog()
        assert [t.id for t in catalog] == list(range(1, 13))

    def test_session_layout(self):
        for t in treatment_catalog():
            assert t.groups == (12 if t.id <= 6 else 6)
            assert t.rounds_per_group == 200

    def test_total_group_count(self):
        assert sum(t.groups for t in treatment_catalog()) == 108

    def test_get_treatment_unknown(self):
        with pytest.raises(KeyError):
            get_treatment(13)

    def test_get_treatment_matches_catalog(self):
        assert get_treatment(5) == treatment_catalog()[4]

    def test_built_package_carries_catalog(self, tmp_path):
        # the catalog is read from data/treatments.txt at run time, so a
        # build that dropped the package data would fail on first use
        root = Path(__file__).resolve().parents[1]
        for name in ("setup.py", "pyproject.toml", "README.md"):
            shutil.copy(root / name, tmp_path / name)
        shutil.copytree(root / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.so",
                                                      "*.egg-info"))
        lib = tmp_path / "lib"
        build = subprocess.run([sys.executable, "setup.py", "-q", "build_py",
                                "--build-lib", str(lib)],
                               cwd=tmp_path, capture_output=True, text=True)
        assert build.returncode == 0, build.stderr
        probe = ("import maxentgames\n"
                 "print(maxentgames.__file__)\n"
                 "print(repr(maxentgames.treatment_catalog()))\n")
        env = dict(os.environ, PYTHONPATH=str(lib))
        result = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path,
                                env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        module, catalog = result.stdout.splitlines()
        assert Path(module).is_relative_to(lib)
        assert catalog == repr(treatment_catalog())


class TestMixedNash:
    def test_game_1_equilibrium(self):
        eq = mixed_nash(get_treatment(1).payoffs)
        assert eq.p_star == pytest.approx(1 / 11, abs=1e-15)
        assert eq.q_star == pytest.approx(10 / 11, abs=1e-15)

    @pytest.mark.parametrize("tid", range(1, 13))
    def test_catalog_equilibria_at_elevenths(self, tid):
        eq = mixed_nash(get_treatment(tid).payoffs)
        p_exact, q_exact = CATALOG_EQUILIBRIA[tid]
        assert abs(eq.p_star - p_exact) < 1e-15
        assert abs(eq.q_star - q_exact) < 1e-15

    @pytest.mark.parametrize("tid", range(1, 13))
    def test_indifference_residuals(self, tid):
        payoffs = get_treatment(tid).payoffs
        eq = mixed_nash(payoffs)
        assert abs(_payoff_gap_x(payoffs, eq.q_star)) <= 1e-12
        assert abs(_payoff_gap_y(payoffs, eq.p_star)) <= 1e-12

    @pytest.mark.parametrize("tid", range(1, 13))
    def test_against_grid_oracle(self, tid):
        payoffs = get_treatment(tid).payoffs
        eq = mixed_nash(payoffs)
        oracle = grid_nash(payoffs)
        assert oracle is not None
        assert eq.p_star == pytest.approx(oracle[0], abs=1e-9)
        assert eq.q_star == pytest.approx(oracle[1], abs=1e-9)

    @pytest.mark.parametrize("tid", range(1, 13))
    def test_against_rational_oracle(self, tid):
        payoffs = get_treatment(tid).payoffs
        eq = mixed_nash(payoffs)
        p_exact, q_exact = exact_nash_fraction(payoffs)
        assert abs(eq.p_star - p_exact) < 1e-15
        assert abs(eq.q_star - q_exact) < 1e-15

    def test_degenerate_game(self):
        # X's indifference denominator a11 - a12 - a21 + a22 vanishes
        flat = PayoffMatrix(a11=1, a12=1, a21=1, a22=1,
                            b11=0, b12=1, b21=1, b22=0)
        with pytest.raises(DegenerateGame):
            mixed_nash(flat)

    def test_dominant_strategy_game(self):
        # action 1 strictly dominant for X: q* = (0-4)/(6-4-1+0) = -4
        dom = PayoffMatrix(a11=6, a12=4, a21=1, a22=0,
                           b11=1, b12=0, b21=0, b22=1)
        with pytest.raises(NoInteriorEquilibrium):
            mixed_nash(dom)

    def test_matching_pennies(self):
        pennies = PayoffMatrix(a11=1, a12=-1, a21=-1, a22=1,
                               b11=-1, b12=1, b21=1, b22=-1)
        eq = mixed_nash(pennies)
        assert (eq.p_star, eq.q_star) == (0.5, 0.5)


finite_payoff = st.floats(min_value=-100, max_value=100,
                          allow_nan=False, allow_infinity=False)


@given(cells=st.tuples(*[finite_payoff] * 8),
       shift=st.floats(min_value=-50, max_value=50, allow_nan=False),
       scale=st.floats(min_value=0.1, max_value=20, allow_nan=False))
def test_equilibrium_invariant_under_affine_payoffs(cells, shift, scale):
    """Positive affine transforms of one side's payoffs leave the
    equilibrium unchanged (best-response sets are preserved)."""
    base = PayoffMatrix(a11=cells[0], a12=cells[1], a21=cells[2],
                        a22=cells[3], b11=cells[4], b12=cells[5],
                        b21=cells[6], b22=cells[7])
    da = cells[0] - cells[1] - cells[2] + cells[3]
    db = cells[4] - cells[5] - cells[6] + cells[7]
    # keep the indifference systems well-conditioned so float rounding in
    # the transformed payoffs cannot move the quotient materially
    assume(abs(da) > 1e-3 and abs(db) > 1e-3)
    try:
        eq = mixed_nash(base)
    except (DegenerateGame, NoInteriorEquilibrium):
        return
    # rounding in the transformed payoffs can push a barely-interior
    # equilibrium onto the boundary, which is a different behaviour class
    assume(1e-6 < eq.p_star < 1.0 - 1e-6)
    assume(1e-6 < eq.q_star < 1.0 - 1e-6)
    moved = PayoffMatrix(
        a11=scale * cells[0] + shift, a12=scale * cells[1] + shift,
        a21=scale * cells[2] + shift, a22=scale * cells[3] + shift,
        b11=cells[4], b12=cells[5], b21=cells[6], b22=cells[7])
    eq2 = mixed_nash(moved)
    assert eq2.p_star == eq.p_star  # Y's indifference only reads b cells
    assert eq2.q_star == pytest.approx(eq.q_star, rel=1e-6, abs=1e-6)


class TestPayoffMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            PayoffMatrix(a11=math.nan, a12=0, a21=0, a22=0,
                         b11=0, b12=0, b21=0, b22=0)

    def test_rejects_infinity(self):
        with pytest.raises(ValueError):
            PayoffMatrix(a11=0, a12=0, a21=0, a22=math.inf,
                         b11=0, b12=0, b21=0, b22=0)


class TestTreatment:
    def test_rejects_nonpositive_layout(self):
        payoffs = get_treatment(1).payoffs
        with pytest.raises(ValueError):
            Treatment(id=1, payoffs=payoffs, groups=0, rounds_per_group=200)
        with pytest.raises(ValueError):
            Treatment(id=1, payoffs=payoffs, groups=6, rounds_per_group=0)
