"""Lattice geometry, degeneracy counts, and observation tallies."""

import math

import pytest
from hypothesis import given, strategies as st

from maxentgames import (
    LatticeDistribution,
    MeanObservation,
    degeneracies,
    lattice_cells,
    mean_observation,
    tally,
)

from oracles import flat, profile_count


class TestDegeneracy:
    def test_known_value(self):
        # C(4,1)*C(4,3) = 4*4
        assert degeneracies(4)[1 * 5 + 3] == 16

    def test_total_is_all_profiles(self):
        assert sum(degeneracies(4)) == 256

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_total_any_population(self, n):
        assert sum(degeneracies(n)) == 2 ** (2 * n)

    def test_total_at_population_limit(self):
        # exact integers all the way to the largest population allowed
        assert sum(degeneracies(516)) == 4 ** 516

    @pytest.mark.parametrize("n", [0, 517])
    def test_population_outside_limits_rejected(self, n):
        with pytest.raises(ValueError, match=rf"^population size must be "
                           rf"(positive|at most 516), got {n}$"):
            degeneracies(n)

    @given(n=st.integers(min_value=1, max_value=8))
    def test_reflection_symmetry(self, n):
        # cell (i, j) and cell (n-i, n-j) sit at mirrored flat indices
        d = degeneracies(n)
        assert d == d[::-1]

    @given(n=st.integers(min_value=1, max_value=5),
           data=st.data())
    def test_matches_profile_enumeration(self, n, data):
        i = data.draw(st.integers(min_value=0, max_value=n))
        j = data.draw(st.integers(min_value=0, max_value=n))
        assert degeneracies(n)[i * (n + 1) + j] == profile_count(n, i, j)


class TestLatticeCells:
    def test_row_major_order(self):
        cells = list(lattice_cells(2))
        assert cells == [(0, 0), (0, 1), (0, 2),
                         (1, 0), (1, 1), (1, 2),
                         (2, 0), (2, 1), (2, 2)]

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_cell_count(self, n):
        assert len(list(lattice_cells(n))) == (n + 1) ** 2


class TestSocialState:
    """A round's social state (i, j), as tally range-checks it."""

    def test_corner_states_allowed(self):
        dist = tally([(0, 0), (4, 4)], n=4)
        assert dist.counts == flat(4, {(0, 0): 1, (4, 4): 1})

    @pytest.mark.parametrize("i,j", [(-1, 0), (0, -1), (5, 0), (0, 5)])
    def test_rejects_outside_lattice(self, i, j):
        with pytest.raises(ValueError, match=rf"^state \({i}, {j}\) outside "
                           "lattice for n=4$"):
            tally([(i, j)], n=4)

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError,
                           match="^population size must be positive, got 0$"):
            tally([(0, 0)], n=0)
        with pytest.raises(ValueError,
                           match="^population size must be positive, got 0$"):
            LatticeDistribution(n=0, counts=[1])


class TestMeanObservation:
    def test_rejects_outside_unit_square(self):
        with pytest.raises(ValueError):
            MeanObservation(o_p=1.2, o_q=0.5)
        with pytest.raises(ValueError):
            MeanObservation(o_p=0.5, o_q=-0.01)


class TestDistribution:
    def test_density_and_count(self):
        dist = LatticeDistribution(n=4, counts=flat(4, {(0, 0): 3, (2, 2): 1}))
        assert dist.total == 4
        assert dist.counts[0] == 3
        assert dist.counts[1 * 5 + 1] == 0
        assert dist.densities[2 * 5 + 2] == 0.25

    def test_densities_cover_full_grid(self):
        dist = LatticeDistribution(n=4, counts=flat(4, {(1, 1): 5}))
        dens = dist.densities
        assert len(dens) == 25
        assert math.fsum(dens) == pytest.approx(1.0, abs=1e-15)

    def test_zero_count_cells_dropped_from_support(self):
        dist = LatticeDistribution(n=4, counts=flat(4, {(0, 0): 2, (1, 1): 0}))
        assert dist.counts == flat(4, {(0, 0): 2})

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            LatticeDistribution(n=4, counts=flat(4, {(0, 0): -1}))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^a distribution needs at least "
                           "one observation$"):
            LatticeDistribution(n=4, counts=flat(4, {}))

    def test_cell_outside_lattice_rejected(self):
        with pytest.raises(ValueError, match="^26 counts do not cover the 25 "
                           "cells of the lattice for n=4$"):
            LatticeDistribution(n=4, counts=flat(4, {}) + [1])

    def test_equality(self):
        a = LatticeDistribution(n=4, counts=flat(4, {(1, 2): 2}))
        b = LatticeDistribution(n=4, counts=flat(4, {(1, 2): 2}))
        c = LatticeDistribution(n=4, counts=flat(4, {(2, 1): 2}))
        assert a == b
        assert a != c


class TestTally:
    def test_counts_rounds(self):
        dist = tally([(1, 2), (1, 2), (4, 0)], n=4)
        assert dist.total == 3
        assert dist.counts == flat(4, {(1, 2): 2, (4, 0): 1})

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="^a distribution needs at least "
                           "one observation$"):
            tally([], n=4)


class TestMeanOfDistribution:
    def test_point_mass_mean(self):
        dist = LatticeDistribution(n=4, counts=flat(4, {(1, 3): 10}))
        mean = mean_observation(dist)
        assert mean.o_p == pytest.approx(0.25)
        assert mean.o_q == pytest.approx(0.75)

    def test_corner_mean_stays_in_square(self):
        dist = LatticeDistribution(n=4, counts=flat(4, {(4, 4): 7}))
        mean = mean_observation(dist)
        assert mean.o_p == 1.0 and mean.o_q == 1.0

    @given(rounds=st.lists(
        st.tuples(st.integers(min_value=0, max_value=4),
                  st.integers(min_value=0, max_value=4)),
        min_size=1, max_size=60))
    def test_tally_mean_is_arithmetic_mean(self, rounds):
        mean = mean_observation(tally(rounds, n=4))
        expect_p = sum(i for i, _ in rounds) / (4 * len(rounds))
        expect_q = sum(j for _, j in rounds) / (4 * len(rounds))
        assert mean.o_p == pytest.approx(expect_p, abs=1e-12)
        assert mean.o_q == pytest.approx(expect_q, abs=1e-12)
