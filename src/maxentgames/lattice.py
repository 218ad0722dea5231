"""The discrete social-state lattice and observation tallies.

A social state (i, j) counts how many of the n X-agents played X1 and how
many of the n Y-agents played Y1, so the lattice has (n+1)^2 states.  Each
state pools C(n,i)*C(n,j) individual action profiles (its degeneracy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

# The largest n whose largest degeneracy C(n, n//2)^2 is a finite double;
# the fit and entropy convert every degeneracy to float.
MAX_POPULATION = 516


def check_population(n: int) -> None:
    """The one rule on population size for tallies, fits and entropies."""
    if not 1 <= n <= MAX_POPULATION:
        limit = "positive" if n < 1 else f"at most {MAX_POPULATION}"
        raise ValueError(f"population size must be {limit}, got {n}")


@dataclass(frozen=True)
class MeanObservation:
    """Mean of the observed state coordinates: the two-moment constraint vector."""

    o_p: float
    o_q: float

    def __post_init__(self):
        if not (0.0 <= self.o_p <= 1.0 and 0.0 <= self.o_q <= 1.0):
            raise ValueError(f"mean observation ({self.o_p}, {self.o_q}) "
                             "outside the unit square")


def degeneracies(n: int) -> list[int]:
    """Row-major D_ij = C(n,i)*C(n,j), indexed by i*(n+1)+j: the number of
    individual action profiles mapping to state (i, j).

    Exact integer arithmetic; the entries sum to 2^(2n).
    """
    check_population(n)
    row = [math.comb(n, k) for k in range(n + 1)]
    return [a * b for a in row for b in row]


def lattice_cells(n: int) -> Iterator[tuple[int, int]]:
    """All (i, j) cells in row-major order (i outer, j inner).

    Every float accumulation over the lattice iterates in this order so
    sums are bit-stable across runs.
    """
    for i in range(n + 1):
        for j in range(n + 1):
            yield (i, j)


class LatticeDistribution:
    """Observation counts over the lattice with their total round count.

    `counts` is the row-major flat vector indexed by i*(n+1)+j, the layout
    the kernels return; `densities` holds c/total in that layout, built once.
    """

    def __init__(self, n: int, counts: Sequence[int]):
        check_population(n)
        counts = list(counts)
        if len(counts) != (n + 1) ** 2:
            raise ValueError(f"{len(counts)} counts do not cover the "
                             f"{(n + 1) ** 2} cells of the lattice for n={n}")
        for index, c in enumerate(counts):
            if not isinstance(c, int) or c < 0:
                raise ValueError(f"count {c!r} at {divmod(index, n + 1)} "
                                 "is not a non-negative integer")
        total = sum(counts)
        if total < 1:
            raise ValueError("a distribution needs at least one observation")
        self.n = n
        self.counts = counts
        self.total = total
        self.densities = [c / total for c in counts]

    def __eq__(self, other) -> bool:
        return (isinstance(other, LatticeDistribution)
                and self.n == other.n and self.total == other.total
                and self.counts == other.counts)

    def __repr__(self) -> str:
        support = sum(1 for c in self.counts if c)
        return (f"LatticeDistribution(n={self.n}, total={self.total}, "
                f"support={support} cells)")


def tally(rounds: Iterable[tuple[int, int]], n: int) -> LatticeDistribution:
    """Pool a round sequence of (i, j) states into per-state counts.

    Every state must lie on the lattice for n; an empty sequence is an
    error rather than an empty distribution.
    """
    check_population(n)
    size = n + 1
    counts = [0] * (size * size)
    for (i, j) in rounds:
        if not (0 <= i <= n and 0 <= j <= n):
            raise ValueError(f"state ({i}, {j}) outside lattice for n={n}")
        counts[i * size + j] += 1
    return LatticeDistribution(n=n, counts=counts)


def mean_observation(dist: LatticeDistribution) -> MeanObservation:
    """First moments of the state coordinates: (sum rho_ij * i/n, sum rho_ij * j/n)."""
    o_p = 0.0
    o_q = 0.0
    n = dist.n
    for (i, j), rho in zip(lattice_cells(n), dist.densities):
        if rho:
            o_p += rho * (i / n)
            o_q += rho * (j / n)
    return MeanObservation(o_p=min(o_p, 1.0), o_q=min(o_q, 1.0))
