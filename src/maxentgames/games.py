"""Two-population 2x2 bimatrix games and their interior mixed equilibria.

Conventions: the row population is X with strategies {X1, X2}, the column
population is Y with {Y1, Y2}.  Cell (i, j) pays a_ij to the X agent and
b_ij to the Y agent.  A population mix is the probability of playing the
first strategy: p for X1, q for Y1.

The built-in catalog is the shipped table data/treatments.txt, read by the
same parser as a user's treatment config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import (DegenerateGame, DuplicateId, NoInteriorEquilibrium,
                     ParseError, RangeError, SchemaError, read_input)


@dataclass(frozen=True)
class PayoffMatrix:
    """The eight payoff cells of a bimatrix 2x2 game."""

    a11: float
    a12: float
    a21: float
    a22: float
    b11: float
    b12: float
    b21: float
    b22: float

    def __post_init__(self):
        for name in ("a11", "a12", "a21", "a22", "b11", "b12", "b21", "b22"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"payoff {name} must be finite")


@dataclass(frozen=True)
class EquilibriumPoint:
    """Interior mixed equilibrium: P(X1) = p_star, P(Y1) = q_star."""

    p_star: float
    q_star: float


@dataclass(frozen=True)
class Treatment:
    """One experimental configuration: a game plus its session layout."""

    id: int
    payoffs: PayoffMatrix
    groups: int
    rounds_per_group: int

    def __post_init__(self):
        if self.groups < 1 or self.rounds_per_group < 1:
            raise ValueError("groups and rounds_per_group must be positive")


def mixed_nash(payoffs: PayoffMatrix) -> EquilibriumPoint:
    """Solve the two indifference equations for the interior mixed equilibrium.

    q* makes X indifferent between X1 and X2; p* makes Y indifferent.
    Raises DegenerateGame if either indifference denominator vanishes and
    NoInteriorEquilibrium if the solution is not strictly inside (0, 1)^2;
    boundary points are rejected because downstream analysis assumes an
    interior mean.
    """
    da = payoffs.a11 - payoffs.a12 - payoffs.a21 + payoffs.a22
    db = payoffs.b11 - payoffs.b12 - payoffs.b21 + payoffs.b22
    if da == 0.0 or db == 0.0:
        raise DegenerateGame("indifference denominator is zero")
    q_star = (payoffs.a22 - payoffs.a12) / da
    p_star = (payoffs.b22 - payoffs.b21) / db
    if not (0.0 < p_star < 1.0 and 0.0 < q_star < 1.0):
        raise NoInteriorEquilibrium(
            f"indifference point ({p_star:.6g}, {q_star:.6g}) is not interior")
    return EquilibriumPoint(p_star=p_star, q_star=q_star)


# ---------------------------------------------------------------------------
# treatment tables

_CATALOG_PATH = Path(__file__).parent / "data" / "treatments.txt"


def parse_treatment_config(text: str) -> list[Treatment]:
    """Parse a treatment table.

    One treatment per line, whitespace separated:
    id a11 b11 a12 b12 a21 b21 a22 b22 groups rounds
    '#' starts a comment; blank lines are skipped.
    """
    treatments: list[Treatment] = []
    seen: set[int] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 11:
            raise SchemaError(
                f"line {line_no}: expected 11 columns, got {len(parts)}")
        try:
            tid = int(parts[0])
            cells = [float(v) for v in parts[1:9]]
            groups = int(parts[9])
            rounds = int(parts[10])
        except ValueError as exc:
            raise ParseError(f"line {line_no}: {exc}") from None
        if tid in seen:
            raise DuplicateId(f"line {line_no}: duplicate treatment id {tid}")
        seen.add(tid)
        a11, b11, a12, b12, a21, b21, a22, b22 = cells
        try:
            treatments.append(Treatment(
                id=tid, groups=groups, rounds_per_group=rounds,
                payoffs=PayoffMatrix(a11=a11, a12=a12, a21=a21, a22=a22,
                                     b11=b11, b12=b12, b21=b21, b22=b22)))
        except ValueError as exc:  # a non-finite payoff or a bad layout
            raise RangeError(f"line {line_no}: {exc}") from None
    if not treatments:
        raise SchemaError("treatment config has no entries")
    return treatments


def read_treatment_config(path: str | Path) -> list[Treatment]:
    return read_input(path, parse_treatment_config)


def treatment_catalog() -> list[Treatment]:
    """The twelve built-in treatments of the shipped table
    data/treatments.txt, ordered by id."""
    return read_treatment_config(_CATALOG_PATH)


def get_treatment(tid: int) -> Treatment:
    """Look up a built-in treatment by id (1-12)."""
    for treatment in treatment_catalog():
        if treatment.id == tid:
            return treatment
    raise KeyError(f"unknown treatment id {tid}; catalog has 1-12")
