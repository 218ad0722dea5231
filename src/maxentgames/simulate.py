"""Population-game sessions: policies, runners, and the session record.

A session is one group's run: n X-agents and n Y-agents play a 2x2 game
repeatedly with fresh random matching every round, and each round collapses
to the social state (i, j) counting action-1 players per side.  Ensembles
derive per-group seeds from one base seed, so a single 64-bit integer
reproduces an entire experiment.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ParseError
from .games import PayoffMatrix, Treatment, mixed_nash
from .kernels import simulate_session, splitmix64_sequence
from .lattice import LatticeDistribution, tally

DEFAULT_POPULATION = 4


def sigmoid(x: float) -> float:
    """Logistic function, stable for large |x|."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def _check_prob(name: str, value: float) -> float:
    if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)


@dataclass(frozen=True)
class PolicySpec:
    """How agents choose actions.

    kind "iid_mixed": every agent independently plays action 1 with
    probability p (X side) or q (Y side), ignoring history.

    kind "logit_response": each agent plays a logit response to its last
    matched opponent's action with rationality `intensity` (0 = uniform
    random, large = near best response); before any history exists the
    sides mix at (init_p, init_q).  With intensity 0 and the default
    initial mix this reproduces iid_mixed(0.5, 0.5) draw for draw.
    """

    kind: str
    p: float | None = None
    q: float | None = None
    intensity: float | None = None
    init_p: float = 0.5
    init_q: float = 0.5

    def label(self) -> str:
        """Compact round-trippable text form, used in file metadata."""
        if self.kind == "iid_mixed":
            return f"iid_mixed(p={self.p!r},q={self.q!r})"
        return (f"logit_response(lambda={self.intensity!r},"
                f"p0={self.init_p!r},q0={self.init_q!r})")


def mixed_policy(p: float, q: float) -> PolicySpec:
    """Both populations mix i.i.d. with the given action-1 probabilities."""
    return PolicySpec(kind="iid_mixed", p=_check_prob("p", p),
                      q=_check_prob("q", q))


def nash_policy(payoffs: PayoffMatrix) -> PolicySpec:
    """i.i.d. mixing at the game's interior mixed-strategy equilibrium."""
    eq = mixed_nash(payoffs)
    return PolicySpec(kind="iid_mixed", p=eq.p_star, q=eq.q_star)


def logit_policy(intensity: float, init_p: float = 0.5,
                 init_q: float = 0.5) -> PolicySpec:
    """History-dependent logit response with the given rationality."""
    if not (isinstance(intensity, (int, float)) and intensity >= 0.0
            and math.isfinite(intensity)):
        raise ValueError(
            f"intensity must be finite and >= 0, got {intensity!r}")
    return PolicySpec(kind="logit_response", intensity=float(intensity),
                      init_p=_check_prob("init_p", init_p),
                      init_q=_check_prob("init_q", init_q))


_POLICY_RE = re.compile(
    r"^(?:iid_mixed\(p=([^,]+),q=([^)]+)\)"
    r"|logit_response\(lambda=([^,]+),p0=([^,]+),q0=([^)]+)\))$")


def parse_policy(label: str) -> PolicySpec:
    """Inverse of PolicySpec.label()."""
    m = _POLICY_RE.match(label.strip())
    if not m:
        raise ParseError(f"unrecognized policy label {label!r}")
    try:
        if m.group(1) is not None:
            return mixed_policy(float(m.group(1)), float(m.group(2)))
        return logit_policy(float(m.group(3)), float(m.group(4)),
                            float(m.group(5)))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def kernel_parameters(policy: PolicySpec,
                      payoffs: PayoffMatrix) -> tuple[float, ...]:
    """Translate a policy into the kernel's probability table
    (px_init, px1, px0, py_init, py1, py0).

    i.i.d. play at (p, q) reads no history: its table is (p, p, p, q, q, q).
    Logit response probabilities are precomputed here so the kernel stays
    free of transcendental calls: px1 = sigmoid(lambda * (a11 - a21)) is
    X's chance of action 1 after seeing the opponent play 1, px0 the same
    after seeing 0, and symmetrically for Y with the b payoffs.
    """
    if policy.kind == "iid_mixed":
        return (policy.p,) * 3 + (policy.q,) * 3
    if policy.kind == "logit_response":
        lam = policy.intensity
        px1 = sigmoid(lam * (payoffs.a11 - payoffs.a21))
        px0 = sigmoid(lam * (payoffs.a12 - payoffs.a22))
        py1 = sigmoid(lam * (payoffs.b11 - payoffs.b12))
        py0 = sigmoid(lam * (payoffs.b21 - payoffs.b22))
        return policy.init_p, px1, px0, policy.init_q, py1, py0
    raise ValueError(f"unknown policy kind {policy.kind!r}")


@dataclass(frozen=True)
class SessionRecord:
    """One group's run, pinned to its seed and generating policy.

    `rounds` is the ordered per-round sequence of social states; this is
    the unit of serialization.  The record tallies them once, on
    construction: the tally is the check on n, on the round count and on
    every round's place on the lattice, and `distribution()` returns it.
    """

    treatment_id: int
    seed: int
    n: int
    rounds: tuple[tuple[int, int], ...]
    policy_id: str

    def __post_init__(self) -> None:
        # not a field, so equality, hash and fields() ignore it
        object.__setattr__(self, "_tally", tally(self.rounds, self.n))
        parse_policy(self.policy_id)  # a label the CSV reader can read back

    def distribution(self) -> LatticeDistribution:
        return self._tally


def run_session(treatment: Treatment, policy: PolicySpec | None = None,
                rounds: int | None = None, seed: int = 0,
                n: int = DEFAULT_POPULATION,
                matching: str = "uniform") -> SessionRecord:
    """Run one group.

    The policy defaults to i.i.d. mixing at the treatment's interior
    equilibrium; rounds default to the treatment's rounds_per_group.
    Identical arguments give bit-identical records on any host.
    """
    if policy is None:
        policy = nash_policy(treatment.payoffs)
    if rounds is None:
        rounds = treatment.rounds_per_group
    probs = kernel_parameters(policy, treatment.payoffs)
    if matching not in ("round_robin", "uniform"):
        raise ValueError("matching must be one of ['round_robin', 'uniform'], "
                         f"got {matching!r}")
    states = simulate_session(n, rounds, probs, seed,
                              matching == "round_robin")
    return SessionRecord(treatment_id=treatment.id, seed=seed, n=n,
                         rounds=tuple(states), policy_id=policy.label())


def run_ensemble(treatment: Treatment, policy: PolicySpec | None = None,
                 groups: int | None = None, rounds: int | None = None,
                 base_seed: int = 0, n: int = DEFAULT_POPULATION,
                 matching: str = "uniform") -> list[SessionRecord]:
    """Run independent groups with seeds derived from one base seed.

    Group g (0-based) uses the g-th splitmix64 output of base_seed, so the
    ensemble is reproducible and each group's record is independent of
    execution order.
    """
    if groups is None:
        groups = treatment.groups
    if groups < 1:
        raise ValueError(f"groups must be >= 1, got {groups}")
    return [run_session(treatment, policy, rounds, group_seed, n, matching)
            for group_seed in splitmix64_sequence(base_seed, groups)]

