"""Backend parity and RNG protocol checks for the simulation kernels.

The pure-Python kernel is the behavioral reference; the compiled kernel must
reproduce it bit for bit on every workload, not just in distribution.
"""

import os
import random
import resource
import subprocess
import sys

import pytest

from maxentgames import BACKEND
from maxentgames import _purecore
from maxentgames.kernels import simulate_session, splitmix64_sequence
from maxentgames.lattice import tally

try:
    from maxentgames import _fastcore
except ImportError:
    _fastcore = None

# only the tests that call or require the compiled kernel; the rest exercise
# the pure kernel and run whether or not the extension is built
needs_fastcore = pytest.mark.skipif(_fastcore is None,
                                    reason="compiled kernel not built")
KERNELS = [pytest.param(_purecore, id="python"),
           pytest.param(_fastcore, marks=needs_fastcore, id="c")]

SEEDS = [0, 1, 42, (1 << 63) + 12345]
# i.i.d. play at game 1's equilibrium: a table that reads no history
IID = (1 / 11,) * 3 + (10 / 11,) * 3
# logit response with real state dependence on both sides
LOGIT = (0.5, 0.9, 0.2, 0.4, 0.7, 0.3)
# ids "<reads history>-probs<row>-<round robin>"
WORKLOADS = [
    pytest.param(IID, False, id="0-probs0-0"),
    pytest.param(IID, True, id="0-probs1-1"),
    pytest.param(LOGIT, False, id="1-probs2-0"),
    pytest.param(LOGIT, True, id="1-probs3-1"),
]


class TestSplitmix:
    def test_reference_vector_seed_zero(self):
        # first three outputs of splitmix64 at seed 0 (widely published)
        assert splitmix64_sequence(0, 3) == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_prefix_property(self):
        assert splitmix64_sequence(987, 10)[:4] == splitmix64_sequence(987, 4)

    def test_wraps_at_64_bits(self):
        assert splitmix64_sequence(2 ** 64, 2) == splitmix64_sequence(0, 2)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            splitmix64_sequence(0, -1)


class TestBackendParity:
    @needs_fastcore
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("probs,round_robin", WORKLOADS)
    def test_bit_identical_counts_and_trajectory(self, seed, probs,
                                                 round_robin):
        # the round sequence is the whole output; the counts are its tally
        assert (_fastcore.simulate_session(4, 100, probs, seed, round_robin)
                == _purecore.simulate_session(4, 100, probs, seed,
                                              round_robin))

    @needs_fastcore
    def test_larger_population(self):
        assert (_fastcore.simulate_session(7, 60, LOGIT, 9)
                == _purecore.simulate_session(7, 60, LOGIT, 9))

    @needs_fastcore
    def test_population_limit_message(self):
        errors = []
        for impl in (_purecore, _fastcore):
            with pytest.raises(ValueError) as info:
                impl.simulate_session(65, 10, IID, 0)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    @needs_fastcore
    def test_random_calls_bit_identical(self):
        # short sessions over every population class, tables that read
        # history and (a quarter of them) tables that do not, both
        # matchings with round_robin given as any value (it is read by
        # truth value), edge probabilities (0, 1, as int and float) and
        # seeds that need reducing mod 2^64
        rng = random.Random(23)
        edge_probs = (0, 1, 0.0, 1.0)
        edge_seeds = (-1, -(1 << 70) - 3, 0, (1 << 64) - 1, 1 << 64,
                      (1 << 64) + 7, 3 << 80)
        round_robins = (False, True, 0, 1, 2 ** 40, -1)
        for _ in range(600):
            probs = tuple(rng.choice(edge_probs) if rng.random() < 0.25
                          else rng.random() for _ in range(6))
            if rng.random() < 0.25:
                probs = (probs[0],) * 3 + (probs[3],) * 3
            seed = (rng.choice(edge_seeds) if rng.random() < 0.5
                    else rng.randint(-(1 << 80), 1 << 80))
            args = (rng.choice((1, 2, 3, 4, 8, 17, 64)), rng.randint(1, 12),
                    probs, seed, rng.choice(round_robins))
            assert (_fastcore.simulate_session(*args)
                    == _purecore.simulate_session(*args)), args

    def test_active_backend_label(self):
        assert BACKEND in ("c", "python")


class TestKernelBehavior:
    def test_deterministic(self):
        assert simulate_session(4, 200, IID, 7) == simulate_session(4, 200,
                                                                    IID, 7)

    def test_population_limit(self):
        with pytest.raises(ValueError, match="up to 64"):
            _purecore.simulate_session(65, 10, IID, 0)
        states = _purecore.simulate_session(64, 10, IID, 0)
        assert sum(tally(states, 64).counts) == 10

    def test_counts_sum_to_rounds(self):
        states = simulate_session(4, 321, LOGIT, 3)
        assert sum(tally(states, 4).counts) == 321

    def test_trajectory_tallies_to_counts(self):
        # tally rejects a state off the lattice
        traj = simulate_session(4, 500, LOGIT, 11, True)
        assert sum(tally(traj, 4).counts) == 500

    def test_flat_logit_equals_balanced_iid(self):
        # X's half of both tables is pinned at 0.5, as balanced iid coin
        # flips are, but only the second table draws a matching (its Y half
        # reads history); the matching has its own stream, so X's counts
        # agree draw for draw
        balanced = (0.5,) * 6
        y_reads_history = (0.5, 0.5, 0.5, 0.5, 0.9, 0.1)
        for seed in SEEDS:
            a = simulate_session(4, 150, balanced, seed)
            b = simulate_session(4, 150, y_reads_history, seed)
            assert [i for i, _ in a] == [i for i, _ in b]
            assert a != b

    @pytest.mark.parametrize("round_robin", [False, True])
    @pytest.mark.parametrize("impl", KERNELS)
    def test_history_free_only_when_all_three_entries_agree(self, impl,
                                                             round_robin):
        # px1 == px0 and py1 == py0, but round 0 plays the _init entries,
        # and every later round plays 1 only because the matching showed
        # each agent a 0 and then a 1
        n, rounds = 4, 12
        assert (impl.simulate_session(n, rounds, (0, 1, 1, 0, 1, 1), 5,
                                      round_robin)
                == [(0, 0)] + [(n, n)] * (rounds - 1))

    @pytest.mark.parametrize("impl", KERNELS)
    def test_round_robin_read_by_truth_value(self, impl):
        uniform = impl.simulate_session(4, 100, LOGIT, 5)
        rr = impl.simulate_session(4, 100, LOGIT, 5, True)
        assert uniform != rr
        assert impl.simulate_session(4, 100, LOGIT, 5, 0) == uniform
        for value in (1, 2 ** 40, -1):
            assert impl.simulate_session(4, 100, LOGIT, 5, value) == rr

    def test_iid_ignores_matching_scheme(self):
        # a table that reads no history never draws the matching
        for seed in SEEDS:
            assert (simulate_session(4, 150, IID, seed, False)
                    == simulate_session(4, 150, IID, seed, True))

    def test_logit_depends_on_matching_scheme(self):
        assert (simulate_session(4, 300, LOGIT, 5, False)
                != simulate_session(4, 300, LOGIT, 5, True))

    def test_seed_changes_output(self):
        assert simulate_session(4, 100, IID, 0) != simulate_session(4, 100,
                                                                    IID, 1)

    def test_degenerate_probabilities(self):
        assert (simulate_session(4, 10, (1.0,) * 3 + (0.0,) * 3, 0)
                == [(4, 0)] * 10)


# malformed calls: a short probability table, a long one, a list for a
# tuple, and a float for an integer argument
# integer arguments out of range or not integers at all: each must fail in
# the argument checks, before a state is drawn or a list allocated
BAD_INTEGER_CALLS = """
    (2**40, 10, (0.5,) * 6, 1),
    (2**64, 10, (0.5,) * 6, 1),
    (-2**64, 10, (0.5,) * 6, 1),
    (4, 2**31, (0.5,) * 6, 1),
    (4, 2**40, (0.5,) * 6, 1),
    (4, -2**70, (0.5,) * 6, 1),
    (4, 10, (0.5,) * 6, 1.5),
    (4, 10, (0.5,) * 6, 'x'),
    (4.0, 10, (0.5,) * 6, 1),
    (4, 4.0, (0.5,) * 6, 1),
"""
BAD_INTEGER_ERRORS = [
    "ValueError compiled kernel supports populations up to 64",
    "ValueError compiled kernel supports populations up to 64",
    "ValueError population size must be >= 1",
    "ValueError rounds must be at most 2147483647",
    "ValueError rounds must be at most 2147483647",
    "ValueError rounds must be >= 1",
    "TypeError 'float' object cannot be interpreted as an integer",
    "TypeError 'str' object cannot be interpreted as an integer",
    "TypeError 'float' object cannot be interpreted as an integer",
    "TypeError 'float' object cannot be interpreted as an integer",
]

MALFORMED_CALLS = """
import maxentgames.kernels as k
calls = [
    (4, 10, (0.5, 0.5), 1),
    (4, 10, (0.5,) * 7, 1),
    (4, 10, [0.5] * 6, 1),
    (4.7, 10, (0.5,) * 6, 1),
    (4, 10.0, (0.5,) * 6, 1),
""" + BAD_INTEGER_CALLS + """
]
for args in calls:
    try:
        print("ok", k.simulate_session(*args))
    except Exception as exc:
        print(type(exc).__name__, exc)
"""


# malformed direct kernel calls, bypassing kernels.simulate_session
DIRECT_CALLS = """
from maxentgames import {module} as impl
calls = [(4, 10, probs, 1) for probs in ((0.5, 0.5), (0.5,), (0.5,) * 7, ())]
calls += [
""" + BAD_INTEGER_CALLS + """
]
for args in calls:
    try:
        print("ok", impl.simulate_session(*args))
    except Exception as exc:
        print(type(exc).__name__, exc)
"""


def _limit_memory():
    """Cap a child's address space at 1 GiB, so a kernel that ran a bad
    call instead of refusing it fails fast rather than filling memory."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestCheckedEntryPoint:
    """A malformed call gives the same result or the same error on both
    kernels, through `kernels.simulate_session` or directly.  Each backend
    runs in its own process, so a kernel that read past its probability
    table would fail this test rather than end the test run."""

    @pytest.mark.parametrize("backend", [
        "python", pytest.param("c", marks=needs_fastcore)])
    def test_malformed_calls_fail_alike(self, backend):
        env = dict(os.environ, MAXENTGAMES_BACKEND=backend)
        proc = subprocess.run([sys.executable, "-c", MALFORMED_CALLS],
                              capture_output=True, text=True, env=env,
                              timeout=120, preexec_fn=_limit_memory)
        states = _purecore.simulate_session(4, 10, (0.5,) * 6, 1)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == [
            "ValueError the probability table takes 6 entries, got 2",
            "ValueError the probability table takes 6 entries, got 7",
            f"ok {states}",
            "TypeError 'float' object cannot be interpreted as an integer",
            "TypeError 'float' object cannot be interpreted as an integer",
        ] + BAD_INTEGER_ERRORS

    @pytest.mark.parametrize("module", [
        "_purecore", pytest.param("_fastcore", marks=needs_fastcore)])
    def test_direct_calls_check_the_table(self, module):
        proc = subprocess.run(
            [sys.executable, "-c", DIRECT_CALLS.format(module=module)],
            capture_output=True, text=True, timeout=120,
            preexec_fn=_limit_memory)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == [
            "ValueError the probability table takes 6 entries, got 2",
            "ValueError the probability table takes 6 entries, got 1",
            "ValueError the probability table takes 6 entries, got 7",
            "ValueError the probability table takes 6 entries, got 0",
        ] + BAD_INTEGER_ERRORS

    @needs_fastcore
    def test_compiled_kernel_takes_only_a_tuple(self):
        with pytest.raises(TypeError):
            _fastcore.simulate_session(4, 10, [0.5] * 6, 1)


class TestBackendOverride:
    def _run(self, env_value):
        env = dict(os.environ)
        if env_value is None:
            env.pop("MAXENTGAMES_BACKEND", None)
        else:
            env["MAXENTGAMES_BACKEND"] = env_value
        return subprocess.run(
            [sys.executable, "-c",
             "import maxentgames; print(maxentgames.BACKEND)"],
            capture_output=True, text=True, env=env)

    def test_force_python(self):
        proc = self._run("python")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "python"

    @needs_fastcore
    def test_force_c(self):
        proc = self._run("c")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "c"

    @needs_fastcore
    def test_default_prefers_compiled(self):
        proc = self._run(None)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "c"

    def test_invalid_value_rejected(self):
        proc = self._run("fortran")
        assert proc.returncode != 0
        assert "MAXENTGAMES_BACKEND" in proc.stderr
