"""Backend parity and RNG protocol checks for the simulation kernels.

The pure-Python kernel is the behavioral reference; the compiled kernel must
reproduce it bit for bit on every workload, not just in distribution.
"""

import os
import random
import subprocess
import sys

import pytest

from maxentgames import BACKEND
from maxentgames import _purecore
from maxentgames.kernels import simulate_session, splitmix64_sequence

try:
    from maxentgames import _fastcore
except ImportError:
    _fastcore = None

# only the tests that call or require the compiled kernel; the rest exercise
# the pure kernel and run whether or not the extension is built
needs_fastcore = pytest.mark.skipif(_fastcore is None,
                                    reason="compiled kernel not built")

SEEDS = [0, 1, 42, (1 << 63) + 12345]
IID = (1 / 11, 10 / 11)
# logit response with real state dependence on both sides
LOGIT = (0.5, 0.9, 0.2, 0.4, 0.7, 0.3)
WORKLOADS = [
    (0, IID, 0), (0, IID, 1),
    (1, LOGIT, 0), (1, LOGIT, 1),
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
    @pytest.mark.parametrize("mode,probs,matching", WORKLOADS)
    def test_bit_identical_counts_and_trajectory(self, seed, mode, probs,
                                                 matching):
        py = _purecore.simulate_session(4, 100, mode, probs, seed,
                                        matching, True)
        cc = _fastcore.simulate_session(4, 100, mode, probs, seed,
                                        matching, True)
        assert list(py[0]) == list(cc[0])
        assert [tuple(s) for s in py[1]] == [tuple(s) for s in cc[1]]

    @needs_fastcore
    def test_larger_population(self):
        py = _purecore.simulate_session(7, 60, 1, LOGIT, 9, 0, True)
        cc = _fastcore.simulate_session(7, 60, 1, LOGIT, 9, 0, True)
        assert list(py[0]) == list(cc[0])
        assert py[1] == [tuple(s) for s in cc[1]]

    @needs_fastcore
    def test_population_limit_message(self):
        errors = []
        for impl in (_purecore, _fastcore):
            with pytest.raises(ValueError) as info:
                impl.simulate_session(65, 10, 0, IID, 0, 0, False)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    @needs_fastcore
    def test_random_calls_bit_identical(self):
        # short sessions over every population class, both modes and
        # matchings, record on and off, edge probabilities (0, 1, as int and
        # float) and seeds that need reducing mod 2^64
        rng = random.Random(23)
        edge_probs = (0, 1, 0.0, 1.0)
        edge_seeds = (-1, -(1 << 70) - 3, 0, (1 << 64) - 1, 1 << 64,
                      (1 << 64) + 7, 3 << 80)
        for _ in range(600):
            mode = rng.randint(0, 1)
            probs = tuple(rng.choice(edge_probs) if rng.random() < 0.25
                          else rng.random() for _ in range(6 if mode else 2))
            seed = (rng.choice(edge_seeds) if rng.random() < 0.5
                    else rng.randint(-(1 << 80), 1 << 80))
            args = (rng.choice((1, 2, 3, 4, 8, 17, 64)), rng.randint(1, 12),
                    mode, probs, seed, rng.randint(0, 1), rng.random() < 0.5)
            assert (_fastcore.simulate_session(*args)
                    == _purecore.simulate_session(*args)), args

    def test_active_backend_label(self):
        assert BACKEND in ("c", "python")


class TestKernelBehavior:
    def test_deterministic(self):
        a = simulate_session(4, 200, 0, IID, 7, 0, True)
        b = simulate_session(4, 200, 0, IID, 7, 0, True)
        assert list(a[0]) == list(b[0]) and a[1] == b[1]

    def test_population_limit(self):
        with pytest.raises(ValueError, match="up to 64"):
            _purecore.simulate_session(65, 10, 0, IID, 0, 0, False)
        counts, _ = _purecore.simulate_session(64, 10, 0, IID, 0, 0, False)
        assert len(counts) == 65 * 65 and sum(counts) == 10

    def test_counts_sum_to_rounds(self):
        counts, _ = simulate_session(4, 321, 1, LOGIT, 3, 0, False)
        assert sum(counts) == 321

    def test_no_record_returns_none_trajectory(self):
        counts, traj = simulate_session(4, 10, 0, IID, 0, 0, False)
        assert traj is None
        assert len(counts) == 25

    def test_trajectory_tallies_to_counts(self):
        counts, traj = simulate_session(4, 500, 1, LOGIT, 11, 1, True)
        assert len(traj) == 500
        tallied = [0] * 25
        for (i, j) in traj:
            assert 0 <= i <= 4 and 0 <= j <= 4
            tallied[i * 5 + j] += 1
        assert tallied == list(counts)

    def test_flat_logit_equals_balanced_iid(self):
        # a response curve pinned at 0.5 everywhere consumes the action
        # stream identically to iid coin flips, so outputs match draw for draw
        flat = (0.5, 0.5, 0.5, 0.5, 0.5, 0.5)
        for seed in SEEDS:
            a = simulate_session(4, 150, 1, flat, seed, 0, True)
            b = simulate_session(4, 150, 0, (0.5, 0.5), seed, 0, True)
            assert list(a[0]) == list(b[0]) and a[1] == b[1]

    def test_iid_ignores_matching_scheme(self):
        # action draws never read the matching stream in iid mode
        for seed in SEEDS:
            uni = simulate_session(4, 150, 0, IID, seed, 0, True)
            rr = simulate_session(4, 150, 0, IID, seed, 1, True)
            assert list(uni[0]) == list(rr[0]) and uni[1] == rr[1]

    def test_logit_depends_on_matching_scheme(self):
        uni = simulate_session(4, 300, 1, LOGIT, 5, 0, False)
        rr = simulate_session(4, 300, 1, LOGIT, 5, 1, False)
        assert list(uni[0]) != list(rr[0])

    def test_seed_changes_output(self):
        a = simulate_session(4, 100, 0, IID, 0, 0, False)
        b = simulate_session(4, 100, 0, IID, 1, 0, False)
        assert list(a[0]) != list(b[0])

    def test_degenerate_probabilities(self):
        counts, traj = simulate_session(4, 10, 0, (1.0, 0.0), 0, 0, True)
        assert traj == [(4, 0)] * 10
        assert counts[4 * 5 + 0] == 10


# malformed calls: a short probability table in each mode, a long one, a
# list for a tuple, and a float for an integer argument
MALFORMED_CALLS = """
import maxentgames.kernels as k
calls = [
    (4, 10, k.MODE_LOGIT, (0.5, 0.5), 1),
    (4, 10, k.MODE_IID, (0.5,), 1),
    (4, 10, k.MODE_IID, (0.5, 0.5, 0.5), 1),
    (4, 10, k.MODE_IID, [0.5, 0.5], 1),
    (4.7, 10, k.MODE_IID, (0.5, 0.5), 1),
    (4, 10.0, k.MODE_IID, (0.5, 0.5), 1),
]
for args in calls:
    try:
        print("ok", k.simulate_session(*args)[0])
    except Exception as exc:
        print(type(exc).__name__, exc)
"""


# malformed direct kernel calls, bypassing kernels.simulate_session
DIRECT_CALLS = """
from maxentgames import {module} as impl
for mode, probs in ((1, (0.5, 0.5)), (0, (0.5,)), (0, (0.5, 0.5, 0.5)),
                    (2, (0.5, 0.5))):
    try:
        print("ok", impl.simulate_session(4, 10, mode, probs, 1)[0])
    except Exception as exc:
        print(type(exc).__name__, exc)
"""


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
                              capture_output=True, text=True, env=env)
        counts, _ = _purecore.simulate_session(4, 10, 0, (0.5, 0.5), 1)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == [
            "ValueError policy mode 1 takes 6 probabilities, got 2",
            "ValueError policy mode 0 takes 2 probabilities, got 1",
            "ValueError policy mode 0 takes 2 probabilities, got 3",
            f"ok {counts}",
            "TypeError 'float' object cannot be interpreted as an integer",
            "TypeError 'float' object cannot be interpreted as an integer",
        ]

    @pytest.mark.parametrize("module", [
        "_purecore", pytest.param("_fastcore", marks=needs_fastcore)])
    def test_direct_calls_check_the_table(self, module):
        proc = subprocess.run(
            [sys.executable, "-c", DIRECT_CALLS.format(module=module)],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == [
            "ValueError policy mode 1 takes 6 probabilities, got 2",
            "ValueError policy mode 0 takes 2 probabilities, got 1",
            "ValueError policy mode 0 takes 2 probabilities, got 3",
            "ValueError unknown policy mode 2",
        ]

    @needs_fastcore
    def test_compiled_kernel_takes_only_a_tuple(self):
        with pytest.raises(TypeError):
            _fastcore.simulate_session(4, 10, 0, [0.5, 0.5], 1)


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
