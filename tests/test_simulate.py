"""Session runners, agent policies, and the session record."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from maxentgames import (
    MeanObservation,
    ParseError,
    PolicySpec,
    SessionRecord,
    binomial_prediction,
    get_treatment,
    logit_policy,
    mixed_nash,
    mixed_policy,
    nash_policy,
    parse_policy,
    run_ensemble,
    run_session,
)
from maxentgames.kernels import splitmix64_sequence
from maxentgames.simulate import kernel_parameters, sigmoid


class TestPolicySpec:
    def test_mixed_label_round_trip(self):
        policy = mixed_policy(1 / 11, 10 / 11)
        assert parse_policy(policy.label()) == policy

    def test_logit_label_round_trip(self):
        policy = logit_policy(2.5, init_p=0.3, init_q=0.9)
        assert parse_policy(policy.label()) == policy

    @given(p=st.floats(min_value=0.0, max_value=1.0),
           q=st.floats(min_value=0.0, max_value=1.0))
    def test_round_trip_is_lossless(self, p, q):
        # labels carry full repr precision, so parsing is exact
        policy = mixed_policy(p, q)
        back = parse_policy(policy.label())
        assert back.p == p and back.q == q

    def test_mixed_rejects_bad_probability(self):
        with pytest.raises(ValueError,
                           match=r"^p must be in \[0, 1\], got 1\.2$"):
            mixed_policy(1.2, 0.5)
        with pytest.raises(ValueError,
                           match=r"^q must be in \[0, 1\], got -0\.1$"):
            mixed_policy(0.5, -0.1)

    def test_logit_rejects_bad_intensity(self):
        with pytest.raises(ValueError, match=r"^intensity must be finite "
                           r"and >= 0, got -1\.0$"):
            logit_policy(-1.0)
        with pytest.raises(ValueError, match=r"^intensity must be finite "
                           r"and >= 0, got inf$"):
            logit_policy(float("inf"))

    def test_logit_rejects_bad_initial_mix(self):
        with pytest.raises(ValueError,
                           match=r"^init_p must be in \[0, 1\], got 2\.0$"):
            logit_policy(1.0, init_p=2.0)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_policy("best_response(k=3)")
        with pytest.raises(ParseError):
            parse_policy("iid_mixed(p=1.5,q=0.5)")

    def test_nash_policy_uses_equilibrium(self):
        treatment = get_treatment(1)
        eq = mixed_nash(treatment.payoffs)
        policy = nash_policy(treatment.payoffs)
        assert policy.p == eq.p_star and policy.q == eq.q_star


class TestKernelParameters:
    def test_iid_passthrough(self):
        # i.i.d. play reads no history: each side's three entries agree
        probs = kernel_parameters(mixed_policy(0.2, 0.9), None)
        assert probs == (0.2, 0.2, 0.2, 0.9, 0.9, 0.9)

    def test_zero_intensity_is_uniform_random(self):
        payoffs = get_treatment(1).payoffs
        probs = kernel_parameters(logit_policy(0.0), payoffs)
        assert probs == (0.5, 0.5, 0.5, 0.5, 0.5, 0.5)

    def test_logit_response_values_treatment_one(self):
        # game 1: a11-a21 = 1, a12-a22 = -10, b11-b12 = -10, b21-b22 = 1
        payoffs = get_treatment(1).payoffs
        lam = 2.0
        probs = kernel_parameters(logit_policy(lam), payoffs)
        assert probs[0] == 0.5 and probs[3] == 0.5
        assert probs[1] == pytest.approx(sigmoid(lam * 1))
        assert probs[2] == pytest.approx(sigmoid(lam * -10))
        assert probs[4] == pytest.approx(sigmoid(lam * -10))
        assert probs[5] == pytest.approx(sigmoid(lam * 1))

    def test_large_intensity_approaches_best_response(self):
        payoffs = get_treatment(1).payoffs
        probs = kernel_parameters(logit_policy(50.0), payoffs)
        assert probs[1] == pytest.approx(1.0, abs=1e-12)
        assert probs[2] == pytest.approx(0.0, abs=1e-12)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(0.0) == 0.5

    def test_symmetry(self):
        assert sigmoid(3.7) + sigmoid(-3.7) == pytest.approx(1.0, abs=1e-15)

    def test_saturation_is_stable(self):
        assert sigmoid(1000.0) == 1.0
        assert sigmoid(-1000.0) == 0.0


class TestSessionRecord:
    def test_round_trip_views(self):
        record = SessionRecord(treatment_id=1, seed=5, n=4,
                               rounds=((1, 2), (1, 2), (0, 4)),
                               policy_id="iid_mixed(p=0.5,q=0.5)")
        assert len(record.rounds) == 3
        dist = record.distribution()
        assert dist.counts[1 * 5 + 2] == 2 and dist.counts[0 * 5 + 4] == 1
        assert parse_policy(record.policy_id) == mixed_policy(0.5, 0.5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="^a distribution needs at least "
                           "one observation$"):
            SessionRecord(treatment_id=1, seed=0, n=4, rounds=(),
                          policy_id="iid_mixed(p=0.5,q=0.5)")

    def test_rejects_out_of_range_state(self):
        with pytest.raises(ValueError,
                           match=r"^state \(5, 0\) outside lattice for n=4$"):
            SessionRecord(treatment_id=1, seed=0, n=4, rounds=((5, 0),),
                          policy_id="iid_mixed(p=0.5,q=0.5)")

    def test_rejects_empty_population(self):
        # (0, 0) is on the n = 0 "lattice", so only the n check catches it
        with pytest.raises(ValueError,
                           match="^population size must be positive, got 0$"):
            SessionRecord(treatment_id=1, seed=0, n=0, rounds=((0, 0),),
                          policy_id="iid_mixed(p=0.5,q=0.5)")

    def test_rejects_unreadable_policy_label(self):
        with pytest.raises(ParseError, match="unrecognized policy label"):
            SessionRecord(treatment_id=1, seed=0, n=4, rounds=((0, 0),),
                          policy_id="nonsense")


class TestRunSession:
    def test_defaults_from_treatment(self):
        treatment = get_treatment(1)
        record = run_session(treatment, seed=3)
        assert len(record.rounds) == treatment.rounds_per_group == 200
        assert record.treatment_id == 1
        eq = mixed_nash(treatment.payoffs)
        assert parse_policy(record.policy_id) == PolicySpec(
            kind="iid_mixed", p=eq.p_star, q=eq.q_star)

    def test_deterministic(self):
        treatment = get_treatment(4)
        a = run_session(treatment, seed=99)
        b = run_session(treatment, seed=99)
        assert a == b

    def test_rejects_nonpositive_rounds(self):
        with pytest.raises(ValueError, match="^rounds must be >= 1$"):
            run_session(get_treatment(1), rounds=0)

    def test_rejects_unknown_matching(self):
        with pytest.raises(ValueError):
            run_session(get_treatment(1), matching="swiss")

    def test_degenerate_policy_pins_state(self):
        record = run_session(get_treatment(1), policy=mixed_policy(1.0, 0.0),
                             rounds=10, seed=0)
        assert record.rounds == ((4, 0),) * 10


class TestRunEnsemble:
    def test_seeds_derived_from_base(self):
        treatment = get_treatment(2)
        records = run_ensemble(treatment, groups=5, rounds=50, base_seed=77)
        assert [r.seed for r in records] == splitmix64_sequence(77, 5)

    def test_single_group_matches_run_session(self):
        treatment = get_treatment(2)
        (record,) = run_ensemble(treatment, groups=1, rounds=50, base_seed=77)
        derived = splitmix64_sequence(77, 1)[0]
        assert record == run_session(treatment, rounds=50, seed=derived)

    def test_groups_independent_of_ensemble_size(self):
        # first k groups of a larger ensemble are the smaller ensemble
        treatment = get_treatment(3)
        small = run_ensemble(treatment, groups=3, rounds=40, base_seed=5)
        large = run_ensemble(treatment, groups=6, rounds=40, base_seed=5)
        assert large[:3] == small

    def test_default_group_count(self):
        treatment = get_treatment(1)
        records = run_ensemble(treatment, rounds=5)
        assert len(records) == treatment.groups

    def test_rejects_nonpositive_groups(self):
        with pytest.raises(ValueError, match="^groups must be >= 1, got 0$"):
            run_ensemble(get_treatment(1), groups=0, rounds=5)


class TestSamplingDistribution:
    def test_nash_session_mean_near_equilibrium(self):
        # 2400 rounds of iid play at game 1's equilibrium: each side's mean
        # stays within 3 standard errors (4n draws per round, 9600 total)
        treatment = get_treatment(1)
        eq = mixed_nash(treatment.payoffs)
        record = run_session(treatment, rounds=2400, seed=42)
        dist = record.distribution()
        mean_p = sum(i for i, _ in record.rounds) / (4 * len(record.rounds))
        mean_q = sum(j for _, j in record.rounds) / (4 * len(record.rounds))
        se_p = math.sqrt(eq.p_star * (1 - eq.p_star) / 9600)
        se_q = math.sqrt(eq.q_star * (1 - eq.q_star) / 9600)
        assert abs(mean_p - eq.p_star) <= 3 * se_p
        assert abs(mean_q - eq.q_star) <= 3 * se_q
        assert dist.total == 2400

    def test_iid_pooled_frequencies_match_binomial_product(self):
        # 100k rounds at (0.3, 0.6): empirical cell frequencies converge on
        # the product-binomial law (sup-norm well under 0.02 at this size)
        policy = mixed_policy(0.3, 0.6)
        dist = run_session(get_treatment(1), policy, rounds=100_000,
                           seed=7).distribution()
        prediction = binomial_prediction(MeanObservation(0.3, 0.6), 4)
        gap = max(abs(d - e) for d, e in zip(dist.densities,
                                             prediction.densities))
        assert gap <= 0.02

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 63))
    def test_matching_scheme_irrelevant_for_iid(self, seed):
        treatment = get_treatment(5)
        uni = run_session(treatment, rounds=30, seed=seed, matching="uniform")
        rr = run_session(treatment, rounds=30, seed=seed,
                         matching="round_robin")
        assert uni.rounds == rr.rounds
