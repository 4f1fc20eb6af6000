"""Exact Markov-chain analysis tests, including engine validation.

These tests are the strongest correctness evidence in the suite: the
simulation engines' measured convergence times and error probabilities
are compared against *exact* absorption quantities computed from the
configuration chain.
"""

import math

import numpy as np
import pytest

from repro import (
    AVCProtocol,
    FourStateProtocol,
    RunSpec,
    ThreeStateProtocol,
    VoterProtocol,
    run_trials,
)
from repro.analysis.markov import ConfigurationChain
from repro.errors import InvalidParameterError
from repro.sim import AgentEngine, CountEngine, NullSkippingEngine, kernels
from repro.rng import spawn_many


class TestChainConstruction:
    def test_reachable_count_small_system(self):
        protocol = ThreeStateProtocol()
        chain = ConfigurationChain(protocol, {"A": 2, "B": 1})
        # Configurations over 3 states summing to 3: at most C(5,2)=10.
        assert 2 <= chain.num_configurations <= 10
        assert chain.settled.sum() >= 2  # all-A and all-B reachable

    def test_initial_settled_short_circuit(self):
        protocol = ThreeStateProtocol()
        chain = ConfigurationChain(protocol, {"A": 3})
        assert chain.expected_settling_time() == 0.0
        assert chain.settlement_probabilities() == {1: 1.0}

    def test_tiny_population_rejected(self):
        with pytest.raises(InvalidParameterError):
            ConfigurationChain(ThreeStateProtocol(), {"A": 1})


class TestExactQuantities:
    def test_voter_exact_error_probability(self):
        """[HP99]: P(wrong consensus) equals the minority fraction."""
        protocol = VoterProtocol()
        chain = ConfigurationChain(protocol, {"A": 7, "B": 3})
        probabilities = chain.settlement_probabilities()
        assert probabilities[1] == pytest.approx(0.7, abs=1e-9)
        assert probabilities[0] == pytest.approx(0.3, abs=1e-9)

    def test_voter_expected_time_known_formula(self):
        """Two-agent voter: settles after the first interaction."""
        protocol = VoterProtocol()
        chain = ConfigurationChain(protocol, {"A": 1, "B": 1})
        assert chain.expected_settling_time() == pytest.approx(1.0)

    def test_four_state_never_wrong(self):
        protocol = FourStateProtocol()
        chain = ConfigurationChain(protocol, {"+1": 4, "-1": 2})
        probabilities = chain.settlement_probabilities()
        assert probabilities[1] == pytest.approx(1.0)
        assert probabilities.get(0, 0.0) == 0.0

    def test_four_state_tie_deadlocks(self):
        protocol = FourStateProtocol()
        chain = ConfigurationChain(protocol, {"+1": 2, "-1": 2})
        assert chain.expected_settling_time() == math.inf
        probabilities = chain.settlement_probabilities()
        assert probabilities[None] == pytest.approx(1.0)

    def test_avc_never_wrong_exact(self):
        protocol = AVCProtocol(m=3, d=1)
        chain = ConfigurationChain(
            protocol, protocol.initial_counts(3, 2))
        probabilities = chain.settlement_probabilities()
        assert probabilities[1] == pytest.approx(1.0)

    def test_three_state_error_probability_positive(self):
        protocol = ThreeStateProtocol()
        chain = ConfigurationChain(protocol, {"A": 3, "B": 2})
        probabilities = chain.settlement_probabilities()
        assert probabilities[1] + probabilities[0] == pytest.approx(1.0)
        assert 0.0 < probabilities[0] < 0.5  # wrong but not even odds

    def test_summary_bundle(self):
        protocol = ThreeStateProtocol()
        summary = ConfigurationChain(protocol, {"A": 3, "B": 1}).summary()
        assert summary.expected_settling_time_parallel \
            == summary.expected_settling_time_steps / 4
        assert summary.num_reachable >= summary.num_settled
        assert summary.num_frozen_unsettled == 0


class TestEnginesAgainstExactChain:
    """Monte-Carlo estimates must match exact absorption quantities."""

    TRIALS = 400

    def _mean_and_error_rate(self, engine, protocol, counts, seed):
        times, wrong = [], 0
        for child in spawn_many(seed, self.TRIALS):
            result = engine.run(counts, rng=child)
            assert result.settled
            times.append(result.steps)
            if result.decision == 0:
                wrong += 1
        return (sum(times) / len(times)), wrong / self.TRIALS

    @pytest.mark.parametrize("engine_class", [AgentEngine, CountEngine,
                                              NullSkippingEngine])
    def test_three_state_engines_match_exact(self, engine_class):
        protocol = ThreeStateProtocol()
        counts = {"A": 4, "B": 2}
        chain = ConfigurationChain(protocol, counts)
        exact_steps = chain.expected_settling_time()
        exact_error = chain.settlement_probabilities()[0]
        mean_steps, error_rate = self._mean_and_error_rate(
            engine_class(protocol), protocol, counts, seed=50)
        # 400 trials: expect the mean within ~15% and the error rate
        # within ~6 points (binomial noise).
        assert mean_steps == pytest.approx(exact_steps, rel=0.15)
        assert error_rate == pytest.approx(exact_error, abs=0.06)

    def test_avc_engine_matches_exact_expected_time(self):
        protocol = AVCProtocol(m=3, d=1)
        counts = protocol.initial_counts(3, 2)
        chain = ConfigurationChain(protocol, counts)
        exact_steps = chain.expected_settling_time()
        mean_steps, error_rate = self._mean_and_error_rate(
            CountEngine(protocol), protocol, counts, seed=60)
        assert error_rate == 0.0
        assert mean_steps == pytest.approx(exact_steps, rel=0.15)


def ks_on_integers(samples, cdf):
    """One-sample KS statistic and p-value against a law on the integers.

    Both the empirical and the exact CDF are step functions that jump
    only at integers, so the supremum of their gap is attained at a
    sample point ``x`` or just before it, at ``x - 1``.  The continuous
    Kolmogorov law then gives a conservative p-value.
    """
    from scipy.stats import kstwo

    x = np.sort(np.asarray(samples))
    size = len(x)
    at = np.searchsorted(x, x, side="right") / size
    before = np.searchsorted(x, x - 1, side="right") / size
    statistic = max(np.abs(at - cdf(x)).max(),
                    np.abs(before - cdf(x - 1)).max())
    return statistic, kstwo.sf(statistic, size)


class TestSettlingStepLaw:
    """The exact settling-step distribution, and every exact engine
    against it (null skipping through both of its loops)."""

    TRIALS = 2000
    STARTS = {
        "avc-s4": (lambda: AVCProtocol.with_num_states(4), 7, 5),
        "four-state": (FourStateProtocol, 6, 5),
    }

    def test_cdf_mean_is_expected_settling_time(self):
        protocol = AVCProtocol(m=3, d=1)
        chain = ConfigurationChain(protocol, protocol.initial_counts(3, 2))
        cdf = chain.settling_step_cdf(np.arange(4000))
        assert np.all(np.diff(cdf) >= 0) and cdf[0] == 0.0
        assert chain.settling_step_cdf(-1) == 0.0
        assert float(np.sum(1.0 - cdf)) == pytest.approx(
            chain.expected_settling_time(), rel=1e-9)

    def test_cdf_edge_cases(self):
        protocol = FourStateProtocol()
        settled = ConfigurationChain(protocol, protocol.initial_counts(4, 0))
        assert settled.settling_step_cdf(0) == 1.0
        # A tie can deadlock: the CDF tops out at the settling chance.
        tie = ConfigurationChain(protocol, protocol.initial_counts(3, 3))
        never = tie.settlement_probabilities().get(None, 0.0)
        assert never > 0
        assert tie.settling_step_cdf(10_000) == pytest.approx(1 - never)

    @pytest.mark.parametrize("compiled", [True, False],
                             ids=["compiled", "python"])
    @pytest.mark.parametrize("start", STARTS)
    def test_null_skipping_steps_follow_exact_law(self, start, compiled,
                                                  monkeypatch):
        if compiled and kernels.default_backend() is None:
            pytest.skip("no usable kernel backend on this host")
        if not compiled:
            monkeypatch.setattr(kernels, "default_backend", lambda: None)
        factory, count_a, count_b = self.STARTS[start]
        protocol = factory()
        counts = protocol.initial_counts(count_a, count_b)
        chain = ConfigurationChain(protocol, counts)
        engine = NullSkippingEngine(protocol)
        rng = np.random.default_rng(11)
        steps = [engine.run(counts, rng=rng).steps
                 for _ in range(self.TRIALS)]
        _, p_value = ks_on_integers(steps, chain.settling_step_cdf)
        assert p_value > 0.01
        # Power: the same sample is far off the law of a wider margin.
        wider = ConfigurationChain(
            protocol, protocol.initial_counts(count_a + 1, count_b - 1))
        _, p_wider = ks_on_integers(steps, wider.settling_step_cdf)
        assert p_wider < 1e-6

    @pytest.mark.parametrize("engine", [
        "count", "count-jit", "agent", "ensemble", "count-ensemble",
        "count-ensemble-jit"])
    @pytest.mark.parametrize("start", STARTS)
    def test_exact_engines_steps_follow_exact_law(self, start, engine):
        # 2000 trials span 16 chunks of 128, so the ensembles' chunk
        # boundaries and the count ensemble's settle replay are covered.
        if engine.endswith("-jit") and kernels.default_backend() is None:
            pytest.skip("no usable kernel backend on this host")
        factory, count_a, count_b = self.STARTS[start]
        protocol = factory()
        chain = ConfigurationChain(
            protocol, protocol.initial_counts(count_a, count_b))
        results = run_trials(RunSpec(protocol, count_a=count_a,
                                     count_b=count_b,
                                     num_trials=self.TRIALS, seed=11,
                                     engine=engine))
        _, p_value = ks_on_integers([r.steps for r in results],
                                    chain.settling_step_cdf)
        assert p_value > 0.01
