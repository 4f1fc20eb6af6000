"""Tests for the high-level run API (RunSpec front door)."""

import networkx as nx
import pytest

from repro import (
    AVCProtocol,
    FourStateProtocol,
    InvalidParameterError,
    RunSpec,
    ThreeStateProtocol,
    run,
    run_majority,
    run_trials,
    simulate,
)
from repro.sim import TrialStats
from repro.sim.agent_engine import AgentEngine
from repro.sim.count_engine import CountEngine
from repro.sim.gillespie import NullSkippingEngine
from repro.sim.run import make_engine


class TestMakeEngine:
    def test_auto_small_state_space(self):
        engine = make_engine(FourStateProtocol(), "auto")
        assert isinstance(engine, NullSkippingEngine)

    def test_auto_large_state_space(self):
        engine = make_engine(AVCProtocol.with_num_states(66), "auto")
        assert isinstance(engine, CountEngine)

    def test_auto_with_graph(self):
        engine = make_engine(ThreeStateProtocol(), "auto",
                             graph=nx.path_graph(5))
        assert isinstance(engine, AgentEngine)

    def test_graph_incompatible_with_count_engine(self):
        with pytest.raises(InvalidParameterError):
            make_engine(ThreeStateProtocol(), "count",
                        graph=nx.path_graph(5))

    def test_engine_instance_passthrough(self):
        engine = CountEngine(ThreeStateProtocol())
        assert make_engine(ThreeStateProtocol(), engine) is engine

    def test_unknown_engine_name(self):
        with pytest.raises(InvalidParameterError):
            make_engine(ThreeStateProtocol(), "warp-drive")

    @pytest.mark.parametrize("name", ["agent", "count", "null-skipping",
                                      "continuous-time"])
    def test_every_name_constructs(self, name):
        assert make_engine(FourStateProtocol(), name) is not None


class TestRunSpecValidation:
    def test_mutually_exclusive_input_forms(self):
        with pytest.raises(InvalidParameterError):
            RunSpec(FourStateProtocol(), n=10, epsilon=0.2,
                    count_a=5, count_b=5)
        with pytest.raises(InvalidParameterError):
            RunSpec(FourStateProtocol())

    def test_partial_margin_form_rejected(self):
        with pytest.raises(InvalidParameterError):
            RunSpec(FourStateProtocol(), n=10)

    def test_partial_counts_form_rejected(self):
        with pytest.raises(InvalidParameterError):
            RunSpec(FourStateProtocol(), count_a=10)

    def test_non_majority_protocol_rejected(self):
        with pytest.raises(InvalidParameterError):
            RunSpec(object(), n=10, epsilon=0.2)

    def test_zero_trials_rejected(self):
        with pytest.raises(InvalidParameterError):
            RunSpec(FourStateProtocol(), num_trials=0, n=11,
                    epsilon=1 / 11)

    def test_expected_requires_explicit_initial(self):
        with pytest.raises(InvalidParameterError):
            RunSpec(FourStateProtocol(), n=11, epsilon=1 / 11, expected=1)

    def test_bad_timeout_policy_rejected(self):
        with pytest.raises(InvalidParameterError):
            RunSpec(FourStateProtocol(), n=11, epsilon=1 / 11,
                    on_timeout="explode")

    def test_replace_revalidates(self):
        spec = RunSpec(FourStateProtocol(), n=11, epsilon=1 / 11)
        with pytest.raises(InvalidParameterError):
            spec.replace(num_trials=0)

    def test_replace_builds_new_spec(self):
        spec = RunSpec(FourStateProtocol(), n=11, epsilon=1 / 11, seed=0)
        other = spec.replace(seed=1)
        assert other.seed == 1 and spec.seed == 0
        assert other.n == spec.n

    def test_resolved_input_is_cached(self):
        spec = RunSpec(FourStateProtocol(), n=51, epsilon=3 / 51)
        initial, expected = spec.resolve_input()
        again, _ = spec.resolve_input()
        assert again is initial
        assert sum(initial.values()) == 51
        assert expected == 1


class TestRunMajority:
    def test_margin_form(self):
        result = run_majority(RunSpec(FourStateProtocol(), n=51,
                                      epsilon=3 / 51, seed=0))
        assert result.settled and result.correct

    def test_counts_form(self):
        result = run_majority(RunSpec(FourStateProtocol(), count_a=10,
                                      count_b=20, seed=0))
        assert result.expected == 0
        assert result.settled and result.decision == 0

    def test_tie_has_no_expected_output(self):
        result = run_majority(RunSpec(ThreeStateProtocol(), count_a=10,
                                      count_b=10, seed=0))
        assert result.expected is None
        assert result.correct is None

    def test_majority_b(self):
        result = run_majority(RunSpec(FourStateProtocol(), n=51,
                                      epsilon=3 / 51, majority="B",
                                      seed=0))
        assert result.expected == 0
        assert result.decision == 0

    def test_spec_with_extra_kwargs_rejected(self):
        spec = RunSpec(FourStateProtocol(), n=11, epsilon=1 / 11)
        with pytest.raises(InvalidParameterError):
            run_majority(spec, seed=1)

    def test_multi_trial_spec_rejected(self):
        spec = RunSpec(FourStateProtocol(), n=11, epsilon=1 / 11,
                       num_trials=3)
        with pytest.raises(InvalidParameterError):
            run_majority(spec)


class TestRunGeneric:
    def test_run_with_explicit_counts(self):
        protocol = ThreeStateProtocol()
        result = run(RunSpec(protocol, initial={"A": 5, "B": 2, "_": 3},
                             seed=1))
        assert result.settled
        assert result.n == 10

    def test_run_on_graph(self):
        protocol = ThreeStateProtocol()
        result = run(RunSpec(protocol, initial={"A": 8, "B": 2},
                             graph=nx.cycle_graph(10), seed=1))
        assert result.settled


class TestRunTrials:
    def test_returns_result_list(self):
        results = run_trials(RunSpec(FourStateProtocol(), num_trials=5,
                                     seed=0, n=21, epsilon=1 / 21))
        assert len(results) == 5
        assert all(r.settled and r.correct for r in results)

    def test_stats_aggregation(self):
        stats = run_trials(RunSpec(FourStateProtocol(), num_trials=5,
                                   seed=0, n=21, epsilon=1 / 21),
                           stats=True)
        assert isinstance(stats, TrialStats)
        assert stats.num_trials == 5
        assert stats.num_settled == 5
        assert stats.error_fraction == 0.0
        assert stats.mean_parallel_time > 0

    def test_trials_are_independent_but_reproducible(self):
        spec = RunSpec(ThreeStateProtocol(), num_trials=4, seed=3,
                       n=31, epsilon=1 / 31)
        first = run_trials(spec)
        second = run_trials(spec)
        assert [r.steps for r in first] == [r.steps for r in second]
        # Different trials should not all behave identically.
        assert len({r.steps for r in first}) > 1

    def test_simulate_is_the_same_door(self):
        spec = RunSpec(ThreeStateProtocol(), num_trials=4, seed=3,
                       n=31, epsilon=1 / 31)
        assert [r.steps for r in simulate(spec)] \
            == [r.steps for r in run_trials(spec)]
