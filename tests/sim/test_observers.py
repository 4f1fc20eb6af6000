"""Tests for per-interaction observers and the AVC rule census."""

import pytest

from repro import AVCProtocol, FourStateProtocol, RunSpec, run_majority
from repro.sim import AgentEngine, CountEngine, NullSkippingEngine
from repro.sim.observers import RuleCensus, avc_rule_classifier


class TestObserverPlumbing:
    @pytest.mark.parametrize("engine_class",
                             [AgentEngine, CountEngine,
                              NullSkippingEngine])
    def test_observer_sees_every_productive_step(self, engine_class):
        protocol = FourStateProtocol()
        events = []
        engine = engine_class(protocol)
        result = engine.run(
            protocol.initial_counts(20, 10), rng=1,
            event_observer=lambda *e: events.append(e))
        assert len(events) == result.productive_steps
        s = protocol.num_states
        for i, j, new_i, new_j in events:
            assert all(0 <= k < s for k in (i, j, new_i, new_j))
            assert (new_i, new_j) != (i, j)

    def test_multiple_observers(self):
        protocol = FourStateProtocol()
        first, second = [], []
        CountEngine(protocol).run(
            protocol.initial_counts(10, 5), rng=2,
            event_observer=[lambda *e: first.append(e),
                            lambda *e: second.append(e)])
        assert first and first == second

    def test_observed_run_matches_unobserved(self):
        """Observation must not perturb the dynamics."""
        protocol = FourStateProtocol()
        engine = CountEngine(protocol)
        plain = engine.run(protocol.initial_counts(25, 15), rng=4)
        observed = engine.run(protocol.initial_counts(25, 15), rng=4,
                              event_observer=lambda *e: None)
        assert plain.steps == observed.steps
        assert plain.final_counts == observed.final_counts


class TestRuleCensus:
    def test_avc_rule_mix(self):
        protocol = AVCProtocol(m=9, d=2)
        census = RuleCensus(avc_rule_classifier(protocol))
        result = run_majority(RunSpec(protocol, n=101, epsilon=5 / 101,
                                      seed=5, engine="count",
                                      event_observer=census))
        assert result.settled
        assert census.total == result.productive_steps
        # A normal run exercises averaging, neutralization and follow.
        assert census.counts["averaging"] > 0
        assert census.counts["neutralization"] > 0
        assert census.counts["follow"] > 0
        fractions = census.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_four_state_equivalent_has_no_averaging(self):
        """AVC(m=1) never fires rule 1 — everything is weight <= 1."""
        protocol = AVCProtocol(m=1, d=1)
        census = RuleCensus(avc_rule_classifier(protocol))
        run_majority(RunSpec(protocol, n=51, epsilon=5 / 51, seed=6,
                             engine="count", event_observer=census))
        assert census.counts["averaging"] == 0
        assert census.counts["neutralization"] > 0

    def test_empty_census(self):
        census = RuleCensus(lambda *e: "x")
        assert census.total == 0
        assert census.fractions() == {}

    def test_shift_events_with_deep_levels(self):
        protocol = AVCProtocol(m=3, d=6)
        census = RuleCensus(avc_rule_classifier(protocol))
        run_majority(RunSpec(protocol, n=101, epsilon=1 / 101, seed=7,
                             engine="count", event_observer=census))
        assert census.counts["shift"] > 0
