"""EnsembleEngine behavior: guards, compaction, routing, censoring.

Distributional correctness lives in
``test_single_step_distribution.py`` (one-step exactness) and
``test_engine_agreement.py`` (convergence-time KS agreement with the
count engine); this module covers the engine's mechanics — the
unanimity requirement, budget handling, converged-row compaction, the
``run_trials`` routing guards, and auto-selection.
"""

import numpy as np
import pytest

from repro import (
    AVCProtocol,
    FourStateProtocol,
    InvalidParameterError,
    SimulationError,
    ThreeStateProtocol,
)
from repro.protocols.leader_election import PairwiseLeaderElection
from repro.sim import CountEngine, EnsembleEngine, NullSkippingEngine
from repro.sim.engines import route
from repro.sim.run import (
    RunSpec,
    make_run_engine,
    resolve_trial_engine,
    run_trials,
)


def avc():
    return AVCProtocol(m=9, d=1)


class TestRunEnsemble:
    def test_returns_one_result_per_trial_in_order(self):
        protocol = avc()
        results = EnsembleEngine(protocol).run_ensemble(
            protocol.initial_counts(36, 25), num_trials=30,
            rng=np.random.default_rng(3))
        assert len(results) == 30
        assert all(r.settled for r in results)
        assert all(r.engine_name == "ensemble" for r in results)
        assert all(r.n == 61 for r in results)

    def test_converged_rows_are_compacted_not_corrupted(self):
        """Trials finish at different ticks, so rows are repeatedly
        compacted out mid-run; every surviving result must still be a
        valid unanimous configuration of the full population."""
        protocol = avc()
        results = EnsembleEngine(protocol).run_ensemble(
            protocol.initial_counts(36, 25), num_trials=40,
            rng=np.random.default_rng(9))
        steps = [r.steps for r in results]
        assert len(set(steps)) > 1  # staggered finishes => compaction ran
        outputs = {state: protocol.output(state)
                   for state in protocol.states}
        for result in results:
            assert sum(result.final_counts.values()) == 61
            decided = {outputs[state]
                       for state, count in result.final_counts.items()
                       if count}
            assert decided == {result.decision}
            assert 0 < result.productive_steps <= result.steps

    def test_reproducible_with_fixed_seed(self):
        protocol = avc()
        initial = protocol.initial_counts(36, 25)
        engine = EnsembleEngine(protocol)
        first = engine.run_ensemble(initial, num_trials=20,
                                    rng=np.random.default_rng(4))
        second = engine.run_ensemble(initial, num_trials=20,
                                     rng=np.random.default_rng(4))
        assert [(r.steps, r.decision) for r in first] \
            == [(r.steps, r.decision) for r in second]

    def test_already_settled_initial_configuration(self):
        protocol = ThreeStateProtocol()
        results = EnsembleEngine(protocol).run_ensemble(
            {"A": 9}, num_trials=5, rng=np.random.default_rng(0))
        assert all(r.settled and r.steps == 0 for r in results)
        assert len({r.decision for r in results}) == 1

    def test_budget_censoring_reports_budget_steps(self):
        protocol = avc()
        results = EnsembleEngine(protocol).run_ensemble(
            protocol.initial_counts(36, 25), num_trials=6,
            rng=np.random.default_rng(1), max_steps=3)
        assert all(not r.settled for r in results)
        assert all(r.steps == 3 for r in results)
        assert all(r.decision is None for r in results)

    def test_rejects_non_unanimity_protocols(self):
        protocol = PairwiseLeaderElection()
        with pytest.raises(SimulationError, match="unanimity"):
            EnsembleEngine(protocol).run_ensemble(
                protocol.initial_counts(10), num_trials=2)

    def test_rejects_absurd_budget(self):
        protocol = avc()
        with pytest.raises(SimulationError, match="budget"):
            EnsembleEngine(protocol).run_ensemble(
                protocol.initial_counts(36, 25), num_trials=2,
                max_steps=10 ** 16)

    def test_validates_num_trials_and_population(self):
        protocol = avc()
        engine = EnsembleEngine(protocol)
        with pytest.raises(InvalidParameterError):
            engine.run_ensemble(protocol.initial_counts(36, 25),
                                num_trials=0)
        with pytest.raises(InvalidParameterError):
            engine.run_ensemble({protocol.states[0]: 1}, num_trials=2)


class TestRunTrialsRouting:
    def test_explicit_ensemble_engine(self):
        stats = run_trials(RunSpec(avc(), num_trials=25, seed=5,
                                   engine="ensemble", n=61,
                                   epsilon=11 / 61),
                           stats=True)
        assert stats.num_settled == 25
        assert stats.error_fraction == 0.0

    def test_recorder_and_observer_are_rejected(self):
        for unsupported in ("recorder", "event_observer", "graph"):
            with pytest.raises(InvalidParameterError, match="ensemble"):
                run_trials(RunSpec(avc(), num_trials=2, seed=0,
                                   engine="ensemble", n=61,
                                   epsilon=11 / 61,
                                   **{unsupported: object()}))

    def test_auto_upgrades_large_unanimity_protocols(self):
        wide = AVCProtocol.with_num_states(18)
        batch = RunSpec(wide, n=15, epsilon=3 / 15, num_trials=2, seed=0)
        engine, _ = resolve_trial_engine(batch)
        assert isinstance(engine, EnsembleEngine)
        # Single runs and small state spaces keep their engines.
        single = batch.replace(num_trials=1)
        assert resolve_trial_engine(single)[0] is None
        assert isinstance(make_run_engine(single), CountEngine)
        small = batch.replace(protocol=FourStateProtocol())
        assert resolve_trial_engine(small)[0] is None
        assert isinstance(make_run_engine(small), NullSkippingEngine)

    def test_auto_route_matches_explicit_ensemble(self):
        # Either side of the population crossover, auto's stream is
        # the stream of the ensemble it names explicitly.
        wide = AVCProtocol.with_num_states(18)
        for n, advantage in ((15, 3), (41, 5)):
            spec = RunSpec(wide, num_trials=12, seed=21, n=n,
                           epsilon=advantage / n)
            auto = run_trials(spec.replace(engine="auto"))
            explicit = run_trials(spec.replace(engine=route(spec).engine))
            assert [(r.steps, r.decision) for r in auto] \
                == [(r.steps, r.decision) for r in explicit]
            if n == 15:
                assert route(spec).engine == "ensemble"
