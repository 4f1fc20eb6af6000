"""The rounds engine on the RunSpec rails.

Round-based consensus must ride the exact same front door as the
population protocols: registry names, ``RunSpec`` input forms, fault
specs, serialization, the run store, and the trial runners — with the
population-only features rejected loudly rather than misbehaving.
"""

import pytest

from repro import (
    ConvergenceTimeout,
    FaultSpec,
    FourStateProtocol,
    InvalidParameterError,
    RunSpec,
    protocol_from_dict,
    protocol_to_dict,
    run_majority,
    run_trials,
    simulate,
)
from repro.consensus import (
    BenOrConsensus,
    EpsilonAgreementConsensus,
    RoundsEngine,
)
from repro.runstore import Orchestrator, RunStore
from repro.runstore.fingerprint import fingerprint, spec_key
from repro.sim import engines
from repro.sim.run import make_run_engine


def ben_or_spec(**overrides):
    base = dict(n=100, epsilon=0.2, seed=7, max_steps=500)
    base.update(overrides)
    return RunSpec("ben-or", **base)


class TestRouting:
    def test_auto_routes_to_the_rounds_engine(self):
        assert make_run_engine(ben_or_spec()).name == "rounds"
        assert engines.create(BenOrConsensus(), "auto").name == "rounds"
        assert engines.route(ben_or_spec()) \
            == ("rounds", False, "round-based protocol")

    @pytest.mark.parametrize("engine", ["count", "agent", "ensemble",
                                        "null-skipping"])
    def test_population_engines_refuse_round_protocols(self, engine):
        with pytest.raises(InvalidParameterError,
                           match="round-based"):
            simulate(ben_or_spec(engine=engine))

    def test_rounds_engine_refuses_population_protocols(self):
        with pytest.raises(InvalidParameterError, match="rounds"):
            RoundsEngine(FourStateProtocol())

    def test_registry_names_resolve(self):
        result = run_majority(RunSpec(("epsilon-agreement",
                                       {"epsilon_agree": 0.1}),
                                      n=100, epsilon=0.2, seed=1))
        assert result.engine_name == "rounds"
        assert result.decision == 1


class TestExecution:
    def test_clean_ben_or_reaches_agreement(self):
        result = run_majority(ben_or_spec())
        assert result.settled
        assert result.decision == 1
        assert result.steps == 1  # rounds, not interactions
        assert result.fault_events is None

    def test_byzantine_budget_through_the_fault_spec(self):
        result = run_majority(ben_or_spec(
            faults=FaultSpec(byzantine_f=8)))
        assert result.settled
        assert result.fault_events["byzantine_lies"] > 0
        assert result.fault_events["byzantine_meetings"] > 0

    def test_blocked_run_exhausts_the_round_budget(self):
        result = run_majority(ben_or_spec(
            max_steps=50,
            faults=FaultSpec(byzantine_f=40,
                             byzantine_mode="adaptive")))
        assert not result.settled
        assert result.steps == 50

    def test_blocked_run_raises_on_request(self):
        spec = ben_or_spec(max_steps=50, on_timeout="raise",
                           faults=FaultSpec(byzantine_f=40,
                                            byzantine_mode="adaptive"))
        with pytest.raises(ConvergenceTimeout, match="agreement"):
            run_majority(spec)

    def test_trial_batches_run_per_trial(self):
        results = run_trials(ben_or_spec(
            num_trials=4, faults=FaultSpec(byzantine_f=8)))
        assert len(results) == 4
        assert all(r.engine_name == "rounds" for r in results)
        # Independent streams: the coin phases may disagree, but
        # determinism holds batch to batch.
        again = run_trials(ben_or_spec(
            num_trials=4, faults=FaultSpec(byzantine_f=8)))
        assert [(r.steps, r.decision) for r in results] \
            == [(r.steps, r.decision) for r in again]


class TestRejections:
    def test_max_parallel_time_rejected(self):
        with pytest.raises(InvalidParameterError, match="rounds"):
            run_majority(RunSpec("ben-or", n=100, epsilon=0.2, seed=1,
                                 max_parallel_time=20.0))

    def test_population_fault_fields_rejected(self):
        with pytest.raises(InvalidParameterError, match="flip_prob"):
            run_majority(ben_or_spec(faults=FaultSpec(flip_prob=0.01)))

    def test_interaction_horizon_rejected(self):
        with pytest.raises(InvalidParameterError, match="horizon"):
            run_majority(ben_or_spec(
                faults=FaultSpec(byzantine_f=4, horizon=500)))

    def test_budget_must_leave_an_honest_server(self):
        with pytest.raises(InvalidParameterError, match="honest"):
            run_majority(ben_or_spec(
                faults=FaultSpec(byzantine_f=100)))

    def test_recorder_rejected(self):
        engine = RoundsEngine(BenOrConsensus())
        with pytest.raises(InvalidParameterError, match="recorder"):
            engine.run({"A": 60, "B": 40}, rng=1, recorder=object())

    def test_unknown_input_states_rejected(self):
        engine = RoundsEngine(BenOrConsensus())
        with pytest.raises(InvalidParameterError, match="binary"):
            engine.run({"A": 3, "X": 2}, rng=1)


class TestSerialization:
    SPECS = {
        "ben-or": ben_or_spec(faults=FaultSpec(byzantine_f=8)),
        "epsilon-agreement": RunSpec(
            EpsilonAgreementConsensus(epsilon_agree=0.1), n=100,
            epsilon=0.2, seed=3,
            faults=FaultSpec(byzantine_f=5, byzantine_mode="adaptive")),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_wire_round_trip_preserves_the_key(self, name):
        spec = self.SPECS[name]
        rebuilt = RunSpec.from_json(spec.to_json())
        assert rebuilt.key() == spec.key()

    def test_protocol_dicts_round_trip(self):
        for protocol in (BenOrConsensus(),
                         EpsilonAgreementConsensus(epsilon_agree=0.1)):
            rebuilt = protocol_from_dict(protocol_to_dict(protocol))
            assert type(rebuilt) is type(protocol)
            assert protocol_to_dict(rebuilt) == protocol_to_dict(protocol)

    def test_zero_budget_shares_the_clean_fingerprint(self):
        clean = ben_or_spec()
        nulled = ben_or_spec(faults=FaultSpec(byzantine_f=0))
        assert fingerprint(spec_key(nulled)) \
            == fingerprint(spec_key(clean))

    def test_active_budget_extends_the_key(self):
        clean = ben_or_spec()
        faulted = ben_or_spec(faults=FaultSpec(byzantine_f=8))
        assert spec_key(faulted)["faults"] == {"byzantine_f": 8}
        assert fingerprint(spec_key(faulted)) \
            != fingerprint(spec_key(clean))


class TestRunStore:
    def test_round_points_cache_and_replay(self, tmp_path):
        orch = Orchestrator(RunStore(tmp_path / ".runstore"))
        point = RunSpec(BenOrConsensus(), n=100, epsilon=0.2, num_trials=3,
                        seed=7, max_steps=500,
                        faults=FaultSpec(byzantine_f=8))
        first = orch.spec_point(point, kind="robustness-point")
        assert orch.counters["computed"] == 1
        second = orch.spec_point(point, kind="robustness-point")
        assert orch.counters["cached"] == 1
        assert second == first
        assert first["settled_fraction"] == 1.0
