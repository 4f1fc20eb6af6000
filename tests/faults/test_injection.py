"""Fault injection behavior across the engines.

Every fault-capable engine must honour the same semantics: the armed
window, the hold-until-horizon rule for unsettling faults, targeted
corruption, churn floors, and the ``fault.*`` telemetry totals.
"""

import pytest

from repro import (
    AVCProtocol,
    FaultSpec,
    InvalidParameterError,
    RunSpec,
    ThreeStateProtocol,
    simulate,
)
from repro.sim import (
    AgentEngine,
    ContinuousTimeEngine,
    CountEngine,
    EnsembleEngine,
    NullSkippingEngine,
)
from repro.sim.run import make_run_engine, run_trials
from repro.telemetry import InMemorySink, Telemetry

PROTOCOL = AVCProtocol(m=7, d=1)

ENGINES = [
    pytest.param(lambda: CountEngine(PROTOCOL), id="count"),
    pytest.param(lambda: AgentEngine(PROTOCOL), id="agent"),
    pytest.param(lambda: EnsembleEngine(PROTOCOL), id="ensemble"),
]


def run_one(engine, faults, *, seed=7, count_a=31, count_b=20):
    return engine.run(PROTOCOL.initial_counts(count_a, count_b),
                      rng=seed, expected=1, faults=faults)


class TestBasicInjection:
    @pytest.mark.parametrize("make_engine", ENGINES)
    def test_flip_faults_counted_and_survivable(self, make_engine):
        result = run_one(make_engine(),
                         FaultSpec(flip_prob=0.05, horizon=300))
        assert result.settled
        assert result.fault_events["flips"] > 0
        assert result.fault_events["crashes"] == 0

    @pytest.mark.parametrize("make_engine", ENGINES)
    def test_clean_run_has_no_fault_events(self, make_engine):
        result = run_one(make_engine(), None)
        assert result.settled
        assert result.fault_events is None

    @pytest.mark.parametrize("make_engine", ENGINES)
    def test_null_spec_equals_none(self, make_engine):
        clean = run_one(make_engine(), None)
        null = run_one(make_engine(), FaultSpec())
        assert (null.steps, null.decision, null.settled) \
            == (clean.steps, clean.decision, clean.settled)
        assert null.fault_events is None

    @pytest.mark.parametrize("make_engine", [
        pytest.param(lambda: NullSkippingEngine(PROTOCOL),
                     id="null-skipping"),
        pytest.param(lambda: ContinuousTimeEngine(PROTOCOL),
                     id="continuous-time"),
    ])
    def test_analytic_engines_reject_faults(self, make_engine):
        with pytest.raises(InvalidParameterError,
                           match="does not support fault injection"):
            run_one(make_engine(), FaultSpec(flip_prob=0.05))


class TestHoldUntilHorizon:
    """Unsettling faults hold the run in the arena until the horizon."""

    HORIZON = 400

    @pytest.mark.parametrize("make_engine", ENGINES)
    def test_settled_runs_outlast_the_window(self, make_engine):
        result = run_one(make_engine(),
                         FaultSpec(flip_prob=0.02, horizon=self.HORIZON))
        assert result.settled
        assert result.steps >= self.HORIZON

    @pytest.mark.parametrize("make_engine", ENGINES)
    def test_non_unsettling_faults_do_not_hold(self, make_engine):
        # A huge margin settles fast; drops cannot unsettle, so the
        # run may end well inside the fault window.
        result = run_one(make_engine(),
                         FaultSpec(drop_prob=0.05, horizon=100_000),
                         count_a=50, count_b=1)
        assert result.settled
        assert result.steps < 100_000


class TestTargetedCorruption:
    def test_flips_the_majority(self):
        """The targeted adversary rewrites agents into the minority
        input at a rate the initial margin cannot survive; AVC then
        converges to the *corrupted* total's sign (Lemma A.1)."""
        engine = CountEngine(PROTOCOL)
        result = engine.run(
            PROTOCOL.initial_counts(28, 23), rng=11, expected=1,
            faults=FaultSpec(flip_prob=0.15, flip_mode="targeted",
                             horizon=2_000))
        assert result.settled
        assert result.decision == 0
        assert result.fault_events["flips"] > 0

    def test_uniform_low_rate_preserves_majority(self):
        engine = CountEngine(PROTOCOL)
        result = engine.run(
            PROTOCOL.initial_counts(40, 11), rng=11, expected=1,
            faults=FaultSpec(flip_prob=0.005, horizon=200))
        assert result.settled
        assert result.decision == 1


class TestChurn:
    @pytest.mark.parametrize("make_engine", ENGINES[:3])
    def test_population_drifts_but_n_reports_initial(self, make_engine):
        result = run_one(make_engine(),
                         FaultSpec(crash_prob=0.01, join_prob=0.01,
                                   horizon=600))
        assert result.settled
        assert result.n == 51  # the *initial* population, by contract
        events = result.fault_events
        assert events["crashes"] > 0 or events["joins"] > 0
        final_population = sum(result.final_counts.values())
        drift = events["joins"] - events["crashes"]
        assert final_population == 51 + drift

    def test_crash_floor_respected(self):
        engine = CountEngine(PROTOCOL)
        result = engine.run(
            PROTOCOL.initial_counts(7, 4), rng=5, expected=1,
            faults=FaultSpec(crash_prob=0.5, horizon=500,
                             min_population=6))
        assert sum(result.final_counts.values()) >= 6

    def test_churn_rejected_off_the_complete_graph(self):
        networkx = pytest.importorskip("networkx")
        engine = AgentEngine(PROTOCOL,
                             graph=networkx.cycle_graph(51))
        with pytest.raises(InvalidParameterError, match="churn"):
            run_one(engine, FaultSpec(crash_prob=0.1))


class TestSpecRouting:
    def test_auto_routes_faulted_specs_to_count(self):
        spec = RunSpec(PROTOCOL, n=51, epsilon=3 / 51, seed=7,
                       faults=FaultSpec(flip_prob=0.01))
        assert make_run_engine(spec).name == "count"

    def test_auto_routes_scheduler_specs_to_agent(self):
        spec = RunSpec(PROTOCOL, n=51, epsilon=3 / 51, seed=7,
                       faults=FaultSpec(scheduler="stubborn"))
        assert make_run_engine(spec).name == "agent"

    def test_explicit_unsupported_engine_rejected(self):
        spec = RunSpec(PROTOCOL, n=51, epsilon=3 / 51, seed=7,
                       engine="null-skipping",
                       faults=FaultSpec(flip_prob=0.01))
        with pytest.raises(InvalidParameterError,
                           match="fault injection"):
            simulate(spec)

    def test_explicit_ensemble_rejects_scheduler(self):
        spec = RunSpec(PROTOCOL, n=51, epsilon=3 / 51, num_trials=4,
                       seed=7, engine="ensemble",
                       faults=FaultSpec(scheduler="stubborn"))
        with pytest.raises(InvalidParameterError, match="scheduler"):
            run_trials(spec)

    def test_scheduler_rejected_with_graph(self):
        networkx = pytest.importorskip("networkx")
        with pytest.raises(InvalidParameterError, match="graph"):
            RunSpec(PROTOCOL, n=51, epsilon=3 / 51, seed=7,
                    graph=networkx.cycle_graph(51),
                    faults=FaultSpec(scheduler="stubborn"))


class TestFaultTelemetry:
    def test_fault_counters_emitted(self):
        sink = InMemorySink()
        spec = RunSpec(ThreeStateProtocol(), n=51, epsilon=3 / 51,
                       num_trials=3, seed=7, engine="count",
                       faults=FaultSpec(flip_prob=0.05, horizon=300),
                       telemetry=Telemetry([sink]))
        results = run_trials(spec)
        runs = sum(r["value"] for r in sink.records
                   if r.get("name") == "fault.runs")
        flips = sum(r["value"] for r in sink.records
                    if r.get("name") == "fault.flips")
        assert runs == 3
        assert flips == sum(res.fault_events["flips"]
                            for res in results)
