"""Telemetry threaded through engines, the trial fan-out, and sweeps.

The acceptance assertions of the telemetry PR live here: identical
interaction accounting across engines, the fallback event, the
zero-overhead contract on real simulations, cross-process record
merging, and the orchestrator's cache hit/miss counters across a
resume cycle.
"""

import pytest

from repro import (
    AVCProtocol,
    FourStateProtocol,
    RunSpec,
    run_majority,
    run_trials,
    simulate,
)
from repro.runstore import Orchestrator, RunStore
from repro.sim.count_engine import CountEngine
from repro.sim.ensemble_engine import EnsembleEngine
from repro.sim.parallel import run_trials_parallel
from repro.telemetry import InMemorySink, Telemetry
from repro.telemetry.context import reset, use


@pytest.fixture(autouse=True)
def clean_stack():
    reset()
    yield
    reset()


def wide():
    """A protocol auto routes down the ensemble path."""
    return AVCProtocol.with_num_states(18)


class TestEngineAccounting:
    def test_ensemble_and_count_report_identical_totals(self):
        """Same seed, same protocol: the scalar ensemble path and the
        count engine draw identical interaction streams, so their
        telemetry totals must agree exactly."""
        protocol = wide()
        initial = protocol.initial_counts(36, 25)
        totals = {}
        for engine in (CountEngine(protocol), EnsembleEngine(protocol)):
            sink = InMemorySink()
            with use(Telemetry([sink])):
                engine.run(initial, rng=7)
            totals[engine.name] = (
                sink.total("engine.interactions", engine=engine.name),
                sink.total("engine.runs", engine=engine.name),
            )
        assert totals["count"] == totals["ensemble"]
        assert totals["count"][0] > 0

    def test_simulate_counts_every_trial_and_interaction(self):
        sink = InMemorySink()
        spec = RunSpec(FourStateProtocol(), n=21, epsilon=1 / 21,
                       num_trials=5, seed=0, telemetry=Telemetry([sink]))
        results = simulate(spec)
        assert sink.total("sim.trials") == 5
        assert sink.total("engine.runs") == 5
        assert sink.total("engine.interactions") \
            == sum(r.steps for r in results)
        assert len(sink.spans("engine.run")) == 5

    def test_ensemble_path_emits_chunk_aggregates(self):
        sink = InMemorySink()
        spec = RunSpec(wide(), n=41, epsilon=5 / 41, num_trials=12,
                       seed=3, engine="ensemble",
                       telemetry=Telemetry([sink]))
        results = simulate(spec)
        assert sink.total("engine.runs") == 12
        assert sink.total("engine.interactions") \
            == sum(r.steps for r in results)
        (span,) = sink.spans("engine.ensemble_chunk")
        assert span["labels"]["trials"] == 12
        assert sink.total("engine.ensemble.rounds") > 0
        # Speculative draws cover at least the executed interactions.
        assert sink.total("engine.ensemble.drawn") \
            >= sink.total("engine.interactions")

    def test_auto_fallback_emits_event(self):
        """Auto was eligible for the ensemble but an observer forces
        the per-trial path — the route's reason says so."""
        sink = InMemorySink()
        spec = RunSpec(wide(), n=41, epsilon=5 / 41, num_trials=4,
                       seed=1, event_observer=lambda *e: None,
                       telemetry=Telemetry([sink]))
        results = simulate(spec)
        (event,) = sink.events("engine.selected")
        assert event["labels"]["requested"] == "auto"
        assert event["labels"]["engine"] == results[0].engine_name
        assert event["labels"]["reason"] \
            == "instrumentation: event_observer"
        assert sink.events("engine.fallback") == []

    def test_no_fallback_event_on_the_happy_path(self):
        sink = InMemorySink()
        results = simulate(RunSpec(wide(), n=41, epsilon=5 / 41,
                                   num_trials=4, seed=1,
                                   telemetry=Telemetry([sink])))
        assert sink.events("engine.fallback") == []
        (event,) = sink.events("engine.selected")
        assert event["labels"]["engine"] == results[0].engine_name
        assert "count-ensemble cut" in event["labels"]["reason"]

    def test_graph_is_its_own_reason(self):
        import networkx as nx

        sink = InMemorySink()
        protocol = wide()
        initial = protocol.initial_counts(23, 18)
        simulate(RunSpec(protocol, initial=initial, num_trials=2, seed=1,
                         graph=nx.complete_graph(41),
                         telemetry=Telemetry([sink])))
        (event,) = sink.events("engine.selected")
        assert event["labels"]["engine"] == "agent"
        assert event["labels"]["reason"] == "interaction graph"

    def test_run_majority_records_through_spec_telemetry(self):
        sink = InMemorySink()
        run_majority(RunSpec(FourStateProtocol(), n=21, epsilon=1 / 21,
                             seed=0, telemetry=Telemetry([sink])))
        assert sink.total("engine.runs") == 1

    def test_run_trials_telemetry_override(self):
        sink = InMemorySink()
        spec = RunSpec(FourStateProtocol(), n=21, epsilon=1 / 21,
                       num_trials=2, seed=0)
        run_trials(spec, telemetry=Telemetry([sink]))
        assert sink.total("engine.runs") == 2


class TestZeroOverhead:
    class RaisingSink:
        def emit(self, record):
            raise AssertionError("disabled telemetry reached a sink")

    def test_disabled_telemetry_never_reaches_a_sink(self):
        disabled = Telemetry([self.RaisingSink()], enabled=False)
        with use(disabled):
            results = simulate(RunSpec(wide(), n=41, epsilon=5 / 41,
                                       num_trials=3, seed=2))
        assert all(r.settled for r in results)

    def test_results_identical_with_and_without_telemetry(self):
        spec = RunSpec(FourStateProtocol(), n=31, epsilon=3 / 31,
                       num_trials=4, seed=9)
        plain = simulate(spec)
        observed = simulate(
            spec.replace(telemetry=Telemetry([InMemorySink()])))
        assert plain == observed


class TestCrossProcessMerge:
    def test_parallel_workers_ship_records_to_the_parent(self):
        sink = InMemorySink()
        spec = RunSpec(FourStateProtocol(), n=21, epsilon=1 / 21,
                       num_trials=4, seed=0)
        results = run_trials_parallel(spec, processes=2,
                                      telemetry=Telemetry([sink]))
        assert sink.total("sim.trials") == 4
        assert sink.total("engine.runs") == 4
        assert sink.total("engine.interactions") \
            == sum(r.steps for r in results)


class TestInputValidationHoisting:
    def test_margin_input_resolved_once_per_batch(self, monkeypatch):
        """The per-trial loop must not re-validate the input: the
        margin resolution runs exactly once for the whole batch."""
        calls = {"n": 0}
        original = FourStateProtocol.initial_counts_for_margin

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(FourStateProtocol,
                            "initial_counts_for_margin", counting)
        simulate(RunSpec(FourStateProtocol(), n=21, epsilon=1 / 21,
                         num_trials=8, seed=0))
        assert calls["n"] == 1


class TestOrchestratorCounters:
    def test_cache_hit_and_miss_across_a_resume_cycle(self, tmp_path):
        store = RunStore(tmp_path / ".runstore")
        protocol = AVCProtocol(m=5, d=1)
        point = RunSpec(protocol, n=31, epsilon=5 / 31, num_trials=4,
                        seed=2)

        cold_sink = InMemorySink()
        with use(Telemetry([cold_sink])):
            cold = Orchestrator(store, sweep="t")
            first = cold.spec_point(point)
            cold.finish()
        assert cold_sink.total("runstore.cache.miss") == 1
        assert cold_sink.total("runstore.cache.hit") == 0
        (span,) = cold_sink.spans("runstore.point")
        assert span["labels"]["interactions"] > 0

        warm_sink = InMemorySink()
        with use(Telemetry([warm_sink])):
            warm = Orchestrator(store, sweep="t", resume=True)
            second = warm.spec_point(point)
        assert warm_sink.total("runstore.cache.hit") == 1
        assert warm_sink.total("runstore.cache.miss") == 0
        assert warm_sink.spans("runstore.point") == []
        assert first == second
