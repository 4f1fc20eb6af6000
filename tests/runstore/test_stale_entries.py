"""Stale ``auto`` cache entries: computed on an engine routing no longer picks.

An ``auto`` point's key names the policy, not the engine it resolved
to, so moving a routing threshold leaves committed entries that carry
another engine's stream under a key the new routing also produces.
The orchestrator and the service compare the entry's recorded
``engine_resolved`` with the engine :func:`repro.sim.engines.route`
names on every hit and recompute on a mismatch; the ``-jit`` suffix is ignored
because the compiled twins are bit-identical.
"""

from __future__ import annotations

import json

import pytest

from repro import AVCProtocol, FaultSpec, RunSpec, simulate
from repro.protocols.successors import PhaseDoublingProtocol
from repro.runstore import Orchestrator, RunStore
from repro.runstore.fingerprint import fingerprint
from repro.runstore.orchestrator import stale_reason
from repro.service import ServiceConfig, SimulationService
from repro.sim.engines import route
from repro.sim.run import resolve_trial_engine
from repro.telemetry import InMemorySink, Telemetry
from repro.telemetry.context import use as use_telemetry

PROTOCOL = AVCProtocol(m=15, d=1)


def auto_spec(**overrides):
    fields = dict(n=200, epsilon=0.1, num_trials=4, seed=5)
    fields.update(overrides)
    return RunSpec(PROTOCOL, **fields)


def other_ensemble(spec):
    """The ensemble auto does *not* pick for ``spec`` on this host."""
    current = route(spec).engine.removesuffix("-jit")
    return "count-ensemble" if current == "ensemble" else "ensemble"


def rewrite_meta(store, fp, **meta):
    """Edit a committed entry in place, as an older build left it."""
    path = store.object_path(fp)
    entry = json.loads(path.read_text())
    entry["meta"].update(meta)
    entry["row"]["mean_parallel_time"] = -1.0   # marks the old bytes
    path.write_text(json.dumps(entry))


class TestAutoEngineName:
    @pytest.mark.parametrize("spec", [
        auto_spec(),
        auto_spec(num_trials=1),
        auto_spec(n=15, epsilon=1 / 15),
        RunSpec(AVCProtocol(m=1, d=1), n=60, epsilon=0.1,
                num_trials=3, seed=1),
        auto_spec(faults=FaultSpec(flip_prob=0.01, horizon=100)),
        auto_spec(faults=FaultSpec(byzantine_f=2, horizon=100),
                  max_steps=4000),
        RunSpec(PhaseDoublingProtocol.for_population(200), n=200,
                epsilon=0.1, num_trials=2, seed=3),
    ], ids=["ensemble-batch", "single-trial", "below-cut", "null-skip",
            "faulted", "byzantine", "successor"])
    def test_matches_the_engine_simulate_records(self, spec):
        results = simulate(spec)
        assert route(spec).engine == results[0].engine_name
        engine, _ = resolve_trial_engine(spec)
        if engine is not None:
            assert route(spec).engine == engine.name


class TestOrchestrator:
    def test_stale_auto_entry_is_recomputed(self, tmp_path):
        store = RunStore.for_output_dir(tmp_path)
        spec = auto_spec()
        fresh = Orchestrator(store).spec_point(spec)
        fp = fingerprint(spec.key())
        rewrite_meta(store, fp, engine_resolved=other_ensemble(spec))

        sink = InMemorySink()
        orchestrator = Orchestrator(store)
        with use_telemetry(Telemetry([sink])):
            row = orchestrator.spec_point(spec)
        assert row == fresh
        assert orchestrator.counters == dict(orchestrator.counters,
                                             computed=1, cached=0)
        assert sink.total("runstore.cache.stale") == 1
        entry = store.get(fp)
        assert entry["row"] == fresh
        assert entry["meta"]["engine_resolved"] == route(spec).engine
        # The overwritten entry is fresh: the next lookup is a hit.
        again = Orchestrator(store)
        assert again.spec_point(spec) == fresh
        assert again.counters["cached"] == 1

    def test_jit_and_numpy_twins_are_not_stale(self, tmp_path):
        store = RunStore.for_output_dir(tmp_path)
        spec = auto_spec()
        Orchestrator(store).spec_point(spec)
        fp = fingerprint(spec.key())
        twin = route(spec).engine.removesuffix("-jit")
        rewrite_meta(store, fp, engine_resolved=twin)
        assert stale_reason(store.get(fp), spec) is None
        orchestrator = Orchestrator(store)
        row = orchestrator.spec_point(spec)
        assert orchestrator.counters["cached"] == 1
        assert row["mean_parallel_time"] == -1.0   # served as stored

    def test_explicit_engine_entries_are_never_stale(self, tmp_path):
        store = RunStore.for_output_dir(tmp_path)
        spec = auto_spec(engine="ensemble")
        Orchestrator(store).spec_point(spec)
        entry = store.get(fingerprint(spec.key()))
        assert entry["meta"]["engine_requested"] == "ensemble"
        assert stale_reason(entry, spec) is None


class TestService:
    def test_stale_cached_post_is_recomputed(self, tmp_path):
        spec = auto_spec()
        store = RunStore.for_output_dir(tmp_path)
        fresh = Orchestrator(store).spec_point(spec)
        fp = fingerprint(spec.key())
        rewrite_meta(store, fp, engine_resolved=other_ensemble(spec))

        service = SimulationService(config=ServiceConfig(
            output_dir=str(tmp_path), num_workers=1, queue_size=4))
        service.start()
        try:
            view = service.submit(spec.to_json())
            assert view["cached"] is False
            done = service.get(view["id"], wait=60)
            assert done["status"] == "done"
            assert done["row"] == fresh
            assert service.sink.total("runstore.cache.stale") >= 1
            again = service.submit(spec.to_json())
            assert again["cached"] is True and again["row"] == fresh
        finally:
            service.stop(graceful=False)

    def test_stale_committed_entry_is_not_served_by_get(self, tmp_path):
        from repro.service.errors import UnknownJobError

        spec = auto_spec()
        store = RunStore.for_output_dir(tmp_path)
        fresh = Orchestrator(store).spec_point(spec)
        fp = fingerprint(spec.key())
        service = SimulationService(config=ServiceConfig(
            output_dir=str(tmp_path), num_workers=1, queue_size=4))
        assert service.get(fp)["row"] == fresh  # fresh: served

        rewrite_meta(store, fp, engine_resolved=other_ensemble(spec))
        with pytest.raises(UnknownJobError, match="stale; resubmit"):
            service.get(fp)
        assert service.sink.total("runstore.cache.stale",
                                  kind="service") == 1
