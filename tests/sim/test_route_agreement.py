"""``route(spec)`` names the engine every run path actually runs.

:func:`repro.sim.engines.route` is the one ``auto`` decider: the trial
plan builds what it names, and the run store's stale check compares
committed entries with it.  This sweeps a protocol x n x trials x
faults grid (plus graphs, instrumentation, round-based, oversized and
count-sensitive protocols) on both kernel backends and checks that the
route's engine is the one :func:`~repro.sim.run.simulate` records and
the one an :meth:`~repro.runstore.Orchestrator.spec_point` commits as
``meta.engine_resolved`` (the ``-jit`` suffix ignored: the compiled
twins are bit-identical).  ``max_steps`` caps every run, since only
the engine's name is under test.
"""

import networkx as nx
import pytest

from repro import AVCProtocol, FaultSpec, FourStateProtocol, RunSpec, simulate
from repro.protocols.base import MAX_DENSE_STATES
from repro.protocols.leader_election import LeveledLeaderElection
from repro.protocols.successors import PhaseDoublingProtocol
from repro.runstore import Orchestrator, RunStore
from repro.runstore.fingerprint import fingerprint
from repro.sim import TrajectoryRecorder, kernels
from repro.sim.engines import (
    COUNT_ENSEMBLE_MIN_N,
    FAULTED_COUNT_ENSEMBLE_MIN_N,
    route,
)

FAULTS = {
    "clean": None,
    "drop": FaultSpec(drop_prob=0.01),
    "byzantine": FaultSpec(byzantine_f=1, horizon=100),
    "scheduler": FaultSpec(scheduler="stubborn"),
}
TRIALS = (1, 3, 129)
MAX_STEPS = 300


@pytest.fixture(params=["compiled", "numpy"])
def backend(request, monkeypatch):
    """This host's compiled backend, or none (patched away)."""
    if request.param == "compiled":
        loaded = kernels.default_backend()
        if loaded is None:
            pytest.skip("no compiled kernel backend on this host")
    else:
        loaded = None
    monkeypatch.setattr(kernels, "default_backend", lambda: loaded)
    return request.param


def populations(backend):
    """Each side of the backend's clean cut; without a compiled
    backend that is also the faulted cut."""
    assert COUNT_ENSEMBLE_MIN_N["numpy"] == FAULTED_COUNT_ENSEMBLE_MIN_N
    return (COUNT_ENSEMBLE_MIN_N[backend] - 1,
            COUNT_ENSEMBLE_MIN_N[backend])


def protocols():
    """Below both null-skip cuts, between them, and above both."""
    return [FourStateProtocol(), AVCProtocol.with_num_states(6),
            AVCProtocol.with_num_states(18)]


def grid(backend):
    for protocol in protocols():
        for n in populations(backend):
            for trials in TRIALS:
                for faults in FAULTS.values():
                    a = n // 2 + 1
                    yield RunSpec(protocol, count_a=a, count_b=n - a,
                                  num_trials=trials, seed=3,
                                  max_steps=MAX_STEPS, faults=faults)


def extras():
    """Specs that leave the grid's rules: graphs, instrumentation,
    round-based, oversized and not unanimity-settling protocols."""
    wide = AVCProtocol.with_num_states(18)
    initial = wide.initial_counts(23, 18)
    leader = LeveledLeaderElection(levels=16)  # 17 states: above both cuts
    big = PhaseDoublingProtocol(levels=300)
    assert big.num_states > MAX_DENSE_STATES
    for trials in (1, 3):
        yield RunSpec(wide, initial=initial, num_trials=trials, seed=1,
                      graph=nx.cycle_graph(41), max_steps=MAX_STEPS)
        yield RunSpec(wide, n=41, epsilon=5 / 41, num_trials=trials,
                      seed=1, recorder=TrajectoryRecorder(interval_steps=50),
                      max_steps=MAX_STEPS)
        yield RunSpec(wide, n=41, epsilon=5 / 41, num_trials=trials,
                      seed=1, event_observer=lambda *event: None,
                      max_steps=MAX_STEPS)
        yield RunSpec(leader, initial=leader.initial_counts(41),
                      num_trials=trials, seed=1, max_steps=MAX_STEPS)
        yield RunSpec(big, n=50, epsilon=0.2, num_trials=trials, seed=1,
                      max_steps=MAX_STEPS)
        for faults in (None, FaultSpec(byzantine_f=1)):
            yield RunSpec("ben-or", n=20, epsilon=0.2, num_trials=trials,
                          seed=7, max_steps=50, faults=faults)


def twin(name):
    return name.removesuffix("-jit")


def test_route_names_what_simulate_runs(backend):
    seen = set()
    for spec in [*grid(backend), *extras()]:
        chosen = route(spec)
        results = simulate(spec)
        assert len(results) == spec.num_trials
        recorded = {twin(result.engine_name) for result in results}
        assert recorded == {twin(chosen.engine)}, (spec, chosen)
        seen.add((chosen.engine, chosen.reason))
    expected = {
        "round-based protocol", "interaction graph",
        "adversarial scheduler", "null-skip cut", "single trial",
        "faults", "instrumentation: recorder",
        "instrumentation: event_observer", "not unanimity-settling",
        "no dense table", "byzantine", f"count-ensemble cut ({backend})",
        f"below count-ensemble cut ({backend})",
        "below faulted count-ensemble cut"}
    if backend == "numpy":
        expected.add("faulted count-ensemble cut")
    assert expected <= {reason for _, reason in seen}


def test_route_names_what_the_run_store_records(backend, tmp_path):
    store = RunStore.for_output_dir(tmp_path)
    orchestrator = Orchestrator(store)
    for spec in grid(backend):
        orchestrator.spec_point(spec)
        meta = store.get(fingerprint(spec.key()))["meta"]
        assert twin(meta["engine_resolved"]) == twin(route(spec).engine), \
            spec


def test_route_builds_no_table(backend):
    fresh = protocols()
    for protocol in fresh:
        for trials in TRIALS:
            for faults in FAULTS.values():
                route(RunSpec(protocol, n=41, epsilon=1 / 41,
                              num_trials=trials, faults=faults))
    for protocol in fresh:
        assert getattr(protocol, "_transition_matrix_cache", None) is None
