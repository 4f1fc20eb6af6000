"""The layer boundaries the traced run wraps, and the per-layer metrics.

Every span is recorded from here, around public calls of the
``repro`` modules, so the program itself carries no tracing code.
Counts that the program already reports through its telemetry
(``engine.interactions``, ``engine.ensemble.rounds``,
``protocol.states_materialized``) are read from an in-memory sink.
"""

from __future__ import annotations

import importlib

from spans import Tracer, layer_self_times, patch_function, patch_method

#: Layers in the order a request crosses them; each has a self time.
LAYERS = ("experiments", "runstore", "protocols", "sim", "kernels",
          "service")

#: Engines whose trials and seconds are reported one by one, so the
#: trace shows where ``auto`` sent each batch.
ENGINES = ("ensemble", "count-ensemble", "count-ensemble-jit",
           "null-skipping", "count", "count-jit")

#: Engine families that advance trials in vectorized rounds.
_ROUND_ENGINES = ("ensemble", "count-ensemble", "count-ensemble-jit")

#: Span names of simulation work (as opposed to engine set-up).
_SIM_WORK = ("sim.simulate", "sim.run")


def install(tracer: Tracer, *, service: bool = False) -> None:
    """Wrap the public calls of every layer; idempotent per class."""
    from repro.experiments import figure3, figure4, io
    from repro.protocols.base import PopulationProtocol
    from repro.runstore.journal import Journal
    from repro.runstore.orchestrator import Orchestrator
    from repro.runstore.store import RunStore
    from repro.sim import kernels
    from repro.sim.engine import Engine

    # Both packages re-export a function under their submodule's name.
    fingerprint_mod = importlib.import_module("repro.runstore.fingerprint")
    run_mod = importlib.import_module("repro.sim.run")

    patch_function(tracer, figure3, "figure3_rows", "experiments",
                   "experiments.rows",
                   on_exit=_count_points(tracer))
    patch_function(tracer, figure4, "figure4_rows", "experiments",
                   "experiments.rows",
                   on_exit=_count_points(tracer))
    patch_function(tracer, io, "write_csv", "experiments",
                   "experiments.write_csv")

    patch_method(tracer, Orchestrator, "spec_point", "runstore",
                 "runstore.point")
    patch_method(tracer, RunStore, "get", "runstore", "runstore.lookup",
                 on_exit=_count_hits(tracer))
    patch_method(tracer, RunStore, "put", "runstore", "runstore.commit")
    patch_method(tracer, Journal, "append", "runstore",
                 "runstore.journal")
    for name in ("fingerprint", "spec_key"):
        patch_function(tracer, fingerprint_mod, name, "runstore",
                       "runstore.fingerprint")

    patch_method(tracer, PopulationProtocol, "transition_matrix",
                 "protocols", "protocols.table_build")

    patch_function(tracer, run_mod, "simulate", "sim", "sim.simulate")
    for name in ("resolve_trial_engine", "make_run_engine"):
        patch_function(tracer, run_mod, name, "sim", "sim.engine_setup")
    patch_method(tracer, Engine, "run", "sim", "sim.run",
                 on_exit=_count_trials(tracer))
    patch_method(tracer, Engine, "run_ensemble", "sim", "sim.run",
                 on_exit=_count_trials(tracer))

    backend = kernels.warm_up()
    if backend is not None:
        namespace = kernels.load(backend)
        for name in ("ensemble_round", "count_block", "batch_match"):
            function = getattr(namespace, name)
            if not hasattr(function, "__traced__"):
                setattr(namespace, name, staticmethod(
                    tracer.wrap("kernels", "kernels.call", function)))

    if service:
        from repro.service import http
        from repro.service.service import SimulationService
        from repro.service.workers import WorkerPool

        patch_method(tracer, http._AsgiRequestHandler, "_handle",
                     "service", "service.handle",
                     aliases=("do_GET", "do_POST"))
        patch_method(tracer, SimulationService, "submit", "service",
                     "service.submit")
        patch_method(tracer, SimulationService, "get", "service",
                     "service.get")
        patch_method(tracer, WorkerPool, "_execute", "service",
                     "service.job", on_exit=_queue_wait(tracer))


def _count_points(tracer):
    def on_exit(args, rows, start, end):
        tracer.count("experiments.points", len(rows), end)
    return on_exit


def _count_hits(tracer):
    def on_exit(args, entry, start, end):
        if entry is not None:
            tracer.count("runstore.hits", 1, end)
    return on_exit


def _count_trials(tracer):
    def on_exit(args, result, start, end):
        name = args[0].name
        trials = len(result) if isinstance(result, list) else 1
        tracer.count(f"sim.trials.{name}", trials, end)
        tracer.count(f"sim.seconds.{name}", end - start, end)
    return on_exit


def _queue_wait(tracer):
    def on_exit(args, result, start, end):
        job = args[1]
        # The queue stamps jobs with wall-clock time.
        waited = (job.started_at or job.submitted_at) - job.submitted_at
        tracer.count("service.queue_wait_s", max(0.0, waited), end)
    return on_exit


def _outermost_work(spans_by_id, span) -> bool:
    parent = spans_by_id.get(span[1])
    while parent is not None:
        if parent[3] in _SIM_WORK:
            return False
        parent = spans_by_id.get(parent[1])
    return True


def _enclosing_point(spans_by_id, span):
    parent = spans_by_id.get(span[1])
    while parent is not None:
        if parent[3] == "runstore.point":
            return parent[0]
        parent = spans_by_id.get(parent[1])
    return None


def per_layer_metrics(tracer: Tracer, *, window: tuple[float, float],
                      untraced_wall: float, sink=None,
                      service_stats: dict | None = None,
                      client_latency_s: float = 0.0) -> dict:
    """Every per-layer metric, from the spans inside ``window``.

    ``untraced_wall`` is the wall time the same work took with tracing
    off; ``sink`` is the telemetry sink of the traced work;
    ``service_stats`` is the service's ``GET /stats`` counters and
    ``client_latency_s`` the summed client-side latency of the traced
    requests (service-mix only).
    """
    lo, hi = window
    wall = hi - lo
    spans = [span for span in tracer.spans
             if span[4] >= lo and span[5] <= hi]
    by_id = {span[0]: span for span in spans}

    def counted(name):
        return tracer.total(name, window)

    def seconds(name):
        return sum(s[5] - s[4] for s in spans if s[3] == name)

    def calls(name):
        return sum(1 for s in spans if s[3] == name)

    def telemetry(name, **labels):
        return sink.total(name, **labels) if sink is not None else 0

    self_times = layer_self_times(tracer.spans, window)
    metrics: dict = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    put("experiments.points", counted("experiments.points"), "count")
    put("experiments.csv_write_s", seconds("experiments.write_csv"), "s")

    lookups = calls("runstore.lookup")
    put("runstore.fingerprint_s", seconds("runstore.fingerprint"), "s")
    put("runstore.lookups", lookups, "count")
    put("runstore.lookup_s", seconds("runstore.lookup"), "s")
    put("runstore.cache_hit_ratio",
        counted("runstore.hits") / lookups if lookups else 0.0, "ratio")
    put("runstore.commits", calls("runstore.commit"), "count")
    put("runstore.commit_s", seconds("runstore.commit"), "s")
    put("runstore.journal_appends", calls("runstore.journal"), "count")
    put("runstore.journal_s", seconds("runstore.journal"), "s")
    inside_points = 0.0
    work = 0.0
    for span in spans:
        if span[3] in _SIM_WORK and _outermost_work(by_id, span):
            work += span[5] - span[4]
            if _enclosing_point(by_id, span) is not None:
                inside_points += span[5] - span[4]
    put("runstore.orchestrator_self_s",
        seconds("runstore.point") - inside_points, "s")

    put("protocols.table_build_s", seconds("protocols.table_build"), "s")
    put("protocols.states_materialized",
        telemetry("protocol.states_materialized"), "count")

    interactions = telemetry("engine.interactions")
    rounds = telemetry("engine.ensemble.rounds")
    round_interactions = sum(telemetry("engine.interactions", engine=e)
                             for e in _ROUND_ENGINES)
    put("sim.engine_setup_s", seconds("sim.engine_setup"), "s")
    put("sim.simulate_s", work, "s")
    put("sim.interactions", interactions, "count")
    for engine in ENGINES:
        put(f"sim.trials.{engine}", counted(f"sim.trials.{engine}"),
            "count")
        put(f"sim.seconds.{engine}", counted(f"sim.seconds.{engine}"),
            "s")
    put("sim.ensemble_rounds", rounds, "count")
    put("sim.interactions_per_round",
        round_interactions / rounds if rounds else 0.0, "count")

    kernel_calls = calls("kernels.call")
    jit_interactions = sum(telemetry("engine.interactions", engine=e)
                           for e in ("count-ensemble-jit", "count-jit"))
    put("kernels.calls", kernel_calls, "count")
    put("kernels.busy_s", seconds("kernels.call"), "s")
    put("kernels.interactions_per_call",
        jit_interactions / kernel_calls if kernel_calls else 0.0, "count")

    stats = (service_stats or {}).get("counters", {})
    cached = stats.get("service.cache.hit", 0)
    computed = stats.get("service.enqueued", 0)
    coalesced = stats.get("service.coalesced", 0)
    simulations = stats.get("service.completed", 0)
    put("service.requests.cached", cached, "count")
    put("service.requests.computed", computed, "count")
    put("service.requests.coalesced", coalesced, "count")
    put("service.submit_s", seconds("service.submit"), "s")
    put("service.http_s",
        client_latency_s - seconds("service.handle")
        if service_stats is not None else 0.0, "s")
    put("service.queue_wait_s", counted("service.queue_wait_s"), "s")
    put("service.job_s", seconds("service.job"), "s")
    put("service.simulations_run", simulations, "count")
    put("service.coalescing_ratio",
        (computed + coalesced) / simulations if simulations else 0.0,
        "ratio")

    for layer in LAYERS:
        put(f"{layer}.self_s", self_times.get(layer, 0.0), "s")
    attributed = sum(self_times.values())
    put("trace.wall_s", wall, "s")
    put("trace.overhead_s", wall - untraced_wall, "s")
    put("trace.unattributed_s", wall - attributed, "s")
    return metrics
