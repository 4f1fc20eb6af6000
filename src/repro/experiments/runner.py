"""Shared sweep machinery for the experiment modules.

Every sweep point funnels through a :class:`~repro.sim.run.RunSpec`
and :func:`repro.sim.run.simulate`, so trial fan-out inherits its
engine routing: ``engine="ensemble"`` (or an eligible ``"auto"``
resolution) advances all trials of the point simultaneously on the
vectorized ensemble engine instead of looping the single-run engines
trial by trial.

The experiment ``main``s run their sweeps through a
:class:`~repro.runstore.Orchestrator` built by
:func:`sweep_orchestrator`: completed points are committed to the
content-addressed run store under ``<output-dir>/.runstore/`` and a
re-invocation with unchanged parameters never re-enters a simulation
engine; ``--resume`` additionally replays mid-point chunk checkpoints
left by an interrupted sweep.

Telemetry: every sweep ``main`` also accepts ``--telemetry`` (print
an end-of-run metrics summary) and ``--trace-file PATH`` (write the
raw JSONL trace).  :func:`telemetry_session` activates the ambient
:class:`~repro.telemetry.Telemetry` for the sweep body, so engines,
the trial fan-out, and the orchestrator's cache/journal machinery all
report without any explicit threading.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from ..errors import ExperimentError
from ..protocols.base import MajorityProtocol
from ..runstore import (
    LeaseManager,
    Orchestrator,
    RunStore,
    WorkerStatus,
    lease_ttl_from_env,
    new_worker_id,
    read_worker_statuses,
)
from ..runstore.workers_cli import WorkerFleet
from ..sim.results import TrialStats
from ..sim.run import RunSpec, simulate
from ..telemetry import JsonlTraceSink, SummarySink, Telemetry
from ..telemetry.context import activate, deactivate
from .io import default_output_dir

__all__ = ["measure_majority_point", "add_sweep_arguments",
           "add_telemetry_arguments", "telemetry_session",
           "sweep_orchestrator", "finish_sweep"]


def measure_majority_point(protocol: MajorityProtocol, *, n: int,
                           epsilon: float, trials: int, seed: int,
                           engine: str = "auto",
                           max_parallel_time: float | None = None,
                           batch_fraction: float = 0.05) -> dict:
    """Run one sweep point and return a flat result row.

    The row carries everything a figure needs: the mean/std parallel
    convergence time over settled trials, the error fraction (settled
    runs that decided for the initial minority), and bookkeeping
    columns (protocol, engine, trial count, wall time).
    """
    started = time.perf_counter()
    spec = RunSpec(protocol, n=n, epsilon=epsilon, num_trials=trials,
                   seed=seed, engine=engine,
                   max_parallel_time=max_parallel_time,
                   batch_fraction=batch_fraction)
    stats: TrialStats = simulate(spec, stats=True)
    elapsed = time.perf_counter() - started
    return {
        "protocol": protocol.name,
        "engine": engine,
        "n": n,
        "epsilon": epsilon,
        "trials": stats.num_trials,
        "settled_fraction": stats.settled_fraction,
        "mean_parallel_time": stats.mean_parallel_time,
        "std_parallel_time": stats.std_parallel_time,
        "min_parallel_time": stats.min_parallel_time,
        "max_parallel_time": stats.max_parallel_time,
        "error_fraction": stats.error_fraction,
        "wall_seconds": elapsed,
    }


def add_sweep_arguments(parser, *, workers: bool = False) -> None:
    """The run-store flags every sweep ``main`` shares.

    ``workers=True`` additionally exposes the distributed-execution
    flags; only sweeps whose ``*_rows`` function drains the work queue
    (figure3/figure4/robustness/successors/byzantine) may enable it.
    """
    parser.add_argument("--output-dir", default=None,
                        help="directory for CSVs and the run store "
                             "(default: results/ or $REPRO_OUTPUT_DIR)")
    parser.add_argument("--resume", action="store_true",
                        help="replay chunk checkpoints an interrupted "
                             "sweep left in the journal")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every point even when the run "
                             "store already holds it")
    if workers:
        parser.add_argument(
            "--workers", type=int, default=1, metavar="N",
            help="drain the grid with N cooperating worker processes "
                 "(this one plus N-1 forked helpers) claiming points "
                 "via leases on the run store; outputs are "
                 "byte-identical to a single-process sweep")
        parser.add_argument(
            "--lease-ttl", type=float, default=None, metavar="SECONDS",
            help="stale-lease TTL for --workers > 1 (default: "
                 "$REPRO_LEASE_TTL or 600); a worker silent for this "
                 "long is presumed dead and its point is reclaimed")


def add_telemetry_arguments(parser) -> None:
    """The telemetry flags every sweep ``main`` shares."""
    parser.add_argument("--telemetry", action="store_true",
                        help="collect engine/runstore metrics and print "
                             "a summary when the sweep finishes")
    parser.add_argument("--trace-file", default=None, metavar="PATH",
                        help="write the raw telemetry records as a JSONL "
                             "trace to PATH (implies --telemetry; "
                             "validate with 'python -m repro.telemetry')")


@contextmanager
def telemetry_session(args, *, session: str = "sweep"):
    """Activate ambient telemetry for a sweep body per the CLI flags.

    Yields the active :class:`~repro.telemetry.Telemetry` (or ``None``
    when neither ``--telemetry`` nor ``--trace-file`` was given).  On
    exit the summary is printed, the trace file is flushed and closed,
    and the ambient activation is popped even on error — a crashed
    sweep still leaves a readable trace prefix.
    """
    trace_file = getattr(args, "trace_file", None)
    if not (getattr(args, "telemetry", False) or trace_file):
        yield None
        return
    summary = SummarySink()
    sinks = [summary]
    if trace_file:
        sinks.append(JsonlTraceSink(trace_file))
    telemetry = Telemetry(sinks)
    activate(telemetry)
    telemetry.event("session.start", session=session)
    try:
        yield telemetry
    finally:
        telemetry.event("session.end", session=session)
        deactivate(telemetry)
        telemetry.close()
        print()
        print(summary.render())
        if trace_file:
            print(f"wrote trace {trace_file}")


def sweep_orchestrator(sweep: str, args, *, progress=None):
    """Build ``(orchestrator, output_dir)`` for one sweep ``main``.

    With ``--workers N > 1`` the orchestrator comes back in
    distributed work-queue mode: point calls return placeholder rows,
    and the first :meth:`~repro.runstore.Orchestrator.drain` publishes
    the work manifest, forks ``N - 1`` helper worker processes, and
    computes the grid cooperatively with them under per-point leases.
    ``finish_sweep`` joins the helpers and audits for duplicate
    simulations.
    """
    output_dir = (default_output_dir() if args.output_dir is None
                  else args.output_dir)
    store = RunStore.for_output_dir(output_dir)
    workers = int(getattr(args, "workers", 1) or 1)
    if workers <= 1:
        orchestrator = Orchestrator(
            store, sweep=sweep, resume=args.resume,
            use_cache=not args.no_cache, progress=progress)
        return orchestrator, output_dir
    if args.no_cache:
        raise ExperimentError(
            "--no-cache is incompatible with --workers > 1: the "
            "content-addressed cache is how cooperating workers "
            "exchange results")
    worker_id = new_worker_id("lead")
    leases = LeaseManager(store.leases_dir, worker_id,
                          ttl=lease_ttl_from_env(
                              getattr(args, "lease_ttl", None)))
    status = WorkerStatus(store.workers_dir, worker_id, sweep=sweep)
    if not args.resume:
        # A fresh (non-resume) distributed sweep must not replay any
        # prior run's checkpoints — clear every worker's journal, not
        # just our own.
        store.clear_sweep_journals(sweep)
    fleet = WorkerFleet(sweep=sweep, output_dir=output_dir,
                        count=workers - 1,
                        lease_ttl=getattr(args, "lease_ttl", None))

    def on_drain(orch):
        entries = orch.manifest()
        orch.queued_points = len(entries)
        if not entries:
            return
        store.write_manifest(sweep, entries)
        if progress is not None:
            progress(f"{sweep}: {len(entries)} point(s) queued; "
                     f"forking {fleet.count} helper worker(s)")
        fleet.launch(store)

    orchestrator = Orchestrator(
        store, sweep=sweep, resume=True, progress=progress,
        leases=leases, worker=worker_id, defer=True, status=status,
        on_drain=on_drain)
    orchestrator.fleet = fleet
    orchestrator.fleet_epoch = status.started_at
    return orchestrator, output_dir


def finish_sweep(orchestrator: Orchestrator) -> str:
    """Retire the sweep journal; return a one-line cache summary.

    For a distributed sweep this also joins the helper fleet, clears
    the sweep's journals and manifest, and appends a fleet line with
    the duplicate-simulation audit: total points computed across every
    worker minus distinct points queued — pinned at 0 when the lease
    protocol did its job (and never affecting correctness otherwise,
    since duplicate commits are byte-identical).
    """
    counters = orchestrator.counters
    fleet = getattr(orchestrator, "fleet", None)
    extra = ""
    orchestrator.finish()
    if fleet is not None:
        failures = fleet.join()
        store, sweep = orchestrator.store, orchestrator.sweep
        store.clear_sweep_journals(sweep)
        store.clear_manifest(sweep)
        # Only this run's workers: status files of an earlier run of
        # the same sweep (not yet gc'd) predate the lead's epoch and
        # must not pollute the duplicate audit.
        epoch = getattr(orchestrator, "fleet_epoch", 0.0)
        statuses = [status for status in
                    read_worker_statuses(store.workers_dir)
                    if status.get("sweep") == sweep
                    and status.get("started_at", 0.0) >= epoch]
        fleet_computed = sum(
            status.get("counters", {}).get("computed", 0)
            for status in statuses)
        queued = getattr(orchestrator, "queued_points", None)
        duplicates = (max(0, fleet_computed - queued)
                      if queued is not None else 0)
        reclaims = sum(
            status.get("counters", {}).get("lease_reclaims", 0)
            for status in statuses)
        extra = (f"\nfleet: {len(statuses)} worker(s), "
                 f"{0 if queued is None else queued} point(s) queued, "
                 f"{fleet_computed} computed across the fleet, "
                 f"{duplicates} duplicate simulation(s), "
                 f"{reclaims} lease(s) reclaimed")
        if failures:
            extra += f", {failures} helper(s) failed"
    return (f"runstore: {counters['cached']} cached, "
            f"{counters['computed']} computed "
            f"({counters['resumed_chunks']} chunk(s) resumed)" + extra)
