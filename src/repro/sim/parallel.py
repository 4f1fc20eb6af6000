"""Parallel trial execution across processes.

Paper-scale sweeps run hundreds of independent trials per point;
they are embarrassingly parallel.  :func:`run_trials_parallel` is a
drop-in replacement for :func:`repro.sim.run.simulate` that fans
trials out over a process pool while preserving the *exact*
sequential results: both run the same
:class:`~repro.sim.run.TrialPlan` (per-trial, or for the ensemble
engines per-chunk, generators spawned from the same ``SeedSequence``),
so a :class:`~repro.sim.run.RunSpec` with ``seed=7`` returns the same
list in parallel as sequentially.

The plan is shipped to each worker exactly once, through the pool
initializer — jobs carry only a trial or chunk index, so large
protocols are not re-pickled per job.  With an ensemble engine each
worker advances a whole sub-ensemble (one chunk of
:data:`repro.sim.run.ENSEMBLE_CHUNK_TRIALS` trials) per job instead of
a single trial.

Telemetry crosses the process boundary by record shipping: when the
caller's telemetry is enabled, each worker activates a private
in-memory collector, returns its raw records alongside the results,
and the parent replays them into the real sinks with
:meth:`~repro.telemetry.Telemetry.ingest` — so per-engine counters
(``engine.interactions`` etc.) aggregate across the pool exactly as
in a sequential run.  When telemetry is disabled nothing is
collected or shipped.

A worker process dying mid-map (OOM kill, interpreter abort) surfaces
as :class:`~repro.errors.WorkerError` rather than the raw
``BrokenProcessPool``: every trial is a pure function of its seed, so
the caller may simply run the batch again.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from ..errors import InvalidParameterError, WorkerError
from ..telemetry import InMemorySink, Telemetry
from ..telemetry.context import activate, reset
from ..telemetry.context import use as use_telemetry
from .kernels import warm_up_for_spec
from .results import RunResult, TrialStats
from .run import RunSpec, TrialPlan, _require_spec, plan_trials

__all__ = ["run_trials_parallel"]

#: Per-worker state, populated once by the pool initializer so the
#: plan (spec and protocol included) is pickled per worker, not per job.
_WORKER: dict = {}


def _init_worker(plan: TrialPlan, collect: bool) -> None:
    _WORKER.clear()
    # Fork-started workers inherit the parent's ambient telemetry stack
    # (and with it any open trace-file handle); start from a clean one.
    reset()
    _WORKER["plan"] = plan
    # Kernel warm-up happens once per worker, never inside a job: the
    # first cext load may pay a compiler run, which does not belong in
    # a timed trial.  Never fatal -- an unusable backend just means the
    # engines run numpy.
    try:
        warm_up_for_spec(plan.spec)
    except Exception:
        pass
    if collect:
        sink = InMemorySink()
        _WORKER["sink"] = sink
        activate(Telemetry([sink]))


def _drain_records() -> list[dict] | None:
    sink = _WORKER.get("sink")
    if sink is None:
        return None
    records = list(sink.records)
    sink.clear()
    return records


def _run_trial(index: int) -> tuple[list[RunResult], list | None]:
    return [_WORKER["plan"].run_trial(index)], _drain_records()


def _run_chunk(index: int) -> tuple[list[RunResult], list | None]:
    return _WORKER["plan"].run_chunk(index), _drain_records()


def run_trials_parallel(spec: RunSpec, *, processes: int | None = None,
                        stats: bool = False, telemetry=None,
                        **extra) -> list[RunResult] | TrialStats:
    """Run a spec's trials in parallel across a process pool.

    ``processes`` bounds the pool size (default: CPU count); the spec
    must be picklable (every protocol in the library is; telemetry is
    stripped before shipping and merged back by record replay).  The
    batch follows :func:`~repro.sim.run.plan_trials`, the plan
    :func:`~repro.sim.run.simulate` runs, so the two agree bit-for-bit
    for every engine choice: an ensemble plan maps one job per chunk,
    a per-trial plan one job per trial.
    """
    _require_spec("run_trials_parallel", spec, extra)
    if telemetry is not None:
        spec = spec.replace(telemetry=telemetry)
    if processes is not None and processes < 1:
        raise InvalidParameterError(
            f"processes must be >= 1, got {processes}")
    with use_telemetry(spec.telemetry) as active:
        plan = plan_trials(spec)
        if plan.ensemble is not None:
            run_job, jobs, chunksize = _run_chunk, len(plan.sizes), 1
        else:
            workers = processes if processes is not None \
                else (os.cpu_count() or 1)
            # Aim for ~4 map chunks per worker: small batches must not
            # collapse into a handful of oversized chunks that idle the
            # rest of the pool.
            run_job, jobs = _run_trial, spec.num_trials
            chunksize = max(1, jobs // (4 * workers))
        with ProcessPoolExecutor(
                max_workers=processes, initializer=_init_worker,
                initargs=(plan, active.enabled)) as pool:
            try:
                outcomes = list(pool.map(run_job, range(jobs),
                                         chunksize=chunksize))
            except BrokenProcessPool as crash:
                raise WorkerError(
                    "a worker process died before returning its trials; "
                    "the batch is safe to rerun") from crash
        if active.enabled:
            # Ordered by trial/chunk index so merged traces are
            # deterministic.
            for _, records in outcomes:
                if records:
                    active.ingest(records)
    results = [result for batch, _ in outcomes for result in batch]
    if stats:
        return TrialStats.from_results(results)
    return results
