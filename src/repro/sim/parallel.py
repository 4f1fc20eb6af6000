"""Parallel trial execution across processes.

Paper-scale sweeps run hundreds of independent trials per point;
they are embarrassingly parallel.  :func:`run_trials_parallel` is a
drop-in replacement for :func:`repro.sim.run.simulate` that fans
trials out over a process pool while preserving the *exact*
sequential results: both derive per-trial (or, for the ensemble
engine, per-chunk) generators by spawning the same ``SeedSequence``,
so a :class:`~repro.sim.run.RunSpec` with ``seed=7`` returns the same
list in parallel as sequentially (modulo order of execution, which is
re-sorted).

The spec is shipped to each worker exactly once, through the pool
initializer — jobs carry only a trial index and a spawned
``SeedSequence``, so large protocols are not re-pickled per job.
With the ensemble engine each worker advances a whole sub-ensemble
(one chunk of :data:`repro.sim.run.ENSEMBLE_CHUNK_TRIALS` trials) per
job instead of a single trial.

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
``BrokenProcessPool``, marking the failure as transient so sweep
drivers — the runstore orchestrator in particular — can retry the
batch with backoff instead of aborting the sweep.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from ..errors import InvalidParameterError, WorkerError
from ..rng import ensure_rng
from ..telemetry import InMemorySink, Telemetry
from ..telemetry.context import activate, reset
from ..telemetry.context import use as use_telemetry
from .kernels import warm_up_for_spec
from .results import RunResult, TrialStats
from .run import (
    RunSpec,
    _legacy_spec,
    _reject_extras,
    ensemble_chunks,
    make_run_engine,
    raise_unsettled,
    resolve_trial_engine,
)

__all__ = ["run_trials_parallel"]

#: Per-worker state, populated once by the pool initializer so the
#: spec (protocol included) is pickled per worker, not per job.
_WORKER: dict = {}


def _init_worker(spec: RunSpec, collect: bool) -> None:
    _WORKER.clear()
    # Fork-started workers inherit the parent's ambient telemetry stack
    # (and with it any open trace-file handle); start from a clean one.
    reset()
    _WORKER["spec"] = spec
    initial, expected = spec.resolve_input()
    _WORKER["initial"] = initial
    _WORKER["expected"] = expected
    # Kernel warm-up happens once per worker, never inside a job: the
    # first cext load may pay a compiler run, which does not belong in
    # a timed trial.  Never
    # fatal -- an unusable backend just means the engines run numpy.
    try:
        warm_up_for_spec(spec)
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


def _run_one(job) -> tuple[int, RunResult, list[dict] | None]:
    index, seed_seq = job
    spec = _WORKER["spec"]
    engine = _WORKER.get("engine")
    if engine is None:
        engine = make_run_engine(spec)
        _WORKER["engine"] = engine
    result = engine.run(_WORKER["initial"],
                        rng=np.random.default_rng(seed_seq),
                        max_steps=spec.max_steps,
                        max_parallel_time=spec.max_parallel_time,
                        expected=_WORKER["expected"],
                        recorder=spec.recorder,
                        event_observer=spec.event_observer,
                        faults=spec.faults,
                        on_timeout=spec.on_timeout)
    return index, result, _drain_records()


def _run_chunk(job) -> tuple[int, list[RunResult], list[dict] | None]:
    start, size, seed_seq = job
    spec = _WORKER["spec"]
    engine = _WORKER.get("engine")
    if engine is None:
        # Re-resolve from the spec so the worker advances its chunk on
        # the same ensemble engine (token or count) the sequential
        # runner would pick — resolution is deterministic, so parallel
        # stays bit-identical to sequential for every engine choice.
        engine, _ = resolve_trial_engine(spec)
        _WORKER["engine"] = engine
    results = engine.run_ensemble(
        _WORKER["initial"], num_trials=size,
        rng=np.random.default_rng(seed_seq),
        expected=_WORKER["expected"],
        max_steps=spec.max_steps,
        max_parallel_time=spec.max_parallel_time,
        faults=spec.faults)
    return start, results, _drain_records()


def _spawn_sequences(seed, count: int) -> list[np.random.SeedSequence]:
    """The same children :func:`repro.rng.spawn` would produce, but as
    picklable ``SeedSequence`` objects for cheap job payloads."""
    return ensure_rng(seed).bit_generator.seed_seq.spawn(count)


def run_trials_parallel(spec_or_protocol, *, processes: int | None = None,
                        stats: bool = False, telemetry=None,
                        **kwargs) -> list[RunResult] | TrialStats:
    """Run a spec's trials in parallel across a process pool.

    Preferred form: ``run_trials_parallel(spec, processes=...)``; the
    historical ``run_trials_parallel(protocol, num_trials=..., ...)``
    keyword form still works but emits a :class:`DeprecationWarning`.
    ``processes`` bounds the pool size (default: CPU count); the spec
    must be picklable (every protocol in the library is; telemetry is
    stripped before shipping and merged back by record replay).
    Engine resolution matches :func:`~repro.sim.run.simulate`,
    including the automatic upgrade to the ensemble engine — whose
    chunked fan-out is deliberately identical to the sequential
    runner's, so the two agree bit-for-bit for every engine choice.
    """
    if isinstance(spec_or_protocol, RunSpec):
        _reject_extras("run_trials_parallel", kwargs)
        spec = spec_or_protocol
        if telemetry is not None:
            spec = spec.replace(telemetry=telemetry)
    else:
        if telemetry is not None:
            kwargs["telemetry"] = telemetry
        spec = _legacy_spec("run_trials_parallel", spec_or_protocol,
                            **kwargs)
    if processes is not None and processes < 1:
        raise InvalidParameterError(
            f"processes must be >= 1, got {processes}")
    with use_telemetry(spec.telemetry) as active:
        ensemble, fallback = resolve_trial_engine(spec)
        if active.enabled:
            if fallback is not None:
                active.event("engine.fallback", requested="auto",
                             reason=fallback,
                             protocol=spec.protocol.name,
                             num_trials=spec.num_trials)
            active.count("sim.trials", spec.num_trials,
                         protocol=spec.protocol.name)
        shipped = spec.replace(telemetry=None)
        if ensemble is not None:
            results = _map_ensemble_chunks(shipped, processes, active)
        else:
            results = _map_single_trials(shipped, processes, active)
    if stats:
        return TrialStats.from_results(results)
    return results


def _map_single_trials(spec: RunSpec, processes, telemetry
                       ) -> list[RunResult]:
    jobs = list(enumerate(_spawn_sequences(spec.seed, spec.num_trials)))
    workers = processes if processes is not None \
        else (os.cpu_count() or 1)
    # Aim for ~4 map chunks per worker: small batches must not collapse
    # into a handful of oversized chunks that idle the rest of the pool.
    chunksize = max(1, spec.num_trials // (4 * workers))
    with ProcessPoolExecutor(
            max_workers=processes, initializer=_init_worker,
            initargs=(spec, telemetry.enabled)) as pool:
        outcomes = _map_or_worker_error(pool, _run_one, jobs,
                                        chunksize=chunksize)
    outcomes.sort(key=lambda item: item[0])
    _merge_records(telemetry, outcomes)
    return [result for _, result, _ in outcomes]


def _map_or_worker_error(pool, fn, jobs, chunksize=1):
    """``pool.map`` with pool crashes translated to :class:`WorkerError`."""
    try:
        return list(pool.map(fn, jobs, chunksize=chunksize))
    except BrokenProcessPool as crash:
        raise WorkerError(
            "a worker process died before returning its trials; "
            "the batch is safe to retry") from crash


def _merge_records(telemetry, outcomes) -> None:
    """Replay worker telemetry records into the parent's sinks,
    ordered by trial/chunk index so merged traces are deterministic."""
    if not telemetry.enabled:
        return
    for _, _, records in outcomes:
        if records:
            telemetry.ingest(records)


def _map_ensemble_chunks(spec: RunSpec, processes, telemetry
                         ) -> list[RunResult]:
    sizes = ensemble_chunks(spec.num_trials)
    children = _spawn_sequences(spec.seed, len(sizes))
    jobs = []
    start = 0
    for size, child in zip(sizes, children):
        jobs.append((start, size, child))
        start += size
    with ProcessPoolExecutor(
            max_workers=processes, initializer=_init_worker,
            initargs=(spec, telemetry.enabled)) as pool:
        outcomes = _map_or_worker_error(pool, _run_chunk, jobs)
    outcomes.sort(key=lambda item: item[0])
    _merge_records(telemetry, outcomes)
    results = [result for _, chunk, _ in outcomes
               for result in chunk]
    if spec.on_timeout == "raise":
        raise_unsettled(results)
    return results
