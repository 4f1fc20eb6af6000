"""The service's worker pool: threads draining the job queue.

Each worker claims jobs from the :class:`~repro.service.jobs.JobQueue`
and runs them through a per-job
:class:`~repro.runstore.orchestrator.Orchestrator` — the same
cache/journal machinery every CLI sweep uses — so a service job
is committed to the run store exactly like a local one, checkpointed
at the deterministic trial-chunk boundaries, and bit-identical to what
``simulate(spec)`` would return.

Threads, not processes: the engines spend their time inside numpy and
the compiled kernels, which release the GIL, and the per-trial fan-out
below a point can still go multi-process through
:func:`~repro.sim.parallel.run_trials_parallel` if a deployment needs
it.  Kernel warm-up (the C build and load) happens once per
worker thread on its first job of each engine family — never inside a
timed chunk (mirroring the pool initializer in
:mod:`repro.sim.parallel`).

Graceful shutdown: :meth:`WorkerPool.stop` with ``graceful=True``
raises :class:`~repro.errors.JobInterrupted` inside the orchestrator
at the next chunk boundary; the job's completed chunks are already in
its journal, the job is requeued, and the durable service queue still
holds its submission — so a restarted server resumes the point instead
of recomputing it.
"""

from __future__ import annotations

import threading
import traceback

from ..errors import JobInterrupted
from ..runstore.distributed import LeaseManager, new_worker_id
from ..runstore.orchestrator import Orchestrator
from ..sim.kernels import warm_up_for_spec
from ..telemetry import JsonlTraceSink, Telemetry
from ..telemetry.context import use as use_telemetry
from .jobs import Job, JobQueue

__all__ = ["WorkerPool"]

#: How long a worker sleeps on an empty queue before re-checking the
#: stop flag.  Purely a shutdown-latency knob.
_IDLE_WAIT = 0.1


class WorkerPool:
    """``num_workers`` daemon threads executing queued jobs.

    Parameters
    ----------
    queue:
        The shared :class:`JobQueue`.
    store:
        The :class:`~repro.runstore.store.RunStore` jobs commit to.
    on_done / on_failed:
        Callbacks ``(job)`` / ``(job, message)`` invoked after the
        queue state is updated — the service uses them to append the
        durable completion records and bump its counters.
    sinks:
        Extra telemetry sinks every job's records also flow into
        (the service's in-memory aggregate); each job additionally
        writes its own JSONL trace under the store's service dir,
        which is what ``GET /runs/{id}/trace`` streams.
    """

    def __init__(self, queue: JobQueue, store, *, num_workers: int = 2,
                 on_done=None, on_failed=None, sinks=()):
        if num_workers < 1:
            raise ValueError(
                f"num_workers must be >= 1, got {num_workers}")
        self.queue = queue
        self.store = store
        self.num_workers = num_workers
        self._on_done = on_done
        self._on_failed = on_failed
        self._sinks = tuple(sinks)
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        if self._threads:
            raise RuntimeError("worker pool is already running")
        self._stop.clear()
        for index in range(self.num_workers):
            thread = threading.Thread(
                target=self._loop, name=f"repro-service-worker-{index}",
                daemon=True)
            thread.start()
            self._threads.append(thread)

    def stop(self, *, graceful: bool = True, timeout: float = 30.0
             ) -> None:
        """Stop the pool.

        ``graceful=True`` lets running jobs checkpoint at the next
        chunk boundary (they are requeued for the next start);
        the flag is the orchestrator's ``should_stop`` hook, so
        nothing is ever torn mid-chunk either way.
        """
        self._stop.set()
        self.queue.wake_all()
        for thread in self._threads:
            thread.join(timeout=timeout if graceful else 1.0)
        self._threads = []

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    # -- the worker loop ----------------------------------------------

    def _loop(self) -> None:
        warmed: set[str] = set()
        # Each worker thread shares the store's lease protocol with
        # any distributed sweep workers (``--workers N`` / ``python -m
        # repro workers start``) on the same store: a point being
        # computed by either side is leased, so the other waits and
        # serves it from the cache instead of duplicating the engine
        # run.
        worker_id = new_worker_id("svc")
        leases = LeaseManager(self.store.leases_dir, worker_id)
        while not self._stop.is_set():
            job = self.queue.next_job(timeout=_IDLE_WAIT)
            if job is None:
                continue
            if self._stop.is_set():
                # Claimed during shutdown: hand it straight back.
                self.queue.requeue(job)
                return
            self._execute(job, warmed, leases=leases,
                          worker_id=worker_id)

    def _execute(self, job: Job, warmed: set, *, leases=None,
                 worker_id=None) -> None:
        engine = job.payload.get("engine", "auto")
        if engine not in warmed:
            # Once per worker per engine family, outside any chunk.
            warmed.add(engine)
            try:
                warm_up_for_spec(job.spec)
            except Exception:
                pass  # an unusable backend just means numpy engines
        trace_path = self.store.service_trace_path(job.id)
        telemetry = Telemetry([JsonlTraceSink(trace_path), *self._sinks])
        orchestrator = Orchestrator(
            self.store, sweep=sweep_name(job.id), resume=True,
            should_stop=self._stop.is_set,
            leases=leases, worker=worker_id)
        try:
            with use_telemetry(telemetry):
                row = orchestrator.spec_point(job.spec)
            orchestrator.finish()
            # Per-worker journal names change across restarts; sweep-
            # wide cleanup drops any stale peers' files too.
            self.store.clear_sweep_journals(sweep_name(job.id))
            entry = self.store.get(job.id) or {}
            self.queue.mark_done(job, row, entry.get("meta"))
            if self._on_done is not None:
                self._on_done(job)
        except JobInterrupted:
            # Chunks up to here are journaled; the job goes back to
            # the front of the line and resumes after restart.
            self.queue.requeue(job)
        except Exception as failure:
            message = "".join(traceback.format_exception_only(
                type(failure), failure)).strip()
            self.queue.mark_failed(job, message)
            if self._on_failed is not None:
                self._on_failed(job, message)
        finally:
            telemetry.close()


def sweep_name(fp: str) -> str:
    """Journal name for a service job's chunk checkpoints."""
    return f"service-{fp[:16]}"
