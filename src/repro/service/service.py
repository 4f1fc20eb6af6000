"""The simulation service: HTTP-shaped operations over the run store.

:class:`SimulationService` is transport-agnostic — the stdlib ASGI app
(:mod:`repro.service.app`) and the tests drive the same four
operations:

* :meth:`submit` — ``POST /runs``: parse a RunSpec wire form, answer
  cached fingerprints straight from the store (zero engine work),
  coalesce duplicates of in-flight work, enqueue the rest;
* :meth:`get` — ``GET /runs/{id}``: job status or the committed row;
* :meth:`list_runs` — ``GET /runs``: live jobs + committed points;
* :meth:`stats` — ``GET /stats``: the ``service.*`` counters, queue
  depths, and store totals.

Every submission is also appended to the store's durable service
queue, and completions are recorded there too — so a restarted server
re-enqueues exactly the submissions that never completed, resuming
their chunk checkpoints through the ordinary journals.

Telemetry: the service carries its own :class:`Telemetry` over an
in-memory sink.  Requests bump ``service.requests`` (labelled by
endpoint and outcome), cache hits ``service.cache.hit``, coalesced
duplicates ``service.coalesced``, enqueues ``service.enqueued``, and
completions ``service.completed`` / ``service.failed``; rejected
submissions count ``service.rejected`` with a ``reason`` label.  Every
job's engine/runstore records flow into the same sink, which is how
the acceptance tests prove a cached ``POST /runs`` never enters an
engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..errors import InvalidParameterError
from ..runstore.fingerprint import fingerprint, spec_from_key
from ..runstore.orchestrator import stale_reason
from ..runstore.store import RunStore
from ..sim.run import RunSpec
from ..telemetry import InMemorySink, Telemetry
from .errors import UnknownJobError
from .jobs import ACTIVE_STATES, Job, JobQueue
from .ratelimit import RateLimiter
from .workers import WorkerPool, sweep_name

__all__ = ["ServiceConfig", "SimulationService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one service instance (all have serving defaults)."""

    output_dir: str | None = None     #: store location (None: results/)
    num_workers: int = 2              #: worker threads
    queue_size: int = 64              #: bounded queued-job capacity
    retry_after: float = 1.0          #: 429 Retry-After hint (queue)
    rate_limit: float | None = None   #: per-client requests/s (None: off)
    rate_burst: float | None = None   #: bucket size (None: max(1, rate))
    max_wait: float = 60.0            #: cap on blocking ?wait= seconds
    poll_interval: float = 0.05       #: trace/wait polling granularity
    resume: bool = True               #: re-enqueue pending jobs on start


class SimulationService:
    """Queue + workers + store behind one front door.

    ``store`` defaults to the config's output directory (the same
    resolution every experiment CLI uses, so the service serves the
    exact cache the CLIs populate, and vice versa).
    """

    def __init__(self, store: RunStore | None = None, *,
                 config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.store = store if store is not None else \
            RunStore.for_output_dir(self.config.output_dir)
        self.sink = InMemorySink()
        self.telemetry = Telemetry([self.sink])
        self.queue = JobQueue(self.config.queue_size,
                              retry_after=self.config.retry_after)
        self.limiter = RateLimiter(self.config.rate_limit,
                                   self.config.rate_burst)
        self.pool = WorkerPool(
            self.queue, self.store,
            num_workers=self.config.num_workers,
            on_done=self._record_done, on_failed=self._record_failed,
            sinks=self.telemetry.sinks)
        self.started_at: float | None = None

    # -- lifecycle ----------------------------------------------------

    def start(self) -> int:
        """Start the workers; returns how many jobs were resumed."""
        resumed = self._resume_pending() if self.config.resume else 0
        self.pool.start()
        self.started_at = time.time()
        return resumed

    def stop(self, *, graceful: bool = True) -> None:
        """Stop the workers.

        Graceful: running jobs checkpoint at the next chunk boundary
        and stay pending in the durable queue for the next start.
        """
        self.pool.stop(graceful=graceful)

    def _resume_pending(self) -> int:
        """Re-enqueue durable submissions that never completed.

        Submissions whose fingerprint is already committed (the server
        died between the store commit and the completion record) are
        marked done without touching the queue.
        """
        resumed = 0
        for record in self.store.pending_submissions():
            fp = record["point"]
            if fp in self.store:
                self.store.service_queue().append(
                    {"event": "done", "point": fp, "resumed": True})
                continue
            try:
                spec = RunSpec.from_json(record["spec"])
            except InvalidParameterError:
                self.store.service_queue().append(
                    {"event": "failed", "point": fp,
                     "error": "unreplayable spec in service queue"})
                continue
            job = Job(id=fp, spec=spec, payload=record["spec"])
            self.queue.submit(lambda: job)
            resumed += 1
        if resumed:
            self.telemetry.count("service.resumed", resumed)
        return resumed

    # -- operations ---------------------------------------------------

    def submit(self, payload, *, client: str = "anonymous") -> dict:
        """``POST /runs``: one spec in, one job-or-result view out.

        Raises :class:`~repro.errors.InvalidParameterError` (HTTP 422)
        for malformed or non-addressable specs,
        :class:`~repro.service.errors.RateLimitedError` /
        :class:`~repro.service.errors.QueueFullError` (both 429) for
        over-budget clients and a full queue.
        """
        self.limiter.check(client)
        started = time.perf_counter()
        spec = RunSpec.from_json(payload)
        try:
            key = spec.key()
        except ValueError as error:
            raise InvalidParameterError(str(error)) from None
        fp = fingerprint(key)
        wire = spec.to_json()
        entry = self.store.get(fp)
        if entry is not None and stale_reason(entry, spec) is not None:
            # Computed on an engine the current routing no longer picks:
            # a miss, recomputed (and overwritten) by the job below.
            self.telemetry.count("runstore.cache.stale", kind="service")
            entry = None
        if entry is not None:
            # The content-addressed fast path: a million identical
            # submissions cost one simulation.  No job, no queue, no
            # engine — straight from the store.
            self.telemetry.count("service.cache.hit")
            self._count_request("submit", "cached", started)
            return self._entry_view(fp, entry)
        job, created = self.queue.submit(
            lambda: Job(id=fp, spec=spec, payload=wire))
        if not created:
            self.telemetry.count("service.coalesced")
            self._count_request("submit", "coalesced", started)
            return self._job_view(job)
        if job.status in ACTIVE_STATES:
            self.store.service_queue().append(
                {"event": "submit", "point": fp, "spec": wire})
            self.telemetry.count("service.enqueued")
            self._count_request("submit", "enqueued", started)
        else:
            # The job the queue handed back had already finished in a
            # previous life (done/failed table entry being resubmitted
            # after completion): treat like a fresh enqueue result.
            self._count_request("submit", job.status, started)
        return self._job_view(job)

    def get(self, job_id: str, *, wait: float = 0.0) -> dict:
        """``GET /runs/{id}``: live job view or the committed entry.

        ``wait`` blocks (capped at ``config.max_wait`` seconds) until
        the job finishes — long-polling for cheap clients.  A committed
        ``auto`` entry the current routing would not produce (see
        :func:`~repro.runstore.orchestrator.stale_reason`) is not
        served: it answers as unknown, to be resubmitted.
        """
        started = time.perf_counter()
        job = self.queue.get(job_id)
        if job is not None:
            if wait > 0 and job.status in ACTIVE_STATES:
                job.done_event.wait(min(wait, self.config.max_wait))
            self._count_request("get", job.status, started)
            return self._job_view(job)
        entry = self.store.get(job_id)
        if entry is not None and self._stale(entry):
            self.telemetry.count("runstore.cache.stale", kind="service")
            self._count_request("get", "stale", started)
            raise UnknownJobError(
                f"run {job_id!r} is stale; resubmit its spec")
        if entry is not None:
            self._count_request("get", "cached", started)
            return self._entry_view(job_id, entry)
        self._count_request("get", "unknown", started)
        raise UnknownJobError(f"no run under id {job_id!r}")

    @staticmethod
    def _stale(entry: dict) -> bool:
        """Whether a committed entry is stale on this host.

        Only ``auto`` entries can be; the spec is rebuilt from the key
        for those alone, so ordinary reads parse nothing.
        """
        if (entry.get("meta") or {}).get("engine_requested") != "auto":
            return False
        spec = spec_from_key(entry["key"])
        return stale_reason(entry, spec) is not None

    def list_runs(self, *, status: str | None = None,
                  include_store: bool = False, limit: int = 200) -> dict:
        """``GET /runs``: live jobs (+ optionally committed points)."""
        started = time.perf_counter()
        jobs = [job.describe() for job in self.queue.jobs(status)]
        view: dict = {
            "jobs": jobs[:limit],
            "counts": self.queue.counts(),
        }
        if include_store:
            committed = []
            for entry in self.store.entries():
                key = entry.get("key") or {}
                committed.append({
                    "id": entry.get("fingerprint"),
                    "status": "done",
                    "cached": True,
                    "kind": key.get("kind"),
                    "protocol": (key.get("protocol") or {}).get("kind"),
                    "n": key.get("n"),
                    "trials": key.get("trials"),
                })
                if len(committed) >= limit:
                    break
            view["committed"] = committed
        self._count_request("list", "ok", started)
        return view

    def trace_ref(self, job_id: str) -> tuple:
        """``(path, live)`` for a job's JSONL trace stream.

        ``live`` is ``True`` while the job may still append records —
        the streaming endpoint keeps tailing until it flips.  Raises
        :class:`UnknownJobError` when neither a trace file nor an
        active job exists (cache-served submissions never ran an
        engine, so they have no trace).
        """
        path = self.store.service_trace_path(job_id)
        job = self.queue.get(job_id)
        live = job is not None and job.status in ACTIVE_STATES
        if not path.exists() and not live:
            raise UnknownJobError(
                f"no trace for {job_id!r} (unknown id, or the result "
                "was served from cache without entering an engine)")
        return path, live

    def job_active(self, job_id: str) -> bool:
        job = self.queue.get(job_id)
        return job is not None and job.status in ACTIVE_STATES

    def stats(self) -> dict:
        """``GET /stats``: counters, queue state, and store totals."""
        counters = {}
        for record in self.sink.records:
            if record["kind"] == "counter" and \
                    record["name"].startswith("service."):
                name = record["name"]
                counters[name] = counters.get(name, 0) + record["value"]
        return {
            "uptime_seconds": (time.time() - self.started_at
                               if self.started_at else None),
            "workers": self.pool.num_workers,
            "queue": self.queue.counts(),
            "counters": counters,
            "store": {
                "committed_points": sum(1 for _ in self.store.entries()),
                "pending_submissions":
                    len(self.store.pending_submissions()),
                "in_flight_points": len(self.store.in_flight()),
            },
        }

    # -- plumbing -----------------------------------------------------

    def _count_request(self, endpoint: str, outcome: str,
                       started: float) -> None:
        self.telemetry.count("service.requests", endpoint=endpoint,
                             outcome=outcome)
        self.telemetry.record_span("service.request",
                                   time.perf_counter() - started,
                                   endpoint=endpoint, outcome=outcome)

    def _record_done(self, job: Job) -> None:
        self.store.service_queue().append(
            {"event": "done", "point": job.id})
        self.telemetry.count("service.completed")

    def _record_failed(self, job: Job, message: str) -> None:
        self.store.service_queue().append(
            {"event": "failed", "point": job.id, "error": message})
        self.telemetry.count("service.failed")

    def _job_view(self, job: Job) -> dict:
        view = dict(job.describe(), cached=False)
        if job.status == "done":
            view["row"] = job.row
            view["meta"] = job.meta
        if job.status == "queued":
            view["queue_position"] = self._position(job.id)
        view["links"] = self._links(job.id)
        return view

    def _entry_view(self, fp: str, entry: dict) -> dict:
        meta = entry.get("meta") or {}
        key = entry.get("key") or {}
        return {
            "id": fp,
            "status": "done",
            "cached": True,
            "protocol": (key.get("protocol") or {}).get("kind"),
            "n": key.get("n"),
            "trials": key.get("trials"),
            "row": entry.get("row"),
            "meta": meta,
            "links": self._links(fp),
        }

    def _position(self, job_id: str) -> int | None:
        for index, job in enumerate(self.queue.jobs("queued")):
            if job.id == job_id:
                return index
        return None

    def _links(self, fp: str) -> dict:
        return {"self": f"/runs/{fp}", "trace": f"/runs/{fp}/trace"}

    def sweep_journal_name(self, fp: str) -> str:
        """The per-job chunk journal's sweep name (introspection)."""
        return sweep_name(fp)
