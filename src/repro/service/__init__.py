"""Simulation-as-a-service over the content-addressed run store.

The package turns the repo's one-door simulation API into a long-lived
server: clients ``POST`` RunSpec JSON to ``/runs`` and get back a job
id that *is* the run store's content fingerprint — so duplicate
submissions coalesce while in flight and hit the cache forever after,
and a result computed by any CLI sweep is served warm by the service
(and vice versa).

Layers, bottom up:

* :mod:`~repro.service.jobs` — bounded, coalescing, thread-safe job
  queue keyed by fingerprint;
* :mod:`~repro.service.workers` — worker threads running jobs through
  the ordinary :class:`~repro.runstore.orchestrator.Orchestrator`
  (chunk checkpoints, cache commits), with per-job JSONL
  traces and graceful-shutdown checkpointing;
* :mod:`~repro.service.service` — :class:`SimulationService`, the
  transport-agnostic operations (+ durable queue for restart resume);
* :mod:`~repro.service.app` — stdlib ASGI app (:func:`make_app`);
* :mod:`~repro.service.http` — threaded stdlib HTTP bridge so
  ``python -m repro serve`` needs no external server.

Quick start (in process)::

    from repro.service import ServiceConfig, SimulationService, make_app
    from repro.service.http import start_in_thread

    service = SimulationService(config=ServiceConfig(output_dir="results"))
    service.start()
    server, base_url = start_in_thread(make_app(service))
    # POST {"schema": 1, "protocol": {"kind": "exact-majority"},
    #       "n": 1000, "epsilon": 0.1, "num_trials": 5, "seed": 7}
    # to f"{base_url}/runs" ...
"""

from .app import make_app
from .errors import (
    QueueFullError,
    RateLimitedError,
    ServiceError,
    UnknownJobError,
)
from .jobs import Job, JobQueue
from .ratelimit import RateLimiter
from .service import ServiceConfig, SimulationService
from .workers import WorkerPool

__all__ = [
    "SimulationService",
    "ServiceConfig",
    "make_app",
    "Job",
    "JobQueue",
    "WorkerPool",
    "RateLimiter",
    "ServiceError",
    "QueueFullError",
    "RateLimitedError",
    "UnknownJobError",
]
