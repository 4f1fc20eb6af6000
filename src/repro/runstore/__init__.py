"""Resumable, crash-safe experiment orchestration with a result cache.

Long sweeps (hundreds of ``(protocol, n, eps, s)`` points, each worth
minutes of simulation) must survive crashes, ``SIGINT``, and parameter
tweaks without recomputing what is already known.  This package gives
every sweep point a canonical content-address and makes the experiment
harness write-once:

* :mod:`repro.runstore.fingerprint` — the stable hash of a point's
  full defining inputs (protocol + params, n, eps, trials, seed,
  engine, result-schema version);
* :mod:`repro.runstore.store` — the on-disk content-addressed store
  under ``<output-dir>/.runstore/`` with atomic write-then-rename
  commits;
* :mod:`repro.runstore.journal` — the append-only per-sweep JSONL
  journal that checkpoints partially computed points at deterministic
  trial-chunk boundaries;
* :mod:`repro.runstore.orchestrator` — the resumable sweep driver the
  experiment modules run their points through;
* :mod:`repro.runstore.distributed` — the lease layer that lets N
  worker processes (``--workers N`` / ``python -m repro workers
  start``) drain one sweep cooperatively with zero duplicate
  simulation;
* :mod:`repro.runstore.cli` — ``python -m repro runs
  list|status|workers|gc``.

The contract that makes resumption safe: a point's simulation output
is a pure function of its fingerprint key, and chunk boundaries are
derived only from the trial count — so a resumed sweep is bit-identical
to an uninterrupted one.
"""

from .distributed import (
    DEFAULT_LEASE_TTL,
    LeaseLost,
    LeaseManager,
    WorkerStatus,
    lease_ttl_from_env,
    new_worker_id,
    read_worker_statuses,
)
from .fingerprint import (
    RESULT_SCHEMA_VERSION,
    canonical_json,
    fingerprint,
    point_key,
)
from .journal import Journal
from .orchestrator import Orchestrator
from .store import RunStore

__all__ = [
    "DEFAULT_LEASE_TTL",
    "RESULT_SCHEMA_VERSION",
    "canonical_json",
    "fingerprint",
    "lease_ttl_from_env",
    "new_worker_id",
    "point_key",
    "read_worker_statuses",
    "Journal",
    "LeaseLost",
    "LeaseManager",
    "Orchestrator",
    "RunStore",
    "WorkerStatus",
]
