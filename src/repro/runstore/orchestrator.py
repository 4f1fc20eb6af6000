"""The resumable sweep driver.

:class:`Orchestrator` sits between the experiment modules and
:func:`repro.sim.run.run_trials`-style fan-out.  Each sweep point is
addressed by its :mod:`~repro.runstore.fingerprint`; the orchestrator

* serves committed points straight from the :class:`RunStore` (a warm
  cache re-invocation never enters a simulation engine),
* checkpoints in-flight points to the per-sweep journal at the
  deterministic :data:`~repro.sim.run.ENSEMBLE_CHUNK_TRIALS` trial
  boundaries, so ``--resume`` after a crash replays the completed
  chunks and recomputes only the rest,
* records wall-time/engine provenance per point in the store's
  ``meta`` — *outside* the result row, so cached, resumed, and freshly
  computed sweeps emit byte-identical CSVs.

Determinism contract: every point runs the
:func:`~repro.sim.run.plan_trials` plan the uninterrupted runners run
(same chunk sizes, same spawned ``SeedSequence`` per chunk), so a
resumed sweep is bit-identical to one that never failed.

Distributed mode (see :mod:`repro.runstore.distributed`): give the
orchestrator a :class:`~repro.runstore.distributed.LeaseManager` and a
``worker`` id and it becomes one of N cooperating sweep workers over
the same store — points are claimed via atomic per-fingerprint
leases, chunk checkpoints go to a per-worker journal (merged on read,
so a point half-computed by a crashed peer resumes from *its* chunks),
and ``defer=True`` turns a grid of point calls into a work queue:
each call returns a placeholder row immediately and :meth:`drain`
fills them all, largest-estimated-cost first, claiming unleased
points and back-filling peer-computed ones from the store.  The
result rows — and the CSVs built from them — are byte-identical to a
single-process sweep.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import JobInterrupted
from ..faults import active_faults
from ..serialize import run_result_from_dict, run_result_to_dict
from ..sim.engines import route
from ..sim.results import TrialStats
from ..sim.run import RunSpec, plan_trials
from ..telemetry.context import current as current_telemetry
from .distributed import LeaseLost
from .fingerprint import fingerprint, point_key, spec_key
from .journal import chunk_map
from .store import RunStore

__all__ = ["Orchestrator", "stale_reason"]

#: Row columns of a ``majority-point``, in the exact order
#: :meth:`Orchestrator.spec_point` emits them.  Deferred (work-queue)
#: points hand out a ``None``-valued skeleton in this order and fill
#: it in place on drain, so a distributed sweep's CSV columns — and
#: bytes — match a single-process run's.
MAJORITY_COLUMNS = (
    "protocol", "engine", "n", "epsilon", "trials",
    "settled_fraction", "mean_parallel_time", "std_parallel_time",
    "min_parallel_time", "max_parallel_time", "error_fraction",
)

#: Row columns of a ``robustness-point`` (same contract as above).
ROBUSTNESS_COLUMNS = (
    "protocol", "engine", "n", "epsilon", "fault_model", "trials",
    "settled_fraction", "mean_recovery_time", "std_recovery_time",
    "residual_error", "mean_parallel_time", "mean_fault_events",
)


def _majority_row(spec: RunSpec, results, describe) -> dict:
    stats = TrialStats.from_results(results)
    row = {
        "protocol": spec.protocol.name,
        "engine": spec.engine,
        "n": spec.n,
        "epsilon": spec.epsilon,
        "trials": stats.num_trials,
        "settled_fraction": stats.settled_fraction,
        "mean_parallel_time": stats.mean_parallel_time,
        "std_parallel_time": stats.std_parallel_time,
        "min_parallel_time": stats.min_parallel_time,
        "max_parallel_time": stats.max_parallel_time,
        "error_fraction": stats.error_fraction,
    }
    if spec.count_a is not None:
        row["count_a"] = spec.count_a
        row["count_b"] = spec.count_b
    return row


def _robustness_row(spec: RunSpec, results, describe) -> dict:
    """Recovery statistics of a fault-injection point.

    * ``mean_recovery_time`` — parallel time spent *after* the fault
      window closes, ``max(0, steps - horizon) / n`` averaged over
      settled runs.  With no faults (or no horizon) it is the ordinary
      convergence time, so fault-free points slot into the same curve
      as a baseline.
    * ``residual_error`` — fraction of trials that retired on a wrong
      (or no) decision despite the self-stabilizing dynamics.
    * ``mean_fault_events`` — average number of injected events per
      trial, straight from the engines' fault counters.
    """
    stats = TrialStats.from_results(results)
    active = active_faults(spec.faults)
    horizon = 0
    if active is not None and active.horizon is not None:
        horizon = active.horizon
    recoveries = [max(0, r.steps - horizon) / r.n
                  for r in results if r.settled]
    events = [sum(r.fault_events.values()) if r.fault_events else 0
              for r in results]
    return {
        "protocol": spec.protocol.name,
        "engine": spec.engine,
        "n": spec.n,
        "epsilon": spec.epsilon,
        "fault_model": describe or "fault-free",
        "trials": stats.num_trials,
        "settled_fraction": stats.settled_fraction,
        "mean_recovery_time": (float(np.mean(recoveries))
                               if recoveries else None),
        "std_recovery_time": (float(np.std(recoveries))
                              if recoveries else None),
        "residual_error": stats.error_fraction,
        "mean_parallel_time": stats.mean_parallel_time,
        "mean_fault_events": float(np.mean(events)),
    }


#: Per typed point kind: its row columns and the projection
#: ``(spec, results, describe) -> row`` that produces them.
POINT_KINDS = {
    "majority-point": (MAJORITY_COLUMNS, _majority_row),
    "robustness-point": (ROBUSTNESS_COLUMNS, _robustness_row),
}


def stale_reason(entry: dict, spec: RunSpec) -> str | None:
    """Why a committed entry is not what the current code would compute.

    Only ``auto`` entries can go stale this way: their key names the
    router, not the engine it picked, so a moved routing threshold
    leaves entries keyed like the new routing's points but holding the
    old engine's stream.  The recorded ``engine_resolved`` is compared
    with the engine :func:`~repro.sim.engines.route` picks now (by
    name: no engine is built); the ``-jit`` suffix is ignored because
    the compiled twins are bit-identical to the numpy engines.
    ``None`` when fresh.
    """
    meta = entry.get("meta") or {}
    recorded = meta.get("engine_resolved")
    if meta.get("engine_requested") != "auto" or recorded is None:
        return None
    current = route(spec).engine
    if recorded.removesuffix("-jit") == current.removesuffix("-jit"):
        return None
    return f"computed on {recorded}, auto now picks {current}"


class _Deferred:
    """One queued sweep point awaiting :meth:`Orchestrator.drain`."""

    __slots__ = ("fp", "label", "kind", "compute", "skeleton",
                 "cost_hint", "manifest")

    def __init__(self, fp, label, kind, compute, skeleton, cost_hint,
                 manifest=None):
        self.fp = fp
        self.label = label
        self.kind = kind
        self.compute = compute
        self.skeleton = skeleton
        self.cost_hint = cost_hint
        self.manifest = manifest


def _manifest_entry(spec: RunSpec, kind: str,
                    describe: str | None) -> dict | None:
    """The wire form a helper worker needs to recompute this point.

    ``None`` for specs that cannot cross a process boundary (engine
    instances, attached graphs/observers) — such points stay local to
    the process that queued them.
    """
    from ..serialize import spec_to_dict

    try:
        wire = spec_to_dict(spec)
    except Exception:
        return None
    entry = {"kind": kind, "spec": wire}
    if describe is not None:
        entry["describe"] = describe
    return entry


def _cost_hint(spec: RunSpec) -> float:
    """Rough relative cost of a point, for longest-first claiming.

    Convergence needs ``Theta~(1 / (s * eps))`` parallel time
    (Theorem 4.1), i.e. ``~ n * trials / (s * eps)`` interactions.
    Only the *ordering* matters: draining the expensive points first
    keeps the last worker from being stuck alone with the biggest
    point while its peers idle (classic LPT scheduling).
    """
    try:
        n = spec.n
        if n is None:
            n = (spec.count_a or 0) + (spec.count_b or 0)
        epsilon = spec.epsilon or 1.0
        states = getattr(spec.protocol, "num_states", 2) or 2
        hint = n * spec.num_trials / max(epsilon * states, 1e-12)
        if spec.max_steps is not None:
            hint = min(hint, float(spec.max_steps) * spec.num_trials)
        return float(hint)
    except Exception:
        return 0.0


class Orchestrator:
    """Run sweep points through the cache/journal machinery.

    Parameters
    ----------
    store:
        The :class:`RunStore` backing the sweep, or ``None`` for a
        purely in-memory pass (no caching, no journal — the rows are
        still computed identically, which is what keeps direct calls
        to the ``*_rows`` functions equivalent to orchestrated ones).
    sweep:
        Journal name for this sweep (e.g. ``"figure3_smoke"``).
        Without it no chunk checkpoints are written.
    resume:
        Replay the existing journal's completed chunks instead of
        starting the journal afresh.
    use_cache:
        Serve committed points from the store.  ``False`` forces full
        recomputation (results are still committed, overwriting).
    sleep:
        Sleep function used between store polls (see ``wait_poll``).
    progress:
        Optional callable receiving human-readable status lines.
    should_stop:
        Optional zero-argument callable polled between trial chunks;
        returning ``True`` raises :class:`~repro.errors.JobInterrupted`
        *after* every completed chunk has been journaled, so the point
        resumes from the checkpoint on the next attempt.  This is the
        simulation service's graceful-shutdown hook.
    leases:
        Optional :class:`~repro.runstore.distributed.LeaseManager`.
        With one attached, every uncached point is computed under its
        fingerprint lease: peers never simulate the same point twice,
        a point leased elsewhere is awaited (served from the store the
        moment the peer commits), and stale leases of crashed peers
        are reclaimed and resumed from their journaled chunks.
    worker:
        Worker identity for distributed sweeps.  Chunk checkpoints go
        to the per-worker journal ``<sweep>.<worker>.jsonl`` and chunk
        *replay* merges every worker's journal, so resume parity holds
        across N appenders.
    defer:
        Work-queue mode: point calls queue work and return ``None``-
        valued placeholder rows; :meth:`drain` computes/collects them
        cooperatively and fills the placeholders in place.  Requires a
        ``store`` (the store is the coordination medium).
    wait_poll:
        Seconds between store polls while waiting on a peer's lease.
    status:
        Optional :class:`~repro.runstore.distributed.WorkerStatus`
        file, refreshed as points complete (the ``runs workers`` view).
    on_drain:
        Optional callable invoked (with this orchestrator, once) at
        the start of the first :meth:`drain` — after the full grid has
        been queued, before any point computes.  The sweep launcher
        uses it to publish the work manifest and fork helper workers.
    """

    def __init__(self, store: RunStore | None = None, *,
                 sweep: str | None = None, resume: bool = False,
                 use_cache: bool = True, sleep=time.sleep, progress=None, should_stop=None,
                 leases=None, worker: str | None = None,
                 defer: bool = False, wait_poll: float = 0.5,
                 status=None, on_drain=None):
        if defer and store is None:
            raise ValueError("work-queue (defer) mode needs a store: "
                             "committed points are how deferred rows "
                             "are filled")
        self.store = store
        self.sweep = sweep
        self.use_cache = use_cache
        self.leases = leases
        self.worker = worker
        self.wait_poll = wait_poll
        self._defer = defer
        self._sleep = sleep
        self._progress = progress
        self._should_stop = should_stop
        self._status = status
        self._status_written = 0.0
        self._on_drain = on_drain
        self.counters = {"computed": 0, "cached": 0,
                         "resumed_chunks": 0,
                         "trials": 0, "interactions": 0,
                         "lease_reclaims": 0, "lease_lost": 0}
        self._journal = None
        self._pending: dict[str, dict[int, list]] = {}
        # The spec each typed point was addressed by, for the stale
        # check on every lookup of its fingerprint.
        self._specs: dict[str, RunSpec] = {}
        self._deferred: list[_Deferred] = []
        self._waiting_noted = False
        if store is not None and sweep is not None:
            self._journal = store.journal(sweep, worker=worker)
            if resume and use_cache:
                records = (store.sweep_records(sweep)
                           if self._distributed
                           else self._journal.replay())
                self._pending = chunk_map(records)
            else:
                self._journal.clear()
            self._journal.append({"event": "begin", "sweep": sweep,
                                  **({"worker": worker} if worker
                                     else {})})
        self._report_status(force=True)

    @property
    def _distributed(self) -> bool:
        return self.leases is not None or self.worker is not None

    # -- typed points ---------------------------------------------------

    def spec_point(self, spec: RunSpec, *, kind: str = "majority-point",
                   describe: str | None = None) -> dict:
        """One sweep point addressed by a :class:`RunSpec`.

        Every typed point (Figures 3–4, the ablations, the successor
        comparison, the robustness and byzantine sweeps, manifest
        workers and the simulation service) comes through here: the
        point is served from the store when committed, otherwise run
        chunk by chunk (journaled, resumable, lease-coordinated) and
        projected to a row by its ``kind`` (see :data:`POINT_KINDS`):

        * ``"majority-point"`` — convergence statistics, keyed by
          :func:`~repro.runstore.fingerprint.spec_key`; count-form
          specs extend the row with ``count_a``/``count_b``;
        * ``"robustness-point"`` — recovery statistics under
          ``spec.faults``, keyed by the same key with
          ``kind="robustness-point"``; ``describe`` names the fault
          model in the row (``"fault-free"`` when omitted).

        Nondeterministic wall time lives in the store's provenance
        ``meta``, never in the row.  In work-queue mode the returned
        dict is a placeholder (every column present, values ``None``)
        filled in place by :meth:`drain`.
        """
        if kind not in POINT_KINDS:
            raise ValueError(f"unknown point kind {kind!r}; choose from "
                             f"{sorted(POINT_KINDS)}")
        columns, project = POINT_KINDS[kind]
        key = dict(spec_key(spec), kind=kind)
        fp = fingerprint(key)
        name = spec.protocol.name
        label = (f"{name} n={spec.n}" if spec.n
                 else f"{name} {spec.count_a}v{spec.count_b}")
        if kind == "robustness-point":
            label += f" [{describe or 'fault-free'}]"
        self._specs[fp] = spec
        cached = self._lookup(fp, label=label, kind=kind)
        if cached is not None:
            return cached

        def compute():
            telemetry = current_telemetry()
            if telemetry.enabled:
                telemetry.count("runstore.cache.miss", kind=kind)
            started = time.perf_counter()
            results, plan_meta = self._run_point_chunks(spec, fp=fp)
            row = project(spec, results, describe)
            wall = time.perf_counter() - started
            if telemetry.enabled:
                telemetry.record_span(
                    "runstore.point", wall, kind=kind, protocol=name,
                    n=spec.n, engine=plan_meta["engine_resolved"],
                    trials=row["trials"],
                    interactions=plan_meta["interactions"])
            self._commit(fp, key, row, dict(plan_meta, wall_seconds=wall))
            return row

        if self._defer:
            skeleton = dict.fromkeys(columns)
            if kind == "majority-point" and spec.count_a is not None:
                skeleton.update(count_a=None, count_b=None)
            return self._defer_point(
                fp, label, kind, compute, skeleton, _cost_hint(spec),
                manifest=_manifest_entry(spec, kind, describe))
        return self._guarded(fp, label=label, kind=kind, compute=compute)

    def point(self, kind: str, params: dict, compute, *,
              label: str | None = None):
        """A generic cached point: any deterministic computation.

        ``compute()`` must be a pure function of ``params`` returning
        a JSON-safe payload (a row dict or a list of row dicts); the
        payload is committed under the fingerprint of
        ``(schema, kind, params)`` and served from cache on the next
        invocation.

        Generic points are lease-coordinated like the typed points,
        but never deferred (their payload shape is opaque, so there is
        no skeleton to hand out): in work-queue mode they compute
        synchronously at call time.
        """
        key = point_key(kind, params)
        fp = fingerprint(key)
        cached = self._lookup(fp, label=label, kind=kind)
        if cached is not None:
            return cached

        def guarded_compute():
            telemetry = current_telemetry()
            if telemetry.enabled:
                telemetry.count("runstore.cache.miss", kind=kind)
            started = time.perf_counter()
            payload = compute()
            wall = time.perf_counter() - started
            if telemetry.enabled:
                telemetry.record_span("runstore.point", wall, kind=kind,
                                      label=label or kind)
            self._commit(fp, key, payload, {"wall_seconds": wall})
            return payload

        return self._guarded(fp, label=label or kind, kind=kind,
                             compute=guarded_compute)

    # -- the work queue -----------------------------------------------

    def _defer_point(self, fp, label, kind, compute, skeleton,
                     cost_hint, manifest=None) -> dict:
        self._deferred.append(
            _Deferred(fp, label, kind, compute, skeleton, cost_hint,
                      manifest))
        return skeleton

    @property
    def pending_points(self) -> int:
        """Deferred points not yet drained."""
        return len(self._deferred)

    def manifest(self) -> list[dict]:
        """Wire-form descriptors of the queued points, one per
        distinct fingerprint — what a ``python -m repro workers
        start`` helper needs to queue the identical work-list."""
        entries = []
        seen = set()
        for item in self._deferred:
            if item.manifest is None or item.fp in seen:
                continue
            seen.add(item.fp)
            entries.append(dict(item.manifest, point=item.fp))
        return entries

    def drain(self) -> None:
        """Run every deferred point to completion, cooperatively.

        Claims unleased points (most expensive first — LPT scheduling
        keeps the grid's tail short), back-fills peer-committed points
        from the store, waits on fresh peer leases, and reclaims stale
        ones.  On return every placeholder row handed out by the point
        methods is filled; without leases this degenerates to plain
        sequential computation in cost order.

        No-op when nothing was deferred, so sweeps can call it
        unconditionally.
        """
        if self._on_drain is not None:
            hook, self._on_drain = self._on_drain, None
            hook(self)
        pending = sorted(self._deferred,
                         key=lambda item: -item.cost_hint)
        self._deferred = []
        while pending:
            progressed = False
            rest = []
            for item in pending:
                if self._drain_one(item):
                    progressed = True
                    self._waiting_noted = False
                else:
                    rest.append(item)
                self._report_status()
            pending = rest
            if pending and not progressed:
                self._poll_peers(pending)
        self._report_status(force=True)

    def _drain_one(self, item: _Deferred) -> bool:
        """Try to finish one queued point; ``True`` when filled."""
        cached = self._lookup(item.fp, label=item.label, kind=item.kind)
        if cached is not None:
            item.skeleton.update(cached)
            return True
        if self.leases is not None and not self.leases.acquire(item.fp):
            return False
        lost = False
        try:
            if self.leases is not None:
                # Double-check under the lease: the peer may have
                # committed between our lookup and the acquire.
                cached = self._lookup(item.fp, label=item.label,
                                      kind=item.kind)
                if cached is not None:
                    item.skeleton.update(cached)
                    return True
                self._refresh_pending(item.fp)
            try:
                item.skeleton.update(item.compute())
            except LeaseLost:
                lost = True
        finally:
            if self.leases is not None:
                self.leases.release(item.fp)
        if lost:
            self._lease_lost(item.label)
            return False
        return True

    def _guarded(self, fp: str, *, label, kind, compute):
        """Compute one point under its lease (synchronous path).

        Without a lease manager this is just ``compute()``.  With one:
        acquire-or-wait — a point leased by a peer is served from the
        store the moment the peer commits, a stale lease is reclaimed
        and the point (re)computed here, resuming from the dead peer's
        journaled chunks.
        """
        if self.leases is None:
            return compute()
        while True:
            if self.leases.acquire(fp):
                lost = False
                try:
                    cached = self._lookup(fp, label=label, kind=kind)
                    if cached is not None:
                        return cached
                    self._refresh_pending(fp)
                    try:
                        return compute()
                    except LeaseLost:
                        lost = True
                finally:
                    self.leases.release(fp)
                if lost:
                    self._lease_lost(label)
            row = self._await_peer(fp, label=label, kind=kind)
            if row is not None:
                return row

    def _await_peer(self, fp: str, *, label, kind):
        """Wait out the peer holding ``fp``'s lease.

        Returns the committed row once the peer finishes, or ``None``
        when the lease disappears (released without a commit) or goes
        stale and is reclaimed — the caller then retries the acquire.
        """
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.count("runstore.lease.busy", kind=kind)
        noted = False
        while True:
            self._check_stop(fp)
            cached = self._lookup(fp, label=label, kind=kind)
            if cached is not None:
                return cached
            owner = self.leases.owner(fp)
            if owner is None:
                return None
            if owner.get("stale") and self.leases.reclaim(fp):
                self._reclaimed(label)
                return None
            if not noted:
                self._note(f"waiting on {label} (leased by "
                           f"{owner.get('worker', '?')})")
                noted = True
            self._sleep(self.wait_poll)

    def _poll_peers(self, pending) -> None:
        """One wait round of :meth:`drain`: sleep, then reap the dead."""
        if not self._waiting_noted:
            self._note(f"waiting on {len(pending)} point(s) leased "
                       "by peers")
            self._waiting_noted = True
        self._sleep(self.wait_poll)
        if self.leases is None:
            return
        for item in pending:
            owner = self.leases.owner(item.fp)
            if owner is not None and owner.get("stale") \
                    and self.leases.reclaim(item.fp):
                self._reclaimed(item.label)

    def _reclaimed(self, label) -> None:
        self.counters["lease_reclaims"] += 1
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.event("runstore.lease.reclaimed", label=label)
        self._note(f"reclaimed stale lease on {label}; resuming from "
                   "its journaled chunks")

    def _lease_lost(self, label) -> None:
        self.counters["lease_lost"] += 1
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.event("runstore.lease.lost", label=label)
        self._note(f"lost lease on {label} to a peer; abandoning")

    def finish(self) -> None:
        """Mark the sweep complete: drop its (now redundant) journal.

        A distributed worker drops only its *own* per-worker journal;
        peers still mid-drain keep theirs (the launcher clears any
        leftovers once the whole fleet has joined).
        """
        if self._journal is not None:
            self._journal.clear()
        self._report_status(state="done", force=True)

    # -- cache and journal plumbing ----------------------------------

    def _lookup(self, fp: str, label: str | None = None,
                kind: str = "point"):
        if not self.use_cache or self.store is None:
            return None
        entry = self.store.get(fp)
        if entry is None:
            return None
        telemetry = current_telemetry()
        spec = self._specs.get(fp)
        stale = stale_reason(entry, spec) if spec is not None else None
        if stale is not None:
            # A miss: the point is recomputed and its entry overwritten.
            if telemetry.enabled:
                telemetry.count("runstore.cache.stale", kind=kind)
            self._note(f"stale cache entry {label or fp[:12]} ({stale}); "
                       "recomputing")
            return None
        self.counters["cached"] += 1
        if telemetry.enabled:
            telemetry.count("runstore.cache.hit", kind=kind)
        self._note(f"cache hit {label or fp[:12]}")
        return entry["row"]

    def _commit(self, fp: str, key: dict, payload, meta: dict) -> None:
        if self.sweep is not None:
            meta = dict(meta, sweep=self.sweep)
        if self.worker is not None:
            meta = dict(meta, worker=self.worker)
        if self.store is not None:
            self.store.put(fp, key=key, row=payload, meta=meta)
        if self._journal is not None:
            self._journal.append({"event": "point", "point": fp})
        self._pending.pop(fp, None)
        self.counters["computed"] += 1
        if isinstance(meta.get("trials"), int):
            self.counters["trials"] += meta["trials"]
        if isinstance(meta.get("interactions"), int):
            self.counters["interactions"] += meta["interactions"]
        self._report_status()

    def _journal_chunk(self, fp: str, index: int, results) -> None:
        if self._journal is not None:
            self._journal.append({
                "event": "chunk", "point": fp, "index": index,
                "results": [run_result_to_dict(r) for r in results]})

    def _replayed_chunk(self, fp: str, index: int, size: int):
        """Deserialize a journaled chunk, or ``None`` if absent/short."""
        payloads = self._pending.get(fp, {}).get(index)
        if payloads is None or len(payloads) != size:
            return None
        self.counters["resumed_chunks"] += 1
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.count("runstore.chunk.resumed")
        return [run_result_from_dict(payload) for payload in payloads]

    def _refresh_pending(self, fp: str) -> None:
        """Re-merge every worker's journaled chunks for ``fp``.

        Called when a distributed worker claims a point: a peer may
        have checkpointed (then crashed on) this very point *after*
        this orchestrator was constructed, so the init-time replay is
        refreshed from the merged per-worker journals before any chunk
        is recomputed — worker B resumes bit-identically from worker
        A's boundary.
        """
        if not self._distributed or self.store is None \
                or self.sweep is None:
            return
        merged = chunk_map(self.store.sweep_records(self.sweep))
        if fp in merged:
            self._pending[fp] = merged[fp]

    def _heartbeat(self, fp: str) -> None:
        """Refresh this worker's lease at a chunk boundary."""
        if self.leases is not None:
            self.leases.heartbeat(fp)

    def _report_status(self, state: str = "running",
                       force: bool = False) -> None:
        """Refresh the worker status file (throttled to ~1/s)."""
        if self._status is None:
            return
        now = time.monotonic()
        if not force and now - self._status_written < 1.0:
            return
        self._status_written = now
        counters = dict(self.counters)
        if self.leases is not None:
            counters["lease_reclaims"] = max(
                counters["lease_reclaims"], self.leases.reclaimed)
        self._status.write(state, counters,
                           pending_points=len(self._deferred))

    # -- trial fan-out, checkpointed ---------------------------------

    def _run_point_chunks(self, spec: RunSpec, *, fp):
        """Run a point's trial plan chunk by chunk, checkpointed.

        The plan is :func:`repro.sim.run.plan_trials`, the one
        :func:`~repro.sim.run.simulate` runs, so replaying journaled
        chunks and recomputing the rest yields the identical result
        list an uninterrupted run produces.  Around each chunk this
        only adds the journal replay, the stop check, the checkpoint
        and the lease heartbeat.
        """
        plan = plan_trials(spec)
        results = []
        for index, size in enumerate(plan.sizes):
            chunk = self._replayed_chunk(fp, index, size)
            if chunk is None:
                self._check_stop(fp)
                chunk = plan.run_chunk(index)
                self._journal_chunk(fp, index, chunk)
            results.extend(chunk)
            self._heartbeat(fp)
        resolved = (plan.ensemble.name if plan.ensemble is not None
                    else results[0].engine_name)
        meta = {"engine_requested": spec.engine,
                "engine_resolved": resolved,
                "chunks": len(plan.sizes),
                "resumed_chunks": sum(
                    1 for index in self._pending.get(fp, ())
                    if index < len(plan.sizes)),
                "trials": len(results),
                "interactions": int(sum(r.steps for r in results))}
        return results, meta

    def _check_stop(self, fp: str) -> None:
        """Honor a pending stop request at a chunk boundary.

        Every completed chunk is already journaled by the time this
        runs, so the raised :class:`~repro.errors.JobInterrupted`
        leaves the point resumable with zero lost work.
        """
        if self._should_stop is not None and self._should_stop():
            telemetry = current_telemetry()
            if telemetry.enabled:
                telemetry.event("runstore.point.interrupted", point=fp)
            raise JobInterrupted(
                f"stop requested; point {fp[:12]} checkpointed at a "
                "chunk boundary and is resumable")

    def _note(self, message: str) -> None:
        if self._progress is not None:
            self._progress(message)
