"""``python -m repro workers`` — cooperative sweep worker processes.

``start`` turns this process into one (or, with ``-j N``, a fleet of)
sweep workers: it loads the sweep's published work manifest from the
run store (``manifests/<sweep>.json``, written by the experiment CLI
that launched the sweep — or by a previous run of it), queues every
point on a lease-coordinated :class:`~repro.runstore.Orchestrator`,
and drains the queue until the grid is done.  Workers are completely
generic: the manifest carries each point's RunSpec wire form, which
preserves the content-address exactly, so a worker needs no knowledge
of the experiment module that built the grid — it can run on any
machine that sees the same store directory.

The usual way in is ``--workers N`` on an experiment CLI (figure3 /
figure4 / robustness / successors / byzantine), which publishes the
manifest and forks ``N - 1`` of these processes next to itself.
Running ``python -m repro workers start --sweep figure4_default -j 4``
by hand attaches extra drain capacity to a sweep that is already in
flight (or finishes one whose launcher died — the manifest and the
journaled chunks are all on disk).

Progress is observable from a second terminal via
``python -m repro runs workers`` (live leases, per-worker throughput,
reclaimed leases).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

from ..errors import ExperimentError
from .distributed import (
    LeaseManager,
    WorkerStatus,
    lease_ttl_from_env,
    new_worker_id,
)
from .orchestrator import POINT_KINDS, Orchestrator
from .store import RunStore

__all__ = ["WorkerFleet", "main", "queue_manifest_entry", "run_worker"]


def queue_manifest_entry(orchestrator: Orchestrator, entry: dict
                         ) -> dict | None:
    """Queue one manifest point on a (defer-mode) orchestrator.

    Rebuilds the RunSpec from its wire form — the round trip preserves
    ``spec.key()``, so the queued point carries the same fingerprint
    the launcher queued — and queues it through
    :meth:`~repro.runstore.Orchestrator.spec_point` with the entry's
    ``kind`` and ``describe``, so the committed row is byte-identical
    no matter which worker computes it.  Malformed entries are skipped
    (``None``).
    """
    from ..serialize import spec_from_dict

    try:
        spec = spec_from_dict(entry["spec"])
    except Exception:
        return None
    kind = entry.get("kind", "majority-point")
    if kind not in POINT_KINDS:
        return None
    return orchestrator.spec_point(spec, kind=kind,
                                   describe=entry.get("describe"))


def run_worker(store: RunStore, sweep: str, *,
               worker_id: str | None = None,
               lease_ttl: float | None = None,
               progress=None) -> dict:
    """Drain ``sweep``'s manifest as one cooperative worker.

    Returns the orchestrator's counters.  A missing manifest is not an
    error — the sweep may already be finished (its launcher clears the
    manifest on completion), so the worker simply reports zero work.
    """
    manifest = store.load_manifest(sweep)
    worker_id = worker_id or new_worker_id()
    if not manifest:
        if progress is not None:
            progress(f"no manifest for sweep {sweep!r}; nothing to do")
        return dict.fromkeys(("computed", "cached"), 0)
    leases = LeaseManager(store.leases_dir, worker_id,
                          ttl=lease_ttl_from_env(lease_ttl))
    status = WorkerStatus(store.workers_dir, worker_id, sweep=sweep)
    orchestrator = Orchestrator(
        store, sweep=sweep, resume=True, leases=leases,
        worker=worker_id, defer=True, status=status, progress=progress)
    queued = 0
    for entry in manifest:
        if isinstance(entry, dict) and \
                queue_manifest_entry(orchestrator, entry) is not None:
            queued += 1
    if progress is not None:
        progress(f"worker {worker_id}: {queued} point(s) queued, "
                 f"{orchestrator.pending_points} to compute or await")
    orchestrator.drain()
    orchestrator.finish()
    return orchestrator.counters


class WorkerFleet:
    """Helper worker processes forked next to a sweep launcher.

    Each helper is a ``python -m repro workers start --sweep <name>``
    subprocess against the same output directory; stdout/stderr go to
    per-helper logs under the store's ``workers/`` directory.  The
    launcher participates in the drain itself, so ``--workers N``
    means N cooperating processes total: this fleet holds ``N - 1``.
    """

    def __init__(self, *, sweep: str, output_dir, count: int,
                 lease_ttl: float | None = None):
        self.sweep = sweep
        self.output_dir = output_dir
        self.count = max(0, count)
        self.lease_ttl = lease_ttl
        self._procs: list[tuple[subprocess.Popen, object]] = []

    def launch(self, store: RunStore) -> int:
        """Fork the helpers; returns how many were started."""
        log_dir = store.workers_dir
        log_dir.mkdir(parents=True, exist_ok=True)
        for index in range(self.count):
            command = [sys.executable, "-m", "repro", "workers",
                       "start", "--sweep", self.sweep, "-j", "1",
                       "--output-dir", str(self.output_dir)]
            if self.lease_ttl is not None:
                command += ["--lease-ttl", str(self.lease_ttl)]
            log_path = Path(log_dir) / f"{self.sweep}.helper{index}.log"
            log = open(log_path, "w", encoding="utf-8")
            self._procs.append((subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT,
                env=dict(os.environ)), log))
        return len(self._procs)

    def join(self) -> int:
        """Wait for every helper; returns the number that failed.

        A failed helper is not fatal — its leases go stale and its
        points are reclaimed by the survivors — so the caller only
        needs the count for reporting.
        """
        failures = 0
        for process, log in self._procs:
            failures += 1 if process.wait() != 0 else 0
            log.close()
        self._procs = []
        return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro workers",
        description="Cooperative sweep worker processes over the "
                    "content-addressed run store.")
    parser.add_argument("action", choices=("start",),
                        help="start: drain a sweep's work manifest")
    parser.add_argument("--sweep", required=True,
                        help="sweep name, e.g. figure4_default — the "
                             "manifest under <store>/manifests/")
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        metavar="N",
                        help="run N cooperating workers (this process "
                             "plus N-1 forked helpers)")
    parser.add_argument("--worker-id", default=None,
                        help="worker identity (default: "
                             "host-pid-nonce); must not contain '.'")
    parser.add_argument("--lease-ttl", type=float, default=None,
                        metavar="SECONDS",
                        help="stale-lease TTL (default: "
                             "$REPRO_LEASE_TTL or 600)")
    parser.add_argument("--output-dir", default=None,
                        help="results directory owning the store "
                             "(default: results/ or $REPRO_OUTPUT_DIR)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-point progress lines")
    args = parser.parse_args(argv)

    if args.jobs < 1:
        raise ExperimentError(f"-j must be >= 1, got {args.jobs}")
    if args.worker_id and "." in args.worker_id:
        raise ExperimentError(
            "worker ids must not contain '.' (they name per-worker "
            f"journal files); got {args.worker_id!r}")
    store = RunStore.for_output_dir(args.output_dir)
    progress = None if args.quiet else (
        lambda msg: print(f"  [{msg}]", flush=True))

    fleet = None
    if args.jobs > 1:
        fleet = WorkerFleet(sweep=args.sweep,
                            output_dir=store.root.parent,
                            count=args.jobs - 1,
                            lease_ttl=args.lease_ttl)
        fleet.launch(store)
    counters = run_worker(store, args.sweep, worker_id=args.worker_id,
                          lease_ttl=args.lease_ttl, progress=progress)
    failures = fleet.join() if fleet is not None else 0
    print(f"worker(s) done: {counters.get('computed', 0)} computed, "
          f"{counters.get('cached', 0)} served from cache"
          + (f", {failures} helper(s) failed" if failures else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
