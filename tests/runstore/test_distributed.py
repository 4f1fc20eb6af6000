"""Distributed sweep execution: leases, reclamation, cross-worker resume.

The four acceptance properties of multi-worker sweeps live here:

* two workers racing on one point produce exactly one engine run;
* a stale lease (dead worker) is reclaimed and its point recomputed;
* a point half-computed by a crashed worker A resumes bit-identically
  from A's journaled chunks on worker B;
* per-worker journal files merge on read, each contributing its own
  torn-tail-recovered prefix.
"""

import importlib
import time

import pytest

from repro import AVCProtocol, FaultSpec, RunSpec
from repro.experiments.runner import measure_majority_point
from repro.runstore import (
    LeaseLost,
    LeaseManager,
    Orchestrator,
    RunStore,
    WorkerStatus,
    lease_ttl_from_env,
    new_worker_id,
    read_worker_statuses,
)
from repro.runstore.fingerprint import fingerprint, point_key
from repro.runstore.workers_cli import run_worker
from repro.sim.ensemble_engine import EnsembleEngine

# ``repro.sim`` re-exports a *function* named ``run``, which shadows the
# submodule on attribute access — go through importlib for the module.
run_module = importlib.import_module("repro.sim.run")

POINT = dict(n=51, epsilon=5 / 51, trials=10, seed=11,
             engine="ensemble")


def _store(tmp_path):
    return RunStore(tmp_path / ".runstore")


def _spec(protocol, *, trials, **point):
    return RunSpec(protocol, num_trials=trials, **point)


class TestLeaseManager:
    def test_acquire_is_exclusive(self, tmp_path):
        a = LeaseManager(tmp_path, "wa")
        b = LeaseManager(tmp_path, "wb")
        wins = [a.acquire("ff" * 32), b.acquire("ff" * 32)]
        assert wins == [True, False]
        assert a.owned("ff" * 32) and not b.owned("ff" * 32)

    def test_release_only_drops_own_lease(self, tmp_path):
        a = LeaseManager(tmp_path, "wa")
        b = LeaseManager(tmp_path, "wb")
        a.acquire("aa" * 32)
        b.release("aa" * 32)  # not b's to drop
        assert a.owned("aa" * 32)
        a.release("aa" * 32)
        assert a.owner("aa" * 32) is None

    def test_heartbeat_raises_when_lease_reclaimed(self, tmp_path):
        a = LeaseManager(tmp_path, "wa")
        a.acquire("aa" * 32)
        a.heartbeat("aa" * 32)  # still owned: fine
        a.path("aa" * 32).unlink()  # a peer reclaimed it
        with pytest.raises(LeaseLost):
            a.heartbeat("aa" * 32)

    def test_reclaim_requires_staleness(self, tmp_path):
        offset = [0.0]
        stale_aware = LeaseManager(
            tmp_path, "wb", ttl=10.0,
            clock=lambda: time.time() + offset[0])
        LeaseManager(tmp_path, "dead", ttl=10.0).acquire("aa" * 32)
        assert not stale_aware.reclaim("aa" * 32)  # fresh: refused
        offset[0] = 11.0  # the owner missed every heartbeat
        assert stale_aware.owner("aa" * 32)["stale"]
        assert stale_aware.reclaim("aa" * 32)
        assert stale_aware.reclaimed == 1
        assert stale_aware.owner("aa" * 32) is None
        # No tombstone left behind either.
        assert list(tmp_path.glob("*.reclaim-*")) == []

    def test_worker_ids_are_filesystem_safe(self):
        worker = new_worker_id("svc.worker/7")
        assert "." not in worker and "/" not in worker
        assert worker.startswith("svc-worker-7-")
        assert new_worker_id() != new_worker_id()  # nonce

    def test_ttl_resolution(self, monkeypatch):
        assert lease_ttl_from_env(42.0) == 42.0
        monkeypatch.setenv("REPRO_LEASE_TTL", "120")
        assert lease_ttl_from_env() == 120.0
        assert lease_ttl_from_env(5.0) == 5.0  # explicit beats env
        from repro.errors import ExperimentError
        with pytest.raises(ExperimentError):
            lease_ttl_from_env(0.0)


class TestConcurrentClaim:
    def test_two_workers_one_point_single_engine_run(self, tmp_path):
        """The claim race: the loser waits, then serves from cache."""
        store = _store(tmp_path)
        fp = fingerprint(point_key("thing", {"n": 5}))
        calls = {"n": 0}

        def compute():
            calls["n"] += 1
            return {"value": 42}

        leases_a = LeaseManager(store.leases_dir, "wa")
        assert leases_a.acquire(fp)

        def peer_finishes(_delay):
            # While B sleeps on A's lease, A commits and releases —
            # the interleaving a real second process produces.
            Orchestrator(store).point("thing", {"n": 5}, compute)
            leases_a.release(fp)

        b = Orchestrator(store, worker="wb", wait_poll=0.0,
                         sleep=peer_finishes,
                         leases=LeaseManager(store.leases_dir, "wb"))

        def forbidden():
            raise AssertionError("peer-leased point computed twice")

        assert b.point("thing", {"n": 5}, forbidden) == {"value": 42}
        assert calls["n"] == 1
        assert b.counters["cached"] == 1
        assert b.counters["computed"] == 0


class TestStaleLeaseReclamation:
    def test_dead_workers_point_reclaimed_and_recomputed(self, tmp_path):
        store = _store(tmp_path)
        fp = fingerprint(point_key("thing", {"n": 7}))
        # The dead worker took the lease and then stopped heartbeating.
        LeaseManager(store.leases_dir, "dead", ttl=10.0).acquire(fp)

        offset = [0.0]
        live_leases = LeaseManager(
            store.leases_dir, "live", ttl=10.0,
            clock=lambda: time.time() + offset[0])
        calls = {"n": 0}

        def compute():
            calls["n"] += 1
            return {"value": 7}

        live = Orchestrator(store, leases=live_leases, worker="live",
                            wait_poll=0.0, sleep=lambda _delay: None)
        offset[0] = 11.0  # TTL elapsed with no heartbeat
        assert live.point("thing", {"n": 7}, compute) == {"value": 7}
        assert calls["n"] == 1
        assert live.counters["lease_reclaims"] == 1
        assert live_leases.reclaimed == 1


class TestCrossWorkerResume:
    def _crash_worker_a_mid_point(self, store, protocol, monkeypatch):
        """Worker A journals chunk 0 of 3, then dies."""
        intact = EnsembleEngine.run_ensemble
        calls = {"n": 0}

        def crash_on_second(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("worker A died mid-point")
            return intact(self, *args, **kwargs)

        monkeypatch.setattr(EnsembleEngine, "run_ensemble",
                            crash_on_second)
        a = Orchestrator(store, sweep="fig", worker="wa")
        with pytest.raises(RuntimeError, match="died mid-point"):
            a.spec_point(_spec(protocol, **POINT))
        monkeypatch.setattr(EnsembleEngine, "run_ensemble", intact)

    def test_peer_resumes_crashed_workers_chunks_bit_identical(
            self, tmp_path, monkeypatch):
        # Shrink chunks so a 10-trial point spans [4, 4, 2].
        monkeypatch.setattr(run_module, "ENSEMBLE_CHUNK_TRIALS", 4)
        protocol = AVCProtocol.with_num_states(34)
        reference = measure_majority_point(protocol, **POINT)
        del reference["wall_seconds"]

        store = _store(tmp_path)
        self._crash_worker_a_mid_point(store, protocol, monkeypatch)

        # Worker B (a different process in real life) merges A's
        # per-worker journal at init and resumes from A's boundary.
        b = Orchestrator(store, sweep="fig", resume=True, worker="wb",
                         leases=LeaseManager(store.leases_dir, "wb"))
        row = b.spec_point(_spec(protocol, **POINT))
        assert b.counters["resumed_chunks"] == 1
        assert row == reference

    def test_claim_time_refresh_sees_chunks_journaled_after_init(
            self, tmp_path, monkeypatch):
        """B predates A's checkpoints: resume rests on the re-merge
        that happens when B claims the point, not on init replay."""
        monkeypatch.setattr(run_module, "ENSEMBLE_CHUNK_TRIALS", 4)
        protocol = AVCProtocol.with_num_states(34)
        reference = measure_majority_point(protocol, **POINT)
        del reference["wall_seconds"]

        store = _store(tmp_path)
        b = Orchestrator(store, sweep="fig", resume=True, worker="wb",
                         leases=LeaseManager(store.leases_dir, "wb"))
        self._crash_worker_a_mid_point(store, protocol, monkeypatch)

        row = b.spec_point(_spec(protocol, **POINT))
        assert b.counters["resumed_chunks"] == 1
        assert row == reference


class TestMergedJournals:
    def test_each_file_contributes_its_torn_tail_recovered_prefix(
            self, tmp_path):
        store = _store(tmp_path)
        wa = store.journal("s", worker="wa")
        wb = store.journal("s", worker="wb")
        wa.append({"event": "begin", "sweep": "s", "worker": "wa"})
        wa.append({"event": "chunk", "point": "aa", "index": 0,
                   "results": [1, 2]})
        wb.append({"event": "begin", "sweep": "s", "worker": "wb"})
        wb.append({"event": "chunk", "point": "bb", "index": 0,
                   "results": [3]})
        # Worker B died mid-append: torn final line, no newline.
        with open(wb.path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "chunk", "point": "bb", "ind')

        records = store.sweep_records("s")
        assert len(records) == 4  # torn tail dropped, prefixes intact
        events = [(r.get("event"), r.get("point")) for r in records]
        assert ("chunk", "aa") in events
        assert ("chunk", "bb") in events

        # The introspection views see one merged stream too.
        rows = store.in_flight()
        assert {row["point"] for row in rows} == {"aa", "bb"}
        assert all(row["sweep"] == "s" for row in rows)


class TestManifestWorkers:
    @staticmethod
    def _drain_via_helper(store, points, references):
        """Queue ``points`` (``(spec, kind, describe)``) on a launcher,
        let a manifest-only helper compute them all, and check that
        the launcher's back-filled rows equal ``references``."""
        lead = Orchestrator(
            store, sweep="fig", defer=True, worker="lead",
            leases=LeaseManager(store.leases_dir, "lead"))
        rows = [lead.spec_point(spec, kind=kind, describe=describe)
                for spec, kind, describe in points]
        assert all(value is None
                   for row in rows for value in row.values())
        entries = lead.manifest()
        assert len(entries) == len(points)
        store.write_manifest("fig", entries)

        counters = run_worker(store, "fig", worker_id="helper")
        assert counters["computed"] == len(points)

        lead.drain()  # every point already committed by the helper
        lead.finish()
        assert lead.counters["cached"] == len(points)
        assert lead.counters["computed"] == 0
        assert rows == references

    def test_generic_worker_drains_published_manifest(self, tmp_path):
        """A helper with no knowledge of the experiment computes the
        launcher's grid from the manifest; the launcher's placeholder
        rows back-fill from the store, byte-identical to local runs."""
        protocol = AVCProtocol.with_num_states(34)
        grid = [dict(n=n, epsilon=5 / n, trials=4, seed=3,
                     engine="ensemble") for n in (11, 21)]
        references = []
        for params in grid:
            reference = measure_majority_point(protocol, **params)
            del reference["wall_seconds"]
            references.append(reference)
        points = [(_spec(protocol, **params), "majority-point", None)
                  for params in grid]
        self._drain_via_helper(_store(tmp_path), points, references)

    def test_generic_worker_drains_robustness_manifest(self, tmp_path):
        """Robustness points cross the manifest with their kind and
        ``describe`` label: the helper's rows, ``fault_model``
        included, equal what the launcher computes on its own."""
        protocol = AVCProtocol.with_num_states(34)
        flips = FaultSpec(flip_prob=0.02, horizon=60)
        points = [
            (RunSpec(protocol, n=31, epsilon=5 / 31, num_trials=4, seed=3,
                     faults=flips, max_steps=20_000),
             "robustness-point", "flip@0.02"),
            (RunSpec(protocol, n=31, epsilon=5 / 31, num_trials=4, seed=4,
                     faults=None, max_steps=20_000),
             "robustness-point", "fault-free"),
        ]
        local = Orchestrator()
        references = [local.spec_point(spec, kind=kind, describe=describe)
                      for spec, kind, describe in points]
        assert [row["fault_model"] for row in references] == \
            ["flip@0.02", "fault-free"]
        self._drain_via_helper(_store(tmp_path), points, references)

    def test_missing_manifest_is_a_no_op(self, tmp_path):
        counters = run_worker(_store(tmp_path), "gone",
                              worker_id="helper")
        assert counters["computed"] == 0


class TestWorkerStatus:
    def test_write_read_roundtrip(self, tmp_path):
        status = WorkerStatus(tmp_path, "wa", sweep="fig")
        status.write("running", {"computed": 3}, pending_points=2)
        statuses = read_worker_statuses(tmp_path)
        assert len(statuses) == 1
        assert statuses[0]["worker"] == "wa"
        assert statuses[0]["sweep"] == "fig"
        assert statuses[0]["counters"] == {"computed": 3}
        assert statuses[0]["pending_points"] == 2
        assert statuses[0]["started_at"] == status.started_at

    def test_unreadable_status_files_skipped(self, tmp_path):
        (tmp_path / "torn.json").write_text("{ torn")
        WorkerStatus(tmp_path, "ok", sweep="fig").write("done")
        assert [s["worker"] for s in read_worker_statuses(tmp_path)] \
            == ["ok"]


class TestStoreMemo:
    def test_memoized_reads_are_isolated_copies(self, tmp_path):
        store = _store(tmp_path)
        fp = "ab" * 32
        store.put(fp, key={"kind": "t"}, row={"v": 1})
        first = store.get(fp)
        first["row"]["v"] = 999  # must not poison the memo
        assert store.get(fp)["row"] == {"v": 1}

    def test_peer_commit_invalidates_memo_via_stat_token(self, tmp_path):
        # Two store handles over one directory, like two processes.
        mine = _store(tmp_path)
        peer = _store(tmp_path)
        fp = "cd" * 32
        mine.put(fp, key={"kind": "t"}, row={"v": 1})
        assert mine.get(fp)["row"]["v"] == 1  # memoized
        peer.put(fp, key={"kind": "t"}, row={"v": 22222})
        assert mine.get(fp)["row"]["v"] == 22222

    def test_misses_are_never_memoized(self, tmp_path):
        store = _store(tmp_path)
        fp = "ef" * 32
        assert store.get(fp) is None
        store.put(fp, key={"kind": "t"}, row={"v": 1})
        assert store.get(fp)["row"] == {"v": 1}
