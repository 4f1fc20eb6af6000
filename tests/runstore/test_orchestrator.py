"""Orchestrator: caching, chunk-level resume, failure propagation.

The two acceptance properties of the run store live here:

* a figure3 sweep killed mid-grid and resumed produces a CSV
  byte-identical to an uninterrupted seed-matched run;
* a warm-cache re-invocation never enters a simulation engine.
"""

import importlib

import pytest

from repro import AVCProtocol, RunSpec
from repro.experiments.config import Scale
from repro.experiments.figure3 import figure3_rows
from repro.experiments.io import write_csv
from repro.experiments.runner import measure_majority_point
from repro.runstore import Orchestrator, RunStore
from repro.sim.ensemble_engine import EnsembleEngine
# ``repro.sim`` re-exports a *function* named ``run``, which shadows the
# submodule on attribute access — go through importlib for the module.
run_module = importlib.import_module("repro.sim.run")

TINY = Scale(
    name="tiny",
    figure3_populations=(11, 101),
    figure3_trials=4,
)

POINT = dict(n=51, epsilon=5 / 51, trials=10, seed=11,
             engine="ensemble")


def _store(tmp_path):
    return RunStore(tmp_path / ".runstore")


def _spec(protocol, *, trials, **point):
    return RunSpec(protocol, num_trials=trials, **point)


class CrashAfter(Orchestrator):
    """Simulated mid-grid crash: die before the k-th point computes."""

    def __init__(self, *args, fail_after, **kwargs):
        super().__init__(*args, **kwargs)
        self._remaining = fail_after

    def spec_point(self, *args, **kwargs):
        if self._remaining == 0:
            raise RuntimeError("simulated crash mid-sweep")
        self._remaining -= 1
        return super().spec_point(*args, **kwargs)


class TestSweepResumeParity:
    def test_interrupted_resumed_csv_byte_identical(self, tmp_path):
        # Uninterrupted reference sweep.
        clean = Orchestrator(_store(tmp_path / "a"), sweep="figure3_tiny")
        reference = tmp_path / "a" / "figure3.csv"
        write_csv(reference, figure3_rows(TINY, seed=5, orchestrator=clean))
        clean.finish()

        # Same sweep, killed after 3 of 6 points.
        crash_store = _store(tmp_path / "b")
        flaky = CrashAfter(crash_store, sweep="figure3_tiny",
                           fail_after=3)
        with pytest.raises(RuntimeError, match="simulated crash"):
            figure3_rows(TINY, seed=5, orchestrator=flaky)

        # Resume: completed points come from the store, the rest are
        # computed fresh; the CSV must match byte for byte.
        resumed = Orchestrator(crash_store, sweep="figure3_tiny",
                               resume=True)
        rows = figure3_rows(TINY, seed=5, orchestrator=resumed)
        assert resumed.counters["cached"] == 3
        assert resumed.counters["computed"] == 3
        target = tmp_path / "b" / "figure3.csv"
        write_csv(target, rows)
        assert target.read_bytes() == reference.read_bytes()

    def test_warm_cache_never_enters_an_engine(self, tmp_path,
                                               monkeypatch):
        store = _store(tmp_path)
        first = Orchestrator(store, sweep="figure3_tiny")
        reference = figure3_rows(TINY, seed=5, orchestrator=first)
        first.finish()

        def forbidden(*args, **kwargs):
            raise AssertionError("simulation engine entered on a "
                                 "warm cache")

        # Every simulation path the orchestrator can take.
        monkeypatch.setattr(run_module, "make_run_engine", forbidden)
        monkeypatch.setattr(EnsembleEngine, "run_ensemble", forbidden)
        warm = Orchestrator(store, sweep="figure3_tiny")
        rows = figure3_rows(TINY, seed=5, orchestrator=warm)
        assert rows == reference
        assert warm.counters == {"computed": 0, "cached": 6,
                                 "resumed_chunks": 0,
                                 "trials": 0, "interactions": 0,
                                 "lease_reclaims": 0, "lease_lost": 0}


class TestChunkResume:
    def test_mid_point_crash_resumes_bit_identical(self, tmp_path,
                                                   monkeypatch):
        # Shrink chunks so a 10-trial point spans [4, 4, 2].
        monkeypatch.setattr(run_module, "ENSEMBLE_CHUNK_TRIALS", 4)
        protocol = AVCProtocol.with_num_states(34)
        reference = measure_majority_point(protocol, **POINT)
        del reference["wall_seconds"]

        store = _store(tmp_path)
        calls = {"n": 0}
        intact = EnsembleEngine.run_ensemble

        def crash_on_second(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("simulated crash mid-point")
            return intact(self, *args, **kwargs)

        monkeypatch.setattr(EnsembleEngine, "run_ensemble",
                            crash_on_second)
        crashed = Orchestrator(store, sweep="fig")
        with pytest.raises(RuntimeError, match="mid-point"):
            crashed.spec_point(_spec(protocol, **POINT))
        monkeypatch.setattr(EnsembleEngine, "run_ensemble", intact)

        # One chunk survived in the journal; resume replays it and
        # recomputes only the remaining two.
        resumed = Orchestrator(store, sweep="fig", resume=True)
        row = resumed.spec_point(_spec(protocol, **POINT))
        assert resumed.counters["resumed_chunks"] == 1
        assert row == reference

    def test_restart_without_resume_discards_checkpoints(self, tmp_path):
        store = _store(tmp_path)
        store.journal("fig").append(
            {"event": "chunk", "point": "aa", "index": 0,
             "results": []})
        fresh = Orchestrator(store, sweep="fig", resume=False)
        assert fresh._pending == {}
        records = store.journal("fig").replay()
        assert [r["event"] for r in records] == ["begin"]


class TestGenericPoints:
    def test_point_cached_across_orchestrators(self, tmp_path):
        store = _store(tmp_path)
        calls = {"n": 0}

        def compute():
            calls["n"] += 1
            return [{"value": 1}, {"value": 2}]

        first = Orchestrator(store).point("thing", {"n": 5}, compute)
        second = Orchestrator(store).point("thing", {"n": 5}, compute)
        assert calls["n"] == 1
        assert first == second

    def test_no_cache_forces_recompute(self, tmp_path):
        store = _store(tmp_path)
        calls = {"n": 0}

        def compute():
            calls["n"] += 1
            return {"value": calls["n"]}

        Orchestrator(store).point("thing", {}, compute)
        cold = Orchestrator(store, use_cache=False)
        assert cold.point("thing", {}, compute) == {"value": 2}
        assert cold.counters["cached"] == 0

    def test_finish_clears_journal(self, tmp_path):
        store = _store(tmp_path)
        orch = Orchestrator(store, sweep="fig")
        orch.point("thing", {}, lambda: {"value": 1})
        assert store.journal("fig").exists()
        orch.finish()
        assert not store.journal("fig").exists()


class TestRetries:
    def test_non_transient_errors_not_retried(self):
        attempts = {"n": 0}

        def compute():
            attempts["n"] += 1
            raise ValueError("a real bug")

        orch = Orchestrator(sleep=lambda _: None)
        with pytest.raises(ValueError):
            orch.point("thing", {}, compute)
        assert attempts["n"] == 1
