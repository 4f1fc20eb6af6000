"""The count-ensemble engine: guards, routing, memory, regressions.

Statistical agreement with the sequential engines lives in
``test_engine_agreement.py`` (clean) and
``tests/faults/test_ensemble_faults.py`` (faulted); this module covers
the engine's own contracts — the collision-bounded batch loop's
invariants, the ``O(T*s)`` memory bound, the registry/RunSpec routing
by population size, and pinned seed-7 baselines.
"""

import tracemalloc

import numpy as np
import pytest

from repro import (
    AVCProtocol,
    FaultSpec,
    InvalidParameterError,
    RunSpec,
    run_trials,
)
from repro.errors import SimulationError
from repro.protocols import PairwiseLeaderElection
from repro.sim import (
    CountEnsembleEngine,
    EnsembleEngine,
    JitCountEnsembleEngine,
    TrajectoryRecorder,
    engines,
)
from repro.sim import kernels
from repro.sim.engines import count_ensemble_min_n, null_skip_max_states
from repro.sim.run import auto_engine_name, resolve_trial_engine

PROTOCOL = AVCProtocol(m=9, d=1)


def run_batch(trials=32, seed=7, count_a=36, count_b=25, **kwargs):
    initial = PROTOCOL.initial_counts(count_a, count_b)
    return CountEnsembleEngine(PROTOCOL).run_ensemble(
        initial, num_trials=trials, rng=np.random.default_rng(seed),
        **kwargs)


class TestGuards:
    def test_rejects_zero_trials(self):
        with pytest.raises(InvalidParameterError, match="num_trials"):
            run_batch(trials=0)

    def test_rejects_non_unanimity_protocols(self):
        protocol = PairwiseLeaderElection()
        initial = {state: 5 for state in range(protocol.num_states)}
        with pytest.raises(SimulationError, match="unanimity_settles"):
            CountEnsembleEngine(protocol).run_ensemble(
                initial, num_trials=2)

    def test_rejects_tiny_population(self):
        with pytest.raises(InvalidParameterError, match="at least 2"):
            run_batch(count_a=1, count_b=0)

    def test_rejects_adversarial_schedulers(self):
        with pytest.raises(InvalidParameterError, match="scheduler"):
            run_batch(faults=FaultSpec(scheduler="stubborn"))

    def test_spec_blockers_reject_bulk_engine(self):
        spec = RunSpec(PROTOCOL, count_a=36, count_b=25, num_trials=4,
                       seed=7, engine="count-ensemble",
                       recorder=TrajectoryRecorder(interval_steps=10))
        with pytest.raises(InvalidParameterError,
                           match="advances all trials in bulk"):
            run_trials(spec)


class TestBatchLoop:
    def test_settles_and_conserves_population(self):
        results = run_batch(trials=40)
        assert all(r.settled for r in results)
        for r in results:
            assert sum(r.final_counts.values()) == 61
            assert 0 < r.productive_steps <= r.steps

    def test_settled_rows_are_unanimous(self):
        for r in run_batch(trials=20, seed=3):
            votes = {PROTOCOL.output(state) for state in r.final_counts}
            assert votes == {r.decision}

    def test_budget_exhaustion_reports_exact_cap(self):
        results = run_batch(trials=10, max_steps=50)
        assert all(not r.settled and r.steps == 50 for r in results)
        assert all(r.decision is None for r in results)

    def test_already_settled_shortcut(self):
        initial = PROTOCOL.initial_counts(61, 0)
        results = CountEnsembleEngine(PROTOCOL).run_ensemble(
            initial, num_trials=5, rng=np.random.default_rng(1))
        assert all(r.settled and r.steps == 0 and r.decision == 1
                   for r in results)

    def test_same_seed_is_bit_identical(self):
        first = run_batch(trials=25, seed=11)
        second = run_batch(trials=25, seed=11)
        assert [(r.steps, r.decision, r.final_counts) for r in first] \
            == [(r.steps, r.decision, r.final_counts) for r in second]


class TestMemoryBound:
    def test_no_per_agent_allocation_at_paper_scale(self):
        """Persistent state is ``(T, s)`` and transient buffers are
        ``O(T*sqrt(n))``: at ``n = 10^6`` the run must stay far below
        the ``T*n`` token matrix (64 MB for 16 int32 rows)."""
        protocol = AVCProtocol(m=63, d=1)
        n = 1_000_001
        initial = protocol.initial_counts((n + 101) // 2,
                                          (n - 101) // 2)
        engine = CountEnsembleEngine(protocol)
        tracemalloc.start()
        results = engine.run_ensemble(initial, num_trials=16,
                                      rng=np.random.default_rng(5),
                                      max_steps=20_000)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(results) == 16
        assert peak < 16 * n  # well under one (T, n) int8 matrix even


class TestRouting:
    def test_auto_routes_small_populations_to_token_ensemble(self):
        protocol = AVCProtocol(m=63, d=1)
        spec = RunSpec(protocol, count_a=9, count_b=6, num_trials=8,
                       seed=7)
        assert 15 < count_ensemble_min_n()
        engine, fallback = resolve_trial_engine(spec)
        assert type(engine) is EnsembleEngine and fallback is None

    def test_auto_routes_large_populations_to_count_ensemble(self):
        protocol = AVCProtocol(m=63, d=1)
        half = count_ensemble_min_n() // 2
        spec = RunSpec(protocol, count_a=half + 1, count_b=half,
                       seed=7, num_trials=8)
        engine, fallback = resolve_trial_engine(spec)
        # The auto policy upgrades to the JIT twin when a kernel
        # backend is usable; the twin draws the identical stream.
        expected = (JitCountEnsembleEngine if kernels.default_backend()
                    else CountEnsembleEngine)
        assert type(engine) is expected and fallback is None

    def test_cut_depends_on_the_kernel_backend(self, monkeypatch):
        monkeypatch.setattr(kernels, "default_backend", lambda: "cext")
        assert count_ensemble_min_n() \
            == engines.COUNT_ENSEMBLE_MIN_N["compiled"]
        monkeypatch.setattr(kernels, "default_backend", lambda: None)
        assert count_ensemble_min_n() \
            == engines.COUNT_ENSEMBLE_MIN_N["numpy"]

    def test_registry_policy_uses_population_size(self):
        protocol = AVCProtocol(m=63, d=1)
        cut = count_ensemble_min_n()
        assert engines.resolve_name("auto", protocol, num_trials=8,
                                    n=cut) \
            == kernels.jit_engine_name("count-ensemble")
        assert engines.resolve_name("auto", protocol, num_trials=8,
                                    n=cut - 1) \
            == "ensemble"
        assert engines.resolve_name("auto", protocol, num_trials=8,
                                    n=None) == "ensemble"

    def test_run_routing_asks_the_policy(self):
        # resolve_trial_engine and the registry policy agree at and
        # around the cut: the crossover lives in one place.
        protocol = AVCProtocol(m=63, d=1)
        cut = count_ensemble_min_n()
        for n in (cut - 1, cut, cut + 1, 4 * cut + 1):
            a = (n + 1) // 2
            spec = RunSpec(protocol, count_a=a, count_b=n - a,
                           num_trials=4, seed=0)
            engine, _ = resolve_trial_engine(spec)
            assert engine.name == engines.resolve_name(
                "auto", protocol, num_trials=4, n=n)

    def test_null_skip_cut_depends_on_backend_and_trials(self,
                                                         monkeypatch):
        cuts = engines.NULL_SKIP_MAX_STATES
        monkeypatch.setattr(kernels, "default_backend", lambda: "cext")
        assert null_skip_max_states(8) == cuts["compiled"]
        assert null_skip_max_states(1) == cuts["numpy"]
        monkeypatch.setattr(kernels, "default_backend", lambda: None)
        assert null_skip_max_states(8) == cuts["numpy"]
        assert null_skip_max_states(1) == cuts["numpy"]

    def test_batches_leave_null_skipping_above_the_cut(self):
        # Read on this host's backend: the compiled cut with a kernel
        # backend, the single-trial one without.
        cut = null_skip_max_states(8)
        for s, vectorized in ((cut, False), (cut + 2, True)):
            protocol = AVCProtocol.with_num_states(s)
            spec = RunSpec(protocol, n=101, epsilon=1 / 101,
                           num_trials=8, seed=0)
            engine, fallback = resolve_trial_engine(spec)
            assert fallback is None
            assert (engine is not None) is vectorized, s
            name = auto_engine_name(spec)
            assert name == engines.resolve_name("auto", protocol,
                                                num_trials=8, n=101)
            if vectorized:
                assert name == engines.ensemble_engine_name(101)
                assert engine.name == name
            else:
                assert name == "null-skipping"

    def test_single_trials_keep_the_single_trial_cut(self):
        cut = engines.NULL_SKIP_MAX_STATES["numpy"]
        for s in (4, cut):
            protocol = AVCProtocol.with_num_states(s)
            assert engines.resolve_name("auto", protocol) \
                == "null-skipping"
            assert auto_engine_name(RunSpec(
                protocol, n=101, epsilon=1 / 101, seed=0)) \
                == "null-skipping"
        assert engines.resolve_name(
            "auto", AVCProtocol.with_num_states(cut + 2)) \
            == kernels.jit_engine_name("count")

    def test_explicit_name_creates_the_engine(self):
        engine = engines.create(PROTOCOL, "count-ensemble")
        assert isinstance(engine, CountEnsembleEngine)
        assert engine.name == "count-ensemble"

    def test_run_trials_explicit_engine(self):
        spec = RunSpec(PROTOCOL, count_a=36, count_b=25, num_trials=6,
                       seed=7, engine="count-ensemble")
        results = run_trials(spec)
        assert len(results) == 6
        assert all(r.engine_name == "count-ensemble" for r in results)


class TestSeed7Baseline:
    """Pinned baseline: the collision-bounded batch loop must not move
    a single sample without a deliberate fixture update."""

    def test_seed_7_regression(self):
        spec = RunSpec(AVCProtocol(m=15, d=1), n=101, epsilon=5 / 101,
                       num_trials=4, seed=7, engine="count-ensemble")
        assert [(r.steps, r.decision, r.settled, r.productive_steps)
                for r in run_trials(spec)] == [
            (1024, 1, True, 433), (1080, 1, True, 440),
            (1356, 1, True, 468), (1303, 1, True, 435)]
