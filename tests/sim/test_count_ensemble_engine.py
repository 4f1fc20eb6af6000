"""The count-ensemble engine: guards, routing, memory, regressions.

Statistical agreement with the sequential engines lives in
``test_engine_agreement.py`` (clean) and
``tests/faults/test_ensemble_faults.py`` (faulted); this module covers
the engine's own contracts — the collision-bounded batch loop's
invariants, the ``O(T*s)`` memory bound, the ``auto`` routing by
population size, and pinned seed-7 baselines.
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
from repro.sim.engines import COUNT_ENSEMBLE_MIN_N, NULL_SKIP_MAX_STATES, route
from repro.sim.run import make_engine, resolve_trial_engine

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


def backend():
    """This host's key into the routing cuts."""
    return "numpy" if kernels.default_backend() is None else "compiled"


def count_spec(protocol, n, trials):
    a = (n + 1) // 2
    return RunSpec(protocol, count_a=a, count_b=n - a, num_trials=trials,
                   seed=0)


class TestRouting:
    def test_auto_routes_small_populations_to_token_ensemble(self):
        protocol = AVCProtocol(m=63, d=1)
        spec = RunSpec(protocol, count_a=9, count_b=6, num_trials=8,
                       seed=7)
        assert 15 < COUNT_ENSEMBLE_MIN_N[backend()]
        engine, reason = resolve_trial_engine(spec)
        assert type(engine) is EnsembleEngine
        assert reason == f"below count-ensemble cut ({backend()})"

    def test_auto_routes_large_populations_to_count_ensemble(self):
        protocol = AVCProtocol(m=63, d=1)
        half = COUNT_ENSEMBLE_MIN_N[backend()] // 2
        spec = RunSpec(protocol, count_a=half + 1, count_b=half,
                       seed=7, num_trials=8)
        engine, reason = resolve_trial_engine(spec)
        # The route upgrades to the JIT twin when a kernel backend is
        # usable; the twin draws the identical stream.
        expected = (JitCountEnsembleEngine if kernels.default_backend()
                    else CountEnsembleEngine)
        assert type(engine) is expected
        assert reason == f"count-ensemble cut ({backend()})"

    def test_cut_depends_on_the_kernel_backend(self, monkeypatch):
        protocol = AVCProtocol(m=63, d=1)
        for key, loaded, name in (("compiled", "cext", "count-ensemble-jit"),
                                  ("numpy", None, "count-ensemble")):
            monkeypatch.setattr(kernels, "default_backend",
                                lambda loaded=loaded: loaded)
            cut = COUNT_ENSEMBLE_MIN_N[key]
            assert route(count_spec(protocol, cut, 8)) \
                == (name, True, f"count-ensemble cut ({key})")
            assert route(count_spec(protocol, cut - 1, 8)) \
                == ("ensemble", True, f"below count-ensemble cut ({key})")

    def test_registry_policy_uses_population_size(self):
        # The route reads the population from whichever input form the
        # spec uses, and never without one.
        protocol = AVCProtocol(m=63, d=1)
        cut = COUNT_ENSEMBLE_MIN_N[backend()]
        count_ensemble = kernels.jit_engine_name("count-ensemble")
        for n, name in ((cut, count_ensemble), (cut - 1, "ensemble")):
            a = (n + 1) // 2
            initial = protocol.initial_counts(a, n - a)
            for spec in (count_spec(protocol, n, 8),
                         RunSpec(protocol, initial=initial, num_trials=8,
                                 seed=0)):
                assert route(spec).engine == name, n
        odd = cut | 1
        assert route(RunSpec(protocol, n=odd, epsilon=1 / odd,
                             num_trials=8, seed=0)).engine \
            == count_ensemble

    def test_run_routing_asks_the_policy(self):
        # resolve_trial_engine builds what route names, at and around
        # the cut: the crossover lives in one place.
        protocol = AVCProtocol(m=63, d=1)
        cut = COUNT_ENSEMBLE_MIN_N[backend()]
        for n in (cut - 1, cut, cut + 1, 4 * cut + 1):
            spec = count_spec(protocol, n, 4)
            engine, reason = resolve_trial_engine(spec)
            assert (engine.name, True, reason) == route(spec)

    def test_null_skip_cut_depends_on_backend_and_trials(self,
                                                         monkeypatch):
        # s = 6 lies between the compiled batch cut and the
        # single-trial cut.
        protocol = AVCProtocol.with_num_states(6)
        assert NULL_SKIP_MAX_STATES["compiled"] < 6 \
            <= NULL_SKIP_MAX_STATES["numpy"]
        for loaded, batch in (("cext", "count-ensemble-jit"),
                              (None, "null-skipping")):
            monkeypatch.setattr(kernels, "default_backend",
                                lambda loaded=loaded: loaded)
            assert route(count_spec(protocol, 101, 8)).engine == batch
            assert route(count_spec(protocol, 101, 1)) \
                == ("null-skipping", False, "null-skip cut")

    def test_batches_leave_null_skipping_above_the_cut(self):
        # Read on this host's backend: the compiled cut with a kernel
        # backend, the single-trial one without.
        cut = NULL_SKIP_MAX_STATES[backend()]
        for s, vectorized in ((cut, False), (cut + 2, True)):
            protocol = AVCProtocol.with_num_states(s)
            spec = RunSpec(protocol, n=101, epsilon=1 / 101,
                           num_trials=8, seed=0)
            engine, reason = resolve_trial_engine(spec)
            assert (engine is not None) is vectorized, s
            chosen = route(spec)
            assert chosen.reason == reason
            if vectorized:
                assert chosen.ensemble and chosen.engine == engine.name
            else:
                assert chosen == ("null-skipping", False,
                                  "null-skip cut")

    def test_single_trials_keep_the_single_trial_cut(self):
        cut = NULL_SKIP_MAX_STATES["numpy"]
        for s in (4, cut):
            protocol = AVCProtocol.with_num_states(s)
            assert make_engine(protocol, "auto").name == "null-skipping"
            assert route(RunSpec(
                protocol, n=101, epsilon=1 / 101, seed=0)).engine \
                == "null-skipping"
        wide = AVCProtocol.with_num_states(cut + 2)
        assert make_engine(wide, "auto").name \
            == kernels.jit_engine_name("count")
        assert route(RunSpec(wide, n=101, epsilon=1 / 101, seed=0)) \
            == (kernels.jit_engine_name("count"), False, "single trial")

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
