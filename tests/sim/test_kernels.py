"""The compiled-kernel backends: probing, fallback, bit-identity.

Statistical agreement of the JIT engines lives in
``test_engine_agreement.py``; this module covers the backend registry
itself — probe/reporting, the ``REPRO_JIT=off`` fallback contract
(numpy resolution, ``engine.fallback`` telemetry, pinned baselines
unmoved), the packed transition table, the kernel-contract guards,
and byte-identity between every JIT engine and its numpy twin.
"""

import numpy as np
import pytest

import tracemalloc

from repro import AVCProtocol, FaultSpec, RunSpec, run_trials
from repro.protocols.four_state import FourStateProtocol
from repro.protocols.successors import PhaseDoublingProtocol
from repro.protocols.three_state import ThreeStateProtocol
from repro.sim import (
    BatchEngine,
    CountEngine,
    CountEnsembleEngine,
    engines,
    kernels,
)
from repro.sim.engines import COUNT_ENSEMBLE_MIN_N, route
from repro.sim.run import make_engine
from repro.sim.ensemble_common import class_tables, flat_transition_tables
from repro.telemetry import InMemorySink, Telemetry

needs_backend = pytest.mark.skipif(
    kernels.default_backend() is None,
    reason="no usable kernel backend on this host")

#: The count-ensemble seed-7 fixture pinned in
#: ``test_count_ensemble_engine.py`` — the JIT twin must reproduce it
#: byte for byte, with and without a backend.
SEED7_SPEC = dict(n=101, epsilon=5 / 101, num_trials=4, seed=7)
SEED7_BASELINE = [
    (1024, 1, True, 433), (1080, 1, True, 440),
    (1356, 1, True, 468), (1303, 1, True, 435)]


def seed7_tuples(engine, **extra):
    spec = RunSpec(AVCProtocol(m=15, d=1), engine=engine,
                   **SEED7_SPEC, **extra)
    return [(r.steps, r.decision, r.settled, r.productive_steps)
            for r in run_trials(spec)]


def result_tuples(engine, *, faults=None, num_trials=6, seed=3):
    spec = RunSpec(AVCProtocol(m=9, d=1), count_a=36, count_b=25,
                   num_trials=num_trials, seed=seed, engine=engine,
                   faults=faults)
    return [(r.steps, r.decision, r.settled, r.productive_steps)
            for r in run_trials(spec)]


def whole_table_pack(table_x, table_y, state_class):
    """The packed table by the original whole-table formula."""
    xi = np.ascontiguousarray(table_x, dtype=np.int64)
    yj = np.ascontiguousarray(table_y, dtype=np.int64)
    cls = np.ascontiguousarray(state_class, dtype=np.int64)
    s = cls.shape[0]
    i = np.repeat(np.arange(s, dtype=np.int64), s)
    j = np.tile(np.arange(s, dtype=np.int64), s)
    packed = xi | (yj << 16)
    packed |= ((xi != i) | (yj != j)).astype(np.int64) << 32
    for bit, c in ((33, 0), (36, 1), (39, 2)):
        delta = ((cls[xi] == c).astype(np.int64) + (cls[yj] == c)
                 - (cls[i] == c) - (cls[j] == c))
        packed |= (delta + 2) << bit
    return packed


@pytest.fixture
def jit_off(monkeypatch):
    """Disable every backend via ``REPRO_JIT=off`` for one test."""
    monkeypatch.setenv("REPRO_JIT", "off")
    kernels.reset_backend_cache()
    yield
    monkeypatch.undo()
    kernels.reset_backend_cache()


class TestBackendReporting:
    def test_available_reports_every_backend(self):
        report = kernels.available()
        assert set(report) == set(kernels.BACKENDS)
        assert all(isinstance(v, bool) for v in report.values())

    def test_default_backend_consistent_with_report(self):
        backend = kernels.default_backend()
        assert backend in (None,) + kernels.BACKENDS
        if backend is not None:
            assert kernels.available()[backend]
            assert kernels.load(backend).backend == backend

    def test_fallback_reason_is_a_string(self):
        assert isinstance(kernels.fallback_reason(), str)

    def test_jit_engine_name_maps_only_upgradable_names(self):
        # Names without a compiled twin never upgrade.
        assert kernels.jit_engine_name("ensemble") == "ensemble"
        assert kernels.jit_engine_name("agent") == "agent"
        upgraded = kernels.jit_engine_name("count-ensemble")
        if kernels.default_backend() is None:
            assert upgraded == "count-ensemble"
        else:
            assert upgraded == "count-ensemble-jit"


class TestDisabledFallback:
    def test_env_off_disables_probing(self, jit_off):
        assert kernels.default_backend() is None
        assert "REPRO_JIT" in kernels.fallback_reason()
        assert kernels.jit_engine_name("count") == "count"
        assert kernels.warm_up() is None
        with pytest.raises(ImportError, match="REPRO_JIT"):
            kernels.load()

    def test_auto_policy_resolves_to_numpy_names(self, jit_off):
        protocol = AVCProtocol(m=63, d=1)
        cut = COUNT_ENSEMBLE_MIN_N["numpy"]
        assert route(RunSpec(protocol, count_a=cut // 2,
                             count_b=cut // 2, num_trials=8)) \
            == ("count-ensemble", True, "count-ensemble cut (numpy)")
        assert route(RunSpec(protocol, count_a=cut // 2,
                             count_b=cut // 2 - 1, num_trials=8)) \
            == ("ensemble", True, "below count-ensemble cut (numpy)")
        assert make_engine(protocol, "auto").name == "count"

    def test_registry_returns_numpy_twin(self, jit_off):
        protocol = AVCProtocol(m=9, d=1)
        assert type(engines.create(protocol, "count-jit")) \
            is CountEngine
        assert type(engines.create(protocol, "count-ensemble-jit")) \
            is CountEnsembleEngine
        assert type(engines.create(protocol, "batch-jit")) \
            is BatchEngine

    def test_explicit_jit_request_emits_fallback_event(self, jit_off):
        sink = InMemorySink()
        tuples = seed7_tuples("count-ensemble-jit",
                              telemetry=Telemetry([sink]))
        # The request is honored exactly (numpy twin, same stream)...
        assert tuples == SEED7_BASELINE
        # ...and the downgrade is recorded, never silent.
        events = sink.events("engine.fallback")
        assert len(events) == 1
        labels = events[0]["labels"]
        assert labels["requested"] == "count-ensemble-jit"
        assert "REPRO_JIT" in labels["reason"]

    def test_unusable_backends_report_why(self, monkeypatch):
        # Both backends failing to load (import failure, no compiler)
        # is the same contract as REPRO_JIT=off, with the per-backend
        # errors surfaced in the reason.
        monkeypatch.delenv("REPRO_JIT", raising=False)
        monkeypatch.setattr(
            kernels, "_try_load",
            lambda backend: (None, f"{backend}: boom"))
        kernels.reset_backend_cache()
        try:
            assert kernels.default_backend() is None
            assert "cext: boom" in kernels.fallback_reason()
            assert kernels.available() == {"cext": False}
            assert kernels.jit_engine_name("count-ensemble") \
                == "count-ensemble"
        finally:
            monkeypatch.undo()
            kernels.reset_backend_cache()

    def test_auto_downgrade_is_silent(self, jit_off):
        # "auto" never promised a JIT engine, so resolving to the
        # numpy implementation emits no fallback event.
        sink = InMemorySink()
        half = COUNT_ENSEMBLE_MIN_N["numpy"] // 2
        spec = RunSpec(AVCProtocol(m=9, d=1), count_a=half + 51,
                       count_b=half - 50, num_trials=2, seed=0,
                       max_steps=5_000, engine="auto",
                       telemetry=Telemetry([sink]))
        run_trials(spec)
        assert sink.events("engine.fallback") == []


class TestPackTransitionTable:
    def test_null_protocol_packs_identity(self):
        tx = np.array([0, 0, 1, 1], dtype=np.int64)
        ty = np.array([0, 1, 0, 1], dtype=np.int64)
        cls = np.array([1, 2], dtype=np.int64)
        packed = kernels.pack_transition_table(tx, ty, cls)
        assert packed.dtype == np.int64 and packed.shape == (4,)
        assert list(packed & 0xFFFF) == [0, 0, 1, 1]
        assert list((packed >> 16) & 0xFFFF) == [0, 1, 0, 1]
        # Identity transitions: never productive, all deltas biased 2.
        assert not np.any((packed >> 32) & 1)
        for bit in (33, 36, 39):
            assert list((packed >> bit) & 0x7) == [2, 2, 2, 2]

    def test_productive_entry_and_class_deltas(self):
        # Pair (0, 0) -> (1, 0): productive, moves one agent from
        # class 1 to class 2.
        tx = np.array([1, 0, 1, 1], dtype=np.int64)
        ty = np.array([0, 1, 0, 1], dtype=np.int64)
        cls = np.array([1, 2], dtype=np.int64)
        entry = int(kernels.pack_transition_table(tx, ty, cls)[0])
        assert (entry >> 32) & 1
        assert (entry >> 33) & 0x7 == 2      # class 0: unchanged
        assert (entry >> 36) & 0x7 == 2 - 1  # class 1: -1
        assert (entry >> 39) & 0x7 == 2 + 1  # class 2: +1

    def test_matches_protocol_tables(self):
        protocol = AVCProtocol(m=9, d=1)
        tx, ty, _, _ = flat_transition_tables(protocol)
        cls, _ = class_tables(protocol)
        packed = kernels.pack_transition_table(tx, ty, cls)
        s = protocol.num_states
        assert np.array_equal(packed & 0xFFFF, tx)
        assert np.array_equal((packed >> 16) & 0xFFFF, ty)
        i = np.repeat(np.arange(s), s)
        j = np.tile(np.arange(s), s)
        assert np.array_equal(((packed >> 32) & 1).astype(bool),
                              (tx != i) | (ty != j))


PACKED_PROTOCOLS = {
    "avc-s4": lambda: AVCProtocol.with_num_states(4),
    "avc-s130": lambda: AVCProtocol.with_num_states(130),
    "avc-s1002": lambda: AVCProtocol.with_num_states(1002),
    "three-state": ThreeStateProtocol,
    "four-state": FourStateProtocol,
    "phase-doubling": lambda: PhaseDoublingProtocol(levels=5, theta=2),
}


class TestRowBlockPacking:
    """The packed table is built in row blocks, straight from the
    protocol; it must equal the whole-table formula byte for byte."""

    @pytest.mark.parametrize("make", PACKED_PROTOCOLS.values(),
                             ids=PACKED_PROTOCOLS.keys())
    def test_matches_whole_table_formula(self, make):
        protocol = make()
        cls, _ = class_tables(protocol)
        from_blocks = kernels.pack_transition_blocks(
            protocol.iter_transition_rows(), cls)
        tx, ty, _, _ = flat_transition_tables(protocol)
        expected = whole_table_pack(tx, ty, cls)
        assert from_blocks.tobytes() == expected.tobytes()
        assert kernels.pack_transition_table(tx, ty, cls).tobytes() \
            == expected.tobytes()
        # From the memoized table's slices too.
        assert kernels.pack_transition_blocks(
            protocol.iter_transition_rows(block=7), cls).tobytes() \
            == expected.tobytes()

    def test_kernel_tables_peak_memory_at_figure3_scale(self):
        # Figure 3's n = 1001 point: s = 1002, an 8 MB packed table.
        # Neither the s x s transition_matrix pair (16 MB) nor
        # whole-table temporaries may be built on the way.
        from repro.sim.kernels.jit_engines import _KernelTablesMixin

        holder = _KernelTablesMixin()
        holder.protocol = AVCProtocol.with_num_states(1002)
        tracemalloc.start()
        try:
            packed, _ = holder._kernel_tables()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert packed.nbytes == 1002 * 1002 * 8
        assert peak <= 1.5 * packed.nbytes
        assert getattr(holder.protocol, "_transition_matrix_cache",
                       None) is None


@needs_backend
class TestBitIdentity:
    """Every JIT engine must return byte-identical results to its
    numpy twin — the kernels consume pre-drawn numpy streams only."""

    def test_count_ensemble_seed7_baseline(self):
        assert seed7_tuples("count-ensemble-jit") == SEED7_BASELINE
        assert seed7_tuples("count-ensemble-jit") \
            == seed7_tuples("count-ensemble")

    def test_count_engine_identity(self):
        assert result_tuples("count-jit") == result_tuples("count")

    def test_batch_engine_identity(self):
        assert result_tuples("batch-jit") == result_tuples("batch")

    def test_contract_guard_inherits_numpy_round(self, monkeypatch):
        # Past the kernel contracts the ensemble engine must hand the
        # round back to the inherited numpy loop — same stream, same
        # results, no error.
        from repro.sim.kernels import jit_engines
        with_kernel = seed7_tuples("count-ensemble-jit")
        monkeypatch.setattr(jit_engines, "MAX_KERNEL_TRIALS", 2)
        assert seed7_tuples("count-ensemble-jit") == with_kernel

    def test_faulted_path_identity(self):
        # Faults route through the inherited numpy fault loop; the
        # JIT name must change nothing.
        faults = FaultSpec(flip_prob=0.02, horizon=400)
        assert result_tuples("count-ensemble-jit", faults=faults,
                             num_trials=8) \
            == result_tuples("count-ensemble", faults=faults,
                             num_trials=8)
        assert result_tuples("count-jit", faults=faults) \
            == result_tuples("count", faults=faults)

    def test_scheduler_faults_rejected_like_the_twin(self):
        # Capability errors are inherited code: an adversarial
        # scheduler is rejected with the same error as the twin.
        faults = FaultSpec(scheduler="stubborn")
        for name in ("count-jit", "count-ensemble-jit"):
            with pytest.raises(Exception) as jit_err:
                result_tuples(name, faults=faults, num_trials=2)
            with pytest.raises(Exception) as numpy_err:
                result_tuples(name.removesuffix("-jit"), faults=faults,
                              num_trials=2)
            assert type(jit_err.value) is type(numpy_err.value)
            # Identical wording, each naming the engine it rejects.
            assert str(jit_err.value).replace(name,
                                              name.removesuffix("-jit")) \
                == str(numpy_err.value)


def _ensemble_tuples(engine, initial, *, trials, seed, max_steps):
    generator = np.random.default_rng(seed)
    results = engine.run_ensemble(initial, num_trials=trials,
                                  rng=generator, max_steps=max_steps)
    return ([(r.steps, r.settled, r.decision, r.productive_steps,
              tuple(r.final_counts.values())) for r in results],
            generator.bit_generator.state)


@needs_backend
class TestEnsembleBatch:
    """The compiled batch loop against the numpy round loop."""

    PROTOCOL = AVCProtocol.with_num_states(66)

    @pytest.mark.parametrize("n, budgets", [
        (3, (None, 1)),
        (65, (None, 7)),
        (1001, (None, 7, 1_300)),
        (65537, (7, 20_000)),
        (1 << 20, (7, 5_000)),
    ])
    @pytest.mark.parametrize("trials", [1, 2, 33, 128])
    def test_byte_identical_to_numpy(self, n, budgets, trials):
        from repro.sim.kernels.jit_engines import JitCountEnsembleEngine

        a = n // 2 + max(1, n // 10)
        initial = self.PROTOCOL.initial_counts(a, n - a)
        numpy_engine = CountEnsembleEngine(self.PROTOCOL)
        jit_engine = JitCountEnsembleEngine(self.PROTOCOL)
        # Budgets run out mid-round (7, and windows that do not divide
        # the larger ones); None runs every trial to its settle.
        for max_steps in budgets:
            for seed in (0, 1):
                assert _ensemble_tuples(
                    jit_engine, initial, trials=trials, seed=seed,
                    max_steps=max_steps) == _ensemble_tuples(
                    numpy_engine, initial, trials=trials, seed=seed,
                    max_steps=max_steps)

    def test_one_foreign_call_per_chunk(self):
        calls = {"ensemble_batch": 0, "ensemble_round": 0}
        backend = kernels.load()

        class Counting:
            def __getattr__(self, name):
                function = getattr(backend, name)

                def counted(*args, **kwargs):
                    calls[name] = calls.get(name, 0) + 1
                    return function(*args, **kwargs)
                return counted

        engine = engines.create(AVCProtocol(m=15, d=1),
                                "count-ensemble-jit")
        engine._kernels = Counting()
        spec = RunSpec(AVCProtocol(m=15, d=1), n=101, epsilon=5 / 101,
                       num_trials=300, seed=7, engine=engine)
        assert len(run_trials(spec)) == 300
        # 300 trials = chunks of 128 + 128 + 44.
        assert calls == {"ensemble_batch": 3, "ensemble_round": 0}


class TestLoadTimeCheck:
    def test_mismatched_draws_raise_build_error(self):
        from repro.sim.kernels import cext_backend

        class WrongDraws:
            @staticmethod
            def repro_bounded_fill(bitgen, rng, count, out):
                ctypes_out = np.ctypeslib.as_array(
                    (np.ctypeslib.ctypes.c_int64 * count).from_address(
                        out))
                ctypes_out[:] = 0

        with pytest.raises(cext_backend.KernelBuildError,
                           match="Generator.integers"):
            cext_backend._check_draws(WrongDraws())

    def test_failed_check_falls_back_with_event(self, monkeypatch):
        from repro.sim.kernels import cext_backend

        def refuse():
            raise cext_backend.KernelBuildError(
                "compiled draws differ from Generator.integers")

        monkeypatch.delenv("REPRO_JIT", raising=False)
        monkeypatch.setattr(cext_backend, "load", refuse)
        kernels.reset_backend_cache()
        try:
            assert kernels.default_backend() is None
            sink = InMemorySink()
            assert seed7_tuples("count-ensemble-jit",
                                telemetry=Telemetry([sink])) \
                == SEED7_BASELINE
            (event,) = sink.events("engine.fallback")
            assert "Generator.integers" in event["labels"]["reason"]
        finally:
            monkeypatch.undo()
            kernels.reset_backend_cache()

    def test_cache_tag_follows_the_numpy_version(self, monkeypatch):
        from repro.sim.kernels import cext_backend

        tag = cext_backend._cache_tag()
        monkeypatch.setattr(cext_backend.np, "__version__", "0.0.0")
        assert cext_backend._cache_tag() != tag
