"""Tests for the structured-state protocol API (lazy enumeration,
FieldSpec, the deprecation shim, and the dense-table guard)."""

import pytest

from repro import (
    AVCProtocol,
    FieldSpec,
    FourStateProtocol,
    InvalidParameterError,
    PhaseDoublingProtocol,
    LogStateMajorityProtocol,
    RunSpec,
    StructuredProtocol,
    ThreeStateProtocol,
    simulate,
)
from repro.errors import ProtocolError
from repro.protocols.base import (
    MAX_DENSE_STATES,
    MAJORITY_A,
    PopulationProtocol,
    UNDECIDED,
)
from repro.telemetry import InMemorySink, Telemetry
from repro.telemetry.context import use as use_telemetry


class TestFieldSpec:
    def test_basic(self):
        spec = FieldSpec("level", (0, 1, 2))
        assert spec.name == "level"
        assert spec.values == (0, 1, 2)
        assert len(spec) == 3

    def test_rejects_empty_name(self):
        with pytest.raises(InvalidParameterError):
            FieldSpec("", (0, 1))

    def test_rejects_empty_domain(self):
        with pytest.raises(InvalidParameterError):
            FieldSpec("x", ())

    def test_rejects_duplicate_values(self):
        with pytest.raises(InvalidParameterError):
            FieldSpec("x", (0, 1, 0))


class _Grid(StructuredProtocol):
    """A tiny concrete structured protocol for direct unit tests."""

    name = "grid"

    def __init__(self, prune=False):
        self.prune = prune
        super().__init__((
            FieldSpec("row", (0, 1)),
            FieldSpec("col", ("a", "b", "c")),
        ))

    def is_valid_state(self, state):
        if not self.prune:
            return True
        return not (state[0] == 1 and state[1] == "c")

    def transition(self, x, y):
        return x, y

    def output(self, state):
        return MAJORITY_A

    def is_settled(self, counts):
        return True


class TestStructuredProtocol:
    def test_enumeration_order_is_product_order(self):
        grid = _Grid()
        assert grid.states == (
            (0, "a"), (0, "b"), (0, "c"),
            (1, "a"), (1, "b"), (1, "c"),
        )

    def test_round_trip_indexing(self):
        grid = _Grid()
        for index, state in enumerate(grid.states):
            assert grid.state_index[state] == index
            assert grid.index_of(state) == index

    def test_pruning_removes_invalid_states(self):
        pruned = _Grid(prune=True)
        assert (1, "c") not in pruned.states
        assert pruned.num_states == 5
        assert not pruned.is_state((1, "c"))

    def test_product_size_is_closed_form(self):
        grid = _Grid(prune=True)
        # product_size counts the raw product, before pruning.
        assert grid.product_size == 6

    def test_field_helpers(self):
        grid = _Grid()
        assert grid.field_index("col") == 1
        assert grid.field_value((1, "b"), "col") == "b"
        assert grid.make_state(row=1, col="b") == (1, "b")

    def test_make_state_rejects_out_of_domain(self):
        from repro import InvalidStateError

        with pytest.raises(InvalidStateError):
            _Grid().make_state(row=2, col="a")

    def test_make_state_rejects_unknown_field(self):
        with pytest.raises(InvalidParameterError, match="unknown"):
            _Grid().make_state(row=0, col="a", depth=1)

    def test_marginal_counts(self):
        grid = _Grid()
        counts = {(0, "a"): 3, (1, "a"): 2, (1, "b"): 1}
        assert grid.marginal_counts(counts, "row") == {0: 3, 1: 3}
        assert grid.marginal_counts(counts, "col") == {"a": 5, "b": 1}

    def test_is_state_checks_domains_without_materializing(self):
        protocol = PhaseDoublingProtocol(levels=30)
        assert protocol.is_state((0, 1, 0))
        assert not protocol.is_state((0, 0, 0))  # opinion 0 not in domain
        assert not protocol.is_state("A")
        assert getattr(protocol, "_states_cache", None) is None

    def test_structured_protocols_pickle_without_caches(self):
        import pickle

        protocol = PhaseDoublingProtocol(levels=2, theta=2)
        protocol.states  # populate caches
        clone = pickle.loads(pickle.dumps(protocol))
        assert getattr(clone, "_states_cache", None) is None
        assert clone.states == protocol.states


class TestLazyMaterialization:
    def test_states_materialized_counter_fires_once(self):
        sink = InMemorySink()
        with use_telemetry(Telemetry([sink])):
            protocol = PhaseDoublingProtocol(levels=2, theta=2)
            first = protocol.states
            second = protocol.states
        assert first is second
        assert sink.total("protocol.states_materialized") == len(first)
        (record,) = [r for r in sink.records
                     if r["name"] == "protocol.states_materialized"]
        assert record["labels"]["protocol"] == protocol.name

    def test_construction_does_not_materialize(self):
        sink = InMemorySink()
        with use_telemetry(Telemetry([sink])):
            PhaseDoublingProtocol(levels=25)
        assert sink.total("protocol.states_materialized") == 0


class TestLazyTables:
    @pytest.mark.parametrize("factory", [
        ThreeStateProtocol,
        FourStateProtocol,
        lambda: AVCProtocol(m=5, d=2),
        lambda: PhaseDoublingProtocol(levels=2, theta=2),
        lambda: LogStateMajorityProtocol(levels=2, phase_len=2),
    ], ids=["three-state", "four-state", "avc", "phase-doubling",
            "log-state"])
    def test_chunked_rows_match_dense_table(self, factory):
        protocol = factory()
        out_x, out_y = protocol.transition_matrix()
        covered = 0
        for rows, chunk_x, chunk_y in protocol.iter_transition_rows(
                block=3):
            assert (out_x[rows] == chunk_x).all()
            assert (out_y[rows] == chunk_y).all()
            covered += chunk_x.shape[0]
        assert covered == protocol.num_states

    def test_table_matches_transition_index(self):
        protocol = PhaseDoublingProtocol(levels=2, theta=2)
        out_x, out_y = protocol.transition_matrix()
        s = protocol.num_states
        for i in range(0, s, 7):
            for j in range(0, s, 5):
                assert protocol.transition_index(i, j) == (
                    out_x[i, j], out_y[i, j])


class TestDenseTableGuard:
    def test_supports_dense_tables_thresholds(self):
        assert PhaseDoublingProtocol(levels=2).supports_dense_tables
        big = PhaseDoublingProtocol(levels=300)
        assert big.num_states > MAX_DENSE_STATES
        assert not big.supports_dense_tables

    def test_transition_matrix_guard(self):
        big = PhaseDoublingProtocol(levels=300)
        with pytest.raises(ProtocolError, match="iter_transition_rows"):
            big.transition_matrix()

    def test_dense_engines_reject_oversized_protocols(self):
        from repro.sim import engines

        big = PhaseDoublingProtocol(levels=300)
        for name in ("ensemble", "count-ensemble"):
            with pytest.raises(InvalidParameterError,
                               match="dense"):
                engines.create(big, name)

    def test_simulate_rejects_oversized_explicit_ensemble(self):
        # The guard must fire on the simulate() fast path too, not
        # only on registry construction — the explicit-engine branch
        # of resolve_trial_engine used to bypass it and fail deep in
        # table materialization.
        big = PhaseDoublingProtocol(levels=300)
        for engine in ("ensemble", "count-ensemble"):
            with pytest.raises(InvalidParameterError, match="dense"):
                simulate(RunSpec(big, n=50, epsilon=0.2, num_trials=2,
                                 seed=0, engine=engine))

    def test_auto_policy_routes_oversized_to_sparse(self):
        from repro.sim.engines import route

        big = PhaseDoublingProtocol(levels=300)
        resolved = route(RunSpec(big, n=1000, epsilon=0.2, num_trials=8,
                                 seed=0))
        assert resolved.engine.startswith("count")
        assert "ensemble" not in resolved.engine
        assert resolved.reason == "no dense table"


class TestDeprecationShim:
    def test_enumerate_states_override_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")

            class _Modern(ThreeStateProtocol):
                def enumerate_states(self):
                    return ("A", "B", "_")

    def test_shimmed_protocol_is_bit_identical(self):
        """A subclass overriding the ``states`` property (the old eager
        pattern) shadows the lazy accessor and runs bit for bit like
        the base: same states, same index order, same RNG streams."""
        class _Legacy(ThreeStateProtocol):
            @property
            def states(self):
                return ("A", "B", "_")

        legacy = _Legacy()
        modern = ThreeStateProtocol()
        assert legacy.states == modern.states
        baseline = simulate(RunSpec(modern, n=100, epsilon=0.2,
                                    num_trials=3, seed=7,
                                    engine="count"))
        shimmed = simulate(RunSpec(legacy, n=100, epsilon=0.2,
                                   num_trials=3, seed=7,
                                   engine="count"))
        assert ([(r.steps, r.decision) for r in shimmed]
                == [(r.steps, r.decision) for r in baseline])

    def test_base_default_requires_enumerate_states(self):
        class _Empty(PopulationProtocol):
            def transition(self, x, y):
                return x, y

            def output(self, state):
                return UNDECIDED

            def is_settled(self, counts):
                return False

        with pytest.raises(NotImplementedError,
                           match="enumerate_states"):
            _Empty().states
