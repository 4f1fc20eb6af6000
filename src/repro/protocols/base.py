"""Core abstractions for population protocols.

A *population protocol* [AAD+06] is a finite state machine executed by
``n`` indistinguishable agents.  In each discrete step the scheduler
draws an ordered pair of distinct agents uniformly at random; both
agents update their state through the deterministic transition function
``delta: Q x Q -> Q x Q``.  An output function ``gamma: Q -> Y`` maps
states to outputs.

This module defines:

* :class:`PopulationProtocol` -- the abstract interface every protocol
  in the library implements.  States may be arbitrary hashable objects;
  engines address them through dense integer indices for speed.
* :class:`StructuredProtocol` -- protocols whose states are tuples of
  typed fields (``phase x level x opinion``-style products), with the
  state space declared as :class:`FieldSpec` domains plus a validity
  predicate and enumerated lazily on first use.
* :class:`MajorityProtocol` -- the specialization for two-input majority
  (inputs ``"A"`` / ``"B"``, outputs ``1`` / ``0``), with helpers to
  build initial configurations from ``(n, epsilon)`` or ``(count_a,
  count_b)``.

State enumeration is *lazy*: subclasses implement
:meth:`PopulationProtocol.enumerate_states` and the ``states`` tuple,
index maps, dense transition tables, and output arrays are
materialized on demand and cached.  Materializing the states tuple
emits a ``protocol.states_materialized`` telemetry counter, so sweeps
can audit which protocols ever paid for eager enumeration.

Engines never call :meth:`PopulationProtocol.transition` directly in
their inner loops; they use :meth:`transition_index`, which is memoized
per ordered index pair (the sparse path — only reachable pairs are
ever computed), or :meth:`transition_matrix`, which materializes the
full ``s x s`` table for vectorized engines and is guarded by
:data:`MAX_DENSE_STATES` so structured products too large to densify
fail fast with a capability error instead of allocating gigabytes.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidParameterError, InvalidStateError, ProtocolError
from ..telemetry.context import current as current_telemetry

__all__ = [
    "State",
    "FieldSpec",
    "PopulationProtocol",
    "StructuredProtocol",
    "MajorityProtocol",
    "MAJORITY_A",
    "MAJORITY_B",
    "UNDECIDED",
    "MAX_DENSE_STATES",
    "TABLE_BLOCK_PAIRS",
]

State = Hashable

#: Largest state space for which the dense ``s x s`` transition tables
#: may be materialized.  Structured products beyond this stay on the
#: sparse per-pair path (:meth:`PopulationProtocol.transition_index`);
#: engines that require dense tables reject such protocols with a
#: capability error (see :meth:`PopulationProtocol.supports_dense_tables`).
MAX_DENSE_STATES = 4096

#: State pairs per block of :meth:`PopulationProtocol.iter_transition_rows`:
#: bounds a block consumer's temporaries to 64 KB per array whatever
#: ``s`` is.  Packing AVC's s = 1002 table peaks 1.2 MB above the 8 MB
#: table at this size and 2.6 MB above it at 2^14 pairs, in the same
#: time; at 2^12 it takes twice as long.
TABLE_BLOCK_PAIRS = 1 << 13

# Output conventions for majority protocols (the paper's Y = {0, 1}).
MAJORITY_A = 1  #: output value meaning "initial majority was A"
MAJORITY_B = 0  #: output value meaning "initial majority was B"
UNDECIDED = None  #: pseudo-output for states that do not yet map to a decision


class PopulationProtocol(ABC):
    """Abstract base class for population protocols.

    Subclasses provide the state space through
    :meth:`enumerate_states` (lazy — nothing is materialized until an
    engine asks), the transition function, and the output function.
    The base class derives index-based views used by all simulation
    engines.

    Subclasses should treat their state space as immutable after
    construction: the index maps and memoized transition tables are
    built lazily and never invalidated.
    """

    #: Human-readable protocol name (subclasses override).
    name: str = "protocol"

    #: True when :meth:`is_settled` is exactly "all agents share one
    #: defined output".  Lets engines track convergence in O(1) per
    #: interaction; see :mod:`repro.sim.convergence`.
    unanimity_settles: bool = False

    #: True (the default contract) when :meth:`is_settled` depends only
    #: on the *support* of the configuration — which states are
    #: present, not their exact counts.  Engines then only re-evaluate
    #: it when the support changes.  Protocols whose settledness is
    #: count-sensitive (e.g. leader election's "exactly one leader")
    #: must set this to False.
    settled_support_only: bool = True

    # ------------------------------------------------------------------
    # Interface to implement
    # ------------------------------------------------------------------

    def enumerate_states(self) -> Iterable[State]:
        """Yield every state in index order (lazy, computed on demand).

        The enumeration order is the contract: it defines the dense
        index of every state, which in turn pins the RNG streams of
        every engine.  Implementations must be deterministic.
        """
        raise NotImplementedError(
            f"{type(self).__name__} must implement enumerate_states()")

    @abstractmethod
    def transition(self, x: State, y: State) -> tuple[State, State]:
        """Apply the transition function ``delta`` to an ordered pair.

        Returns the updated ordered pair ``(x', y')``.  Must be
        deterministic and total on ``states x states``.
        """

    @abstractmethod
    def output(self, state: State):
        """The output ``gamma(state)``; ``UNDECIDED`` if not yet mapped."""

    @abstractmethod
    def is_settled(self, counts: Mapping[State, int]) -> bool:
        """Whether a configuration has irrevocably converged.

        ``counts`` maps states to agent counts (states with zero count
        may be omitted).  Must return ``True`` only when every agent has
        the same, well-defined output *and* no reachable configuration
        can ever show a different output.  Each implementation justifies
        its predicate in its docstring and is cross-checked against
        brute-force reachability in the test suite for small systems.
        """

    # ------------------------------------------------------------------
    # Derived index-based views (shared by all engines)
    # ------------------------------------------------------------------

    @property
    def states(self) -> tuple[State, ...]:
        """The ordered tuple of all states (defines index order).

        Materialized lazily from :meth:`enumerate_states` on first
        access and cached; the materialization is reported through the
        ``protocol.states_materialized`` telemetry counter so sweeps
        can audit eager enumeration.  Code that only needs membership
        or reachability should prefer :meth:`is_state` and the sparse
        accessors, which never force the full tuple.
        """
        cached = getattr(self, "_states_cache", None)
        if cached is None:
            cached = tuple(self.enumerate_states())
            self._states_cache = cached
            telemetry = current_telemetry()
            if telemetry.enabled:
                telemetry.count("protocol.states_materialized",
                                len(cached), protocol=self.name)
        return cached

    @property
    def num_states(self) -> int:
        """Number of states ``s = |Q|``."""
        return len(self.states)

    def is_state(self, state: State) -> bool:
        """Whether ``state`` belongs to the state space.

        The default materializes the index map; structured protocols
        override this with a field-domain check so reachability walks
        (see :func:`repro.protocols.validate.reachable_closure`) never
        force the full product.
        """
        return state in self.state_index

    @property
    def supports_dense_tables(self) -> bool:
        """Whether the ``s x s`` dense tables may be materialized.

        Engines that vectorize through :meth:`transition_matrix`
        (ensemble family, JIT kernels) check this up front and reject
        oversized protocols with a capability error, steering callers
        to the sparse count/agent paths.
        """
        return self.num_states <= MAX_DENSE_STATES

    @property
    def state_index(self) -> dict[State, int]:
        """Mapping from state object to its dense index."""
        cached = getattr(self, "_state_index_cache", None)
        if cached is None:
            cached = {state: i for i, state in enumerate(self.states)}
            if len(cached) != len(self.states):
                raise ProtocolError(
                    f"{self.name}: duplicate states in state space")
            self._state_index_cache = cached
        return cached

    def index_of(self, state: State) -> int:
        """Dense index of ``state``; raises if unknown."""
        try:
            return self.state_index[state]
        except KeyError:
            raise InvalidStateError(
                f"{state!r} is not a state of protocol {self.name}") from None

    def transition_index(self, i: int, j: int) -> tuple[int, int]:
        """Index-space transition, memoized per ordered pair.

        Memoization keeps engines fast for protocols whose transition is
        computed (AVC) rather than tabulated, without ever materializing
        the full ``s^2`` table for large state spaces.
        """
        cache = getattr(self, "_transition_cache", None)
        if cache is None:
            cache = {}
            self._transition_cache = cache
        key = (i, j)
        result = cache.get(key)
        if result is None:
            table = getattr(self, "_transition_matrix_cache", None)
            if table is not None:
                result = (int(table[0][i, j]), int(table[1][i, j]))
            else:
                states = self.states
                new_x, new_y = self.transition(states[i], states[j])
                result = (self.index_of(new_x), self.index_of(new_y))
            cache[key] = result
        return result

    def transition_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialize the full transition table as two ``s x s`` arrays.

        Returns ``(out_x, out_y)`` where ``out_x[i, j]`` / ``out_y[i,
        j]`` are the indices of the updated states when an agent in
        state ``i`` initiates with an agent in state ``j``.  Intended
        for protocols with small state spaces; guarded to avoid
        accidentally allocating gigantic tables.

        The tables are memoized on the instance (states are immutable
        after construction) and returned read-only, so every engine
        construction and ``run()`` call shares one copy.
        """
        cached = getattr(self, "_transition_matrix_cache", None)
        if cached is None:
            s = self.num_states
            if not self.supports_dense_tables:
                raise ProtocolError(
                    f"{self.name}: refusing to materialize a {s}x{s} "
                    f"transition table (> {MAX_DENSE_STATES} states); "
                    "use transition_index() or iter_transition_rows() "
                    "for large state spaces")
            out_x, out_y = self._build_transition_matrix()
            out_x.setflags(write=False)
            out_y.setflags(write=False)
            cached = (out_x, out_y)
            self._transition_matrix_cache = cached
        return cached

    def _build_transition_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Fill the table behind :meth:`transition_matrix` from its row
        blocks (:meth:`_transition_rows`)."""
        s = self.num_states
        out_x = np.empty((s, s), dtype=np.int64)
        out_y = np.empty((s, s), dtype=np.int64)
        for rows, block_x, block_y in self.iter_transition_rows():
            out_x[rows] = block_x
            out_y[rows] = block_y
        return out_x, out_y

    def _transition_rows(self, start: int, stop: int
                         ) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``start:stop`` of the dense table, pair by pair.

        Protocols whose transition is arithmetic (AVC) override this
        with a vectorized fill that must return the identical rows.
        """
        s = self.num_states
        out_x = np.empty((stop - start, s), dtype=np.int64)
        out_y = np.empty((stop - start, s), dtype=np.int64)
        for i in range(start, stop):
            for j in range(s):
                out_x[i - start, j], out_y[i - start, j] = \
                    self.transition_index(i, j)
        return out_x, out_y

    def iter_transition_rows(self, block: int | None = None
                             ) -> Iterator[tuple[slice, np.ndarray,
                                                 np.ndarray]]:
        """Chunked transition-table rows: ``(rows, out_x, out_y)``.

        Yields blocks of at most ``block`` initiator rows (by default
        about :data:`TABLE_BLOCK_PAIRS` state pairs) with the
        corresponding ``(len(rows), s)`` index tables: slices of the
        memoized :meth:`transition_matrix` when it exists, otherwise
        computed per block.  Peak memory is ``O(block * s)`` instead of
        ``O(s^2)``, so consumers that scan the table once (validators,
        sparse analyses, the compiled kernels' packed table) never
        materialize it, and can handle structured products beyond the
        :data:`MAX_DENSE_STATES` dense guard.
        """
        s = self.num_states
        if block is None:
            block = max(1, TABLE_BLOCK_PAIRS // s)
        if block < 1:
            raise InvalidParameterError(
                f"block must be >= 1, got {block}")
        cached = getattr(self, "_transition_matrix_cache", None)
        for start in range(0, s, block):
            stop = min(start + block, s)
            if cached is None:
                out_x, out_y = self._transition_rows(start, stop)
            else:
                out_x, out_y = cached[0][start:stop], cached[1][start:stop]
            yield slice(start, stop), out_x, out_y

    def make_batch_kernel(self):
        """A vectorized pairwise-transition kernel, memoized per instance.

        Returns a callable mapping two equal-length arrays of state
        indices to the arrays of updated indices.  Subclasses customize
        the kernel by overriding :meth:`_build_batch_kernel`; the
        memoization here makes repeated engine constructions free.
        """
        cached = getattr(self, "_batch_kernel_cache", None)
        if cached is None:
            cached = self._build_batch_kernel()
            self._batch_kernel_cache = cached
        return cached

    def _build_batch_kernel(self):
        """Construct the kernel behind :meth:`make_batch_kernel`.

        The default implementation fancy-indexes the dense transition
        table and is only suitable for small state spaces; protocols
        with large or structured state spaces (AVC) override it with
        arithmetic kernels.
        """
        out_x, out_y = self.transition_matrix()

        def kernel(index_x, index_y):
            return out_x[index_x, index_y], out_y[index_x, index_y]

        return kernel

    def output_array(self) -> np.ndarray:
        """Outputs per state index, with ``UNDECIDED`` encoded as ``-1``.

        Memoized on the instance and returned read-only; trackers and
        engines index it but never write.
        """
        cached = getattr(self, "_output_array_cache", None)
        if cached is None:
            cached = np.empty(self.num_states, dtype=np.int64)
            for i, state in enumerate(self.states):
                value = self.output(state)
                cached[i] = -1 if value is UNDECIDED else int(value)
            cached.setflags(write=False)
            self._output_array_cache = cached
        return cached

    # ------------------------------------------------------------------
    # Count-vector helpers
    # ------------------------------------------------------------------

    def counts_to_vector(self, counts: Mapping[State, int]) -> np.ndarray:
        """Convert a state->count mapping into a dense count vector."""
        vector = np.zeros(self.num_states, dtype=np.int64)
        for state, count in counts.items():
            if count < 0:
                raise InvalidParameterError(
                    f"negative count {count} for state {state!r}")
            vector[self.index_of(state)] = count
        return vector

    def vector_to_counts(self, vector: Sequence[int]) -> dict[State, int]:
        """Convert a dense count vector back into a sparse mapping."""
        if len(vector) != self.num_states:
            raise InvalidParameterError(
                f"count vector has length {len(vector)}, "
                f"expected {self.num_states}")
        states = self.states
        return {states[i]: int(c) for i, c in enumerate(vector) if c}

    def is_settled_vector(self, vector: Sequence[int]) -> bool:
        """:meth:`is_settled` on a dense count vector."""
        return self.is_settled(self.vector_to_counts(vector))

    def __getstate__(self):
        """Drop the lazily built caches when pickling.

        The batch kernel may be a closure (unpicklable), and the dense
        tables rebuild cheaply on first use — shipping them to worker
        processes would only bloat the payload.
        """
        state = self.__dict__.copy()
        for key in ("_states_cache", "_state_index_cache",
                    "_transition_cache", "_transition_matrix_cache",
                    "_output_array_cache", "_batch_kernel_cache"):
            state.pop(key, None)
        return state

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} s={self.num_states}>"


@dataclass(frozen=True)
class FieldSpec:
    """One typed field of a structured state: a name and its domain.

    The domain order matters: composite states enumerate in
    lexicographic field order, which pins the dense index order and
    therefore every engine's RNG stream.
    """

    name: str
    values: tuple

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise InvalidParameterError(
                f"field name must be a non-empty string, "
                f"got {self.name!r}")
        values = tuple(self.values)
        if not values:
            raise InvalidParameterError(
                f"field {self.name!r} has an empty domain")
        if len(set(values)) != len(values):
            raise InvalidParameterError(
                f"field {self.name!r} has duplicate domain values")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


class StructuredProtocol(PopulationProtocol):
    """A protocol whose states are tuples of typed fields.

    Modern phase-clocked protocols carry product states such as
    ``(clock, opinion, level)``; enumerating the full product eagerly
    explodes for ``O(log n)``-per-field domains.  This base class
    declares the state space as a tuple of :class:`FieldSpec` domains
    plus an optional validity predicate and derives everything else
    lazily:

    * :meth:`enumerate_states` walks the field product in
      lexicographic order, keeping only :meth:`is_valid_state`
      combinations — the pruned set is what engines index;
    * :meth:`is_state` checks field membership *without* materializing
      anything, so reachable-set validation stays cheap;
    * the dense tables (:meth:`transition_matrix` and friends) remain
      lazy and guarded exactly as for flat protocols.

    Subclasses call ``super().__init__(fields)`` with their field
    specs and implement ``transition`` / ``output`` / ``is_settled``
    over plain state tuples (unpack the fields positionally).
    """

    def __init__(self, fields: Sequence[FieldSpec]):
        fields = tuple(fields)
        if not fields:
            raise InvalidParameterError(
                f"{type(self).__name__}: at least one field is required")
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise InvalidParameterError(
                f"{type(self).__name__}: duplicate field names {names}")
        self._fields = fields
        self._field_pos = {f.name: i for i, f in enumerate(fields)}
        self._field_sets = tuple(frozenset(f.values) for f in fields)

    @property
    def fields(self) -> tuple[FieldSpec, ...]:
        """The typed fields, in tuple-position order."""
        return self._fields

    def is_valid_state(self, state: tuple) -> bool:
        """Whether a field combination is part of the state space.

        Override to prune the raw product (e.g. role-dependent fields
        where a follower carries no clock).  Must be deterministic.
        """
        return True

    def enumerate_states(self) -> Iterator[tuple]:
        """Lazily yield valid field tuples in lexicographic order."""
        domains = [f.values for f in self._fields]
        return (state for state in itertools.product(*domains)
                if self.is_valid_state(state))

    def is_state(self, state: State) -> bool:
        """Field-domain membership check; never materializes states."""
        if not isinstance(state, tuple) or len(state) != len(self._fields):
            return False
        if any(value not in domain
               for value, domain in zip(state, self._field_sets)):
            return False
        return self.is_valid_state(state)

    @property
    def product_size(self) -> int:
        """Size of the *unpruned* field product (cheap, closed form).

        ``num_states <= product_size``; the gap is what the validity
        predicate prunes.  Useful for deciding whether enumeration is
        affordable before forcing it.
        """
        size = 1
        for field in self._fields:
            size *= len(field)
        return size

    # ------------------------------------------------------------------
    # Field helpers (used by tests, analysis, and protocol authors)
    # ------------------------------------------------------------------

    def field_index(self, name: str) -> int:
        """Tuple position of the field called ``name``."""
        try:
            return self._field_pos[name]
        except KeyError:
            raise InvalidParameterError(
                f"{self.name}: unknown field {name!r}; fields are "
                f"{[f.name for f in self._fields]}") from None

    def field_value(self, state: tuple, name: str):
        """The value of field ``name`` inside a state tuple."""
        return state[self.field_index(name)]

    def make_state(self, **field_values) -> tuple:
        """Build (and validate) a state tuple from named field values."""
        unknown = set(field_values) - set(self._field_pos)
        if unknown:
            raise InvalidParameterError(
                f"{self.name}: unknown field(s) {sorted(unknown)}")
        missing = set(self._field_pos) - set(field_values)
        if missing:
            raise InvalidParameterError(
                f"{self.name}: missing field(s) {sorted(missing)}")
        state = tuple(field_values[f.name] for f in self._fields)
        if not self.is_state(state):
            raise InvalidStateError(
                f"{state!r} is not a state of protocol {self.name}")
        return state

    def marginal_counts(self, counts: Mapping[State, int],
                        name: str) -> dict:
        """Project a configuration onto one field (summing counts)."""
        position = self.field_index(name)
        marginal: dict = {}
        for state, count in counts.items():
            key = state[position]
            marginal[key] = marginal.get(key, 0) + count
        return marginal


class MajorityProtocol(PopulationProtocol):
    """A population protocol computing two-input majority.

    Inputs are the symbols ``"A"`` and ``"B"``; the goal output is
    :data:`MAJORITY_A` (= 1) when strictly more agents start in A, and
    :data:`MAJORITY_B` (= 0) when strictly more start in B.
    """

    INPUT_A = "A"
    INPUT_B = "B"

    @abstractmethod
    def initial_state(self, symbol: str) -> State:
        """The starting state for an agent with input ``symbol``."""

    # ------------------------------------------------------------------
    # Initial-configuration builders
    # ------------------------------------------------------------------

    def initial_counts(self, count_a: int, count_b: int) -> dict[State, int]:
        """Initial configuration with ``count_a`` A-agents, ``count_b`` B."""
        if count_a < 0 or count_b < 0:
            raise InvalidParameterError(
                f"counts must be non-negative, got ({count_a}, {count_b})")
        state_a = self.initial_state(self.INPUT_A)
        state_b = self.initial_state(self.INPUT_B)
        if state_a == state_b:
            raise ProtocolError(
                f"{self.name}: inputs A and B map to the same state")
        counts: dict[State, int] = {}
        if count_a:
            counts[state_a] = count_a
        if count_b:
            counts[state_b] = count_b
        return counts

    def initial_counts_for_margin(self, n: int, epsilon: float,
                                  majority: str = "A") -> dict[State, int]:
        """Initial configuration of ``n`` agents with relative advantage
        ``epsilon`` in favour of ``majority``.

        The advantage in *agents* is ``round(epsilon * n)`` and must be
        at least 1 and at most ``n``, with ``n + advantage`` even so the
        split is integral (choose ``n`` odd for ``epsilon = 1/n``).
        """
        if n <= 0:
            raise InvalidParameterError(f"n must be positive, got {n}")
        if majority not in (self.INPUT_A, self.INPUT_B):
            raise InvalidParameterError(
                f"majority must be 'A' or 'B', got {majority!r}")
        advantage = round(epsilon * n)
        if advantage < 1 or advantage > n:
            raise InvalidParameterError(
                f"epsilon={epsilon} gives advantage {advantage} "
                f"outside [1, {n}]")
        if (n + advantage) % 2:
            raise InvalidParameterError(
                f"n={n} with advantage {advantage} does not split into "
                "integer counts; adjust n or epsilon")
        larger = (n + advantage) // 2
        smaller = n - larger
        if majority == self.INPUT_A:
            return self.initial_counts(larger, smaller)
        return self.initial_counts(smaller, larger)

    # ------------------------------------------------------------------
    # Decision inspection
    # ------------------------------------------------------------------

    def decision(self, counts: Mapping[State, int]):
        """The unanimous output of a configuration, if any.

        Returns :data:`MAJORITY_A`, :data:`MAJORITY_B`, or
        :data:`UNDECIDED` when agents disagree or some agent's state has
        no output yet.  States with zero count are ignored.
        """
        seen = None
        for state, count in counts.items():
            if not count:
                continue
            value = self.output(state)
            if value is UNDECIDED:
                return UNDECIDED
            if seen is None:
                seen = value
            elif value != seen:
                return UNDECIDED
        return seen
