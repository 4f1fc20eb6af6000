"""The engine registry and the ``auto`` router.

Engines register themselves under a name, third-party code plugs in
with :func:`register`, and :func:`create` instantiates one by name.
``"auto"`` is not a registered engine: it names the routing rule
:func:`route`, which maps a :class:`~repro.sim.run.RunSpec` to the
engine that runs it and the reason it was chosen.  Every ``auto``
decision goes through that one function: the trial plan of
:func:`repro.sim.run.simulate`, the per-trial factories
(:func:`create`, :func:`repro.sim.run.make_engine`) and the run
store's stale check.

Factories receive ``(protocol, *, graph=None, batch_fraction=0.05)``
and must return an :class:`~repro.sim.engine.Engine`; declare
``supports_graph=True`` if the engine accepts a non-complete
interaction graph (only the agent engine does today).

Example — plugging in a custom engine::

    from repro.sim import engines

    class MyEngine(Engine):
        name = "mine"
        def _simulate(self, ...): ...

    engines.register("mine", lambda protocol, **_: MyEngine(protocol))
    run_trials(RunSpec(protocol, ..., engine="mine"))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from ..errors import InvalidParameterError
from ..faults import active_faults
from ..protocols.base import MAX_DENSE_STATES
from ..telemetry.context import current as current_telemetry
from . import kernels
from .agent_engine import AgentEngine
from .batch_engine import BatchEngine
from .count_engine import CountEngine
from .count_ensemble_engine import CountEnsembleEngine
from .engine import Engine
from .ensemble_engine import EnsembleEngine
from .gillespie import ContinuousTimeEngine, NullSkippingEngine

__all__ = [
    "AUTO",
    "Route",
    "route",
    "register",
    "unregister",
    "get",
    "available",
    "create",
    "NULL_SKIP_MAX_STATES",
    "ENSEMBLE_MAX_STATES",
    "COUNT_ENSEMBLE_MIN_N",
    "FAULTED_COUNT_ENSEMBLE_MIN_N",
]

#: The routing name: :func:`route` decides which engine runs it.
AUTO = "auto"

#: State counts up to which ``"auto"`` runs a clean batch on null
#: skipping (each productive event scans all ordered state pairs),
#: keyed like :data:`COUNT_ENSEMBLE_MIN_N`.  ``"numpy"`` is the
#: single-trial cut against the count engine, and it holds for every
#: batch without a compiled backend.  ``"compiled"`` is fitted from the
#: crossover grid in ``docs/engines.md`` for clean multi-trial batches
#: against the compiled count ensemble, which wins 34 of the 40
#: measured cells from s = 6 up (null skipping keeps the smallest
#: margins at n >= 1001 there).
NULL_SKIP_MAX_STATES = {"compiled": 4, "numpy": 16}

#: Largest state space for which the ensemble engine's dense
#: transition table may be materialized — aliased to the
#: :data:`~repro.protocols.base.MAX_DENSE_STATES` guard behind
#: :meth:`~repro.protocols.base.PopulationProtocol.transition_matrix`,
#: so :func:`route`, the explicit-engine capability checks, and the
#: table itself agree on one threshold.  Structured protocols whose
#: product exceeds it stay on the sparse count/agent paths
#: (``protocol.supports_dense_tables`` is the canonical test).
ENSEMBLE_MAX_STATES = MAX_DENSE_STATES

#: Populations from which ``"auto"`` runs a clean multi-trial batch on
#: the count ensemble (``O(T*s)`` memory, collision-bounded batching)
#: instead of the token ensemble (``O(T*n)`` memory), keyed by whether
#: a compiled kernel backend is usable.  Fitted from the crossover grid
#: in ``docs/engines.md``: the compiled batch loop wins from the
#: smallest population measured (n = 17) up, by 2-25x at most points;
#: the numpy count ensemble loses up to 7.5x to the token ensemble at
#: small margins below a few thousand agents, so it keeps the original
#: 2^15 cut.
COUNT_ENSEMBLE_MIN_N = {"compiled": 17, "numpy": 32_768}

#: The same cut for faulted (non-byzantine) batches.  The count
#: ensemble's faulted loop is numpy in both twins and advances one
#: configuration change per row per round, like the token ensemble, so
#: it keeps the original threshold.
FAULTED_COUNT_ENSEMBLE_MIN_N = 32_768

_ENSEMBLE_NAMES = frozenset(("ensemble", "count-ensemble",
                             "count-ensemble-jit"))


class Route(NamedTuple):
    """Where a batch runs, and why.

    ``engine`` is a registered engine name.  ``ensemble`` says whether
    the batch advances through that engine's
    :meth:`~repro.sim.engine.Engine.run_ensemble` (otherwise it runs
    one trial at a time).  ``reason`` names the rule that fired;
    ``"requested"`` for an explicit engine.
    """

    engine: str
    ensemble: bool
    reason: str


def route(spec) -> Route:
    """The engine ``spec`` runs on, by name only, and why.

    An explicit engine name or instance is returned as requested.  For
    ``"auto"`` the first rule that fires decides:

    1. ``round-based protocol``: the rounds engine.
    2. ``interaction graph`` or ``adversarial scheduler``: the agent
       engine.
    3. ``null-skip cut``: a clean batch whose state count is at most
       :data:`NULL_SKIP_MAX_STATES` (the compiled cut for multi-trial
       batches with a kernel backend) runs on null skipping.
    4. A batch of one trial (``single trial``), one with per-run
       instrumentation (``instrumentation: recorder, ...``), a protocol
       that is ``not unanimity-settling`` or one with ``no dense
       table`` runs per trial: on null skipping when clean with at most
       the single-trial cut of states, else on the count engine
       (compiled when a backend is usable and the batch is clean).  A
       faulted single trial gives the reason ``faults``.
    5. Every other batch advances through a vectorized ensemble:
       ``byzantine`` batches on the token ensemble; the rest on the
       count ensemble from the ``count-ensemble cut`` for this backend
       (the ``faulted count-ensemble cut`` for faulted batches) and on
       the token ensemble below it.

    Builds no engine and no table, so the run store can check a cached
    ``auto`` entry against it on every hit.
    """
    requested = spec.engine
    if not isinstance(requested, str):
        return Route(requested.name,
                     isinstance(requested,
                                (EnsembleEngine, CountEnsembleEngine)),
                     "requested")
    if requested != AUTO:
        return Route(requested, requested in _ENSEMBLE_NAMES, "requested")
    protocol = spec.protocol
    if getattr(protocol, "is_round_based", False):
        return Route("rounds", False, "round-based protocol")
    if spec.graph is not None:
        return Route("agent", False, "interaction graph")
    faults = active_faults(spec.faults)
    if faults is not None and faults.scheduler is not None:
        return Route("agent", False, "adversarial scheduler")
    backend = "numpy" if kernels.default_backend() is None else "compiled"
    trials = spec.num_trials
    s = protocol.num_states
    if faults is None and s <= NULL_SKIP_MAX_STATES[
            backend if trials > 1 else "numpy"]:
        return Route("null-skipping", False, "null-skip cut")
    if trials < 2:
        declined = "faults" if faults is not None else "single trial"
    elif spec.recorder is not None or spec.event_observer is not None:
        declined = "instrumentation: " + ", ".join(
            name for name in ("recorder", "event_observer")
            if getattr(spec, name) is not None)
    elif not getattr(protocol, "unanimity_settles", False):
        declined = "not unanimity-settling"
    elif s > ENSEMBLE_MAX_STATES:
        declined = "no dense table"
    else:
        return _ensemble_route(spec, faults, backend)
    if faults is not None:
        # Null skipping cannot inject faults.
        return Route("count", False, declined)
    if s <= NULL_SKIP_MAX_STATES["numpy"]:
        return Route("null-skipping", False, declined)
    return Route("count-jit" if backend == "compiled" else "count", False,
                 declined)


def _ensemble_route(spec, faults, backend: str) -> Route:
    """:func:`route`'s choice between the two ensembles."""
    if faults is None:
        cut = COUNT_ENSEMBLE_MIN_N[backend]
        rule = f"count-ensemble cut ({backend})"
    elif faults.byzantine_f:
        # The count ensemble family has no byzantine path.
        return Route("ensemble", True, "byzantine")
    else:
        cut = FAULTED_COUNT_ENSEMBLE_MIN_N
        rule = "faulted count-ensemble cut"
    if spec.n is not None:
        n = spec.n
    elif spec.count_a is not None:
        n = spec.count_a + spec.count_b
    else:
        n = sum(spec.initial.values())
    if n < cut:
        return Route("ensemble", True, "below " + rule)
    # The compiled twin when a backend is usable: bit-identical to the
    # numpy engine, so the upgrade never moves a result.
    return Route("count-ensemble-jit" if backend == "compiled"
                 else "count-ensemble", True, rule)


@dataclass(frozen=True)
class EngineEntry:
    """One registry row."""

    name: str
    factory: Callable
    supports_graph: bool = False


_REGISTRY: dict[str, EngineEntry] = {}


def register(name: str, factory: Callable, *,
             supports_graph: bool = False,
             replace: bool = False) -> None:
    """Register ``factory`` as the engine called ``name``.

    ``factory(protocol, *, graph=None, batch_fraction=0.05)`` must
    return an :class:`Engine`.  Re-registering an existing name
    requires ``replace=True`` (guards against accidental shadowing of
    the built-ins); ``"auto"`` is the router's and cannot be taken.
    """
    if not name or not isinstance(name, str):
        raise InvalidParameterError(
            f"engine name must be a non-empty string, got {name!r}")
    if name == AUTO:
        raise InvalidParameterError(
            f"{AUTO!r} names the engine router (see route); register "
            "the engine under another name")
    if not replace and name in _REGISTRY:
        raise InvalidParameterError(
            f"engine {name!r} is already registered; pass "
            "replace=True to override it")
    _REGISTRY[name] = EngineEntry(name=name, factory=factory,
                                  supports_graph=supports_graph)


def unregister(name: str) -> None:
    """Remove ``name`` from the registry (primarily for tests)."""
    if name not in _REGISTRY:
        raise InvalidParameterError(f"engine {name!r} is not registered")
    del _REGISTRY[name]


def get(name: str) -> EngineEntry:
    """The registry entry for ``name``; raises with the valid names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown engine {name!r}; choose from {available()}"
        ) from None


def available() -> tuple[str, ...]:
    """Every name ``RunSpec.engine`` accepts: ``"auto"``, then the
    registered engines, sorted."""
    return (AUTO, *sorted(_REGISTRY))


def create(protocol, name: str, *, graph=None,
           batch_fraction: float = 0.05) -> Engine:
    """Instantiate the engine ``name`` for ``protocol``.

    ``"auto"`` takes the engine :func:`route` picks for one trial of
    ``protocol`` on ``graph``.
    """
    if name == AUTO:
        from .run import RunSpec  # run imports this module

        name = route(RunSpec(protocol, initial={}, graph=graph)).engine
    entry = get(name)
    if graph is not None and not entry.supports_graph:
        raise InvalidParameterError(
            f"engine {name!r} only supports the complete graph; "
            "use engine='agent' for custom interaction graphs")
    if getattr(protocol, "is_round_based", False) and name != "rounds":
        raise InvalidParameterError(
            f"{protocol.name} is a round-based message-passing "
            f"protocol with no pairwise dynamics; engine {name!r} "
            "cannot run it (use engine='rounds' or 'auto')")
    return entry.factory(protocol, graph=graph,
                         batch_fraction=batch_fraction)


# ----------------------------------------------------------------------
# Built-in engines
# ----------------------------------------------------------------------

register("agent",
         lambda protocol, *, graph=None, **_:
         AgentEngine(protocol, graph=graph),
         supports_graph=True)
register("count", lambda protocol, **_: CountEngine(protocol))
register("null-skipping", lambda protocol, **_: NullSkippingEngine(protocol))
register("continuous-time",
         lambda protocol, **_: ContinuousTimeEngine(protocol))
register("batch",
         lambda protocol, *, batch_fraction=0.05, **_:
         BatchEngine(protocol, batch_fraction=batch_fraction))


def _require_dense_tables(protocol, name: str):
    """Capability guard for engines that vectorize via the dense table.

    Failing at engine *creation* (instead of deep inside the first
    batch) gives explicit ``engine="ensemble"`` requests on oversized
    structured protocols an actionable error.
    """
    if not getattr(protocol, "supports_dense_tables", True):
        raise InvalidParameterError(
            f"engine {name!r} vectorizes through the dense s x s "
            f"transition table, but {protocol.name} has "
            f"{protocol.num_states} states (> {ENSEMBLE_MAX_STATES}); "
            "use the sparse engines ('count', 'agent') for large "
            "structured state spaces")
    return protocol


def _rounds_factory(protocol, **_):
    # Imported lazily: the consensus subpackage is only paid for by
    # callers actually running round-based protocols.
    from ..consensus.rounds import RoundsEngine

    return RoundsEngine(protocol)


register("rounds", _rounds_factory)
register("ensemble",
         lambda protocol, **_:
         EnsembleEngine(_require_dense_tables(protocol, "ensemble")))
register("count-ensemble",
         lambda protocol, **_:
         CountEnsembleEngine(
             _require_dense_tables(protocol, "count-ensemble")))


def _jit_factory(jit_name: str, numpy_factory: Callable) -> Callable:
    """A factory for a JIT engine name that degrades observably.

    When no kernel backend is usable the factory returns the numpy
    twin instead of raising — the JIT engines are bit-identical to
    their twins, so the request is still honored exactly — and emits
    an ``engine.fallback`` telemetry event recording why, so the
    downgrade is never silent.  The ``jit_engines`` import stays
    inside the factory: it pulls in numpy-heavy engine modules and a
    compiled backend, which callers that never request a JIT name
    should not pay for.
    """

    def factory(protocol, *, graph=None, batch_fraction=0.05):
        if kernels.default_backend() is None:
            telemetry = current_telemetry()
            if telemetry.enabled:
                telemetry.event("engine.fallback", requested=jit_name,
                                reason=kernels.fallback_reason(),
                                protocol=protocol.name)
            return numpy_factory(protocol,
                                 batch_fraction=batch_fraction)
        from .kernels import jit_engines
        if jit_name == "count-jit":
            return jit_engines.JitCountEngine(protocol)
        if jit_name == "count-ensemble-jit":
            return jit_engines.JitCountEnsembleEngine(protocol)
        return jit_engines.JitBatchEngine(
            protocol, batch_fraction=batch_fraction)

    return factory


register("count-jit",
         _jit_factory("count-jit",
                      lambda protocol, **_: CountEngine(protocol)))
register("count-ensemble-jit",
         _jit_factory("count-ensemble-jit",
                      lambda protocol, **_:
                      CountEnsembleEngine(protocol)))
register("batch-jit",
         _jit_factory("batch-jit",
                      lambda protocol, *, batch_fraction=0.05, **_:
                      BatchEngine(protocol,
                                  batch_fraction=batch_fraction)))
