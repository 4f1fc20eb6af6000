"""The engine registry: name -> engine factory, policies included.

Historically :func:`repro.sim.run.make_engine` was a hard-coded
``if engine == ...`` chain, so adding an engine meant editing
``run.py``.  The registry inverts that: engines register themselves
under a name, third-party code plugs in with :func:`register`, and
``"auto"`` is just a registered *policy* — a callable that inspects
the protocol and returns the name of a concrete engine.

Factories receive ``(protocol, *, graph=None, batch_fraction=0.05)``
and must return an :class:`~repro.sim.engine.Engine`; declare
``supports_graph=True`` if the engine accepts a non-complete
interaction graph (only the agent engine does today).  Policies
receive ``(protocol, *, graph=None, num_trials=1, n=None)`` — ``n``
is the population size when known — and return a registered engine
name (possibly another policy; chains are resolved with a cycle
guard).

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
from typing import Callable

from ..errors import InvalidParameterError
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
    "register",
    "register_policy",
    "unregister",
    "get",
    "available",
    "is_policy",
    "create",
    "resolve_name",
    "NULL_SKIP_MAX_STATES",
    "null_skip_max_states",
    "ENSEMBLE_MAX_STATES",
    "COUNT_ENSEMBLE_MIN_N",
    "FAULTED_COUNT_ENSEMBLE_MIN_N",
    "count_ensemble_min_n",
    "ensemble_engine_name",
]

#: State counts up to which ``"auto"`` runs on null skipping (each
#: productive event scans all ordered state pairs), keyed like
#: :data:`COUNT_ENSEMBLE_MIN_N`.  ``"numpy"`` is the single-trial cut
#: against the count engine, and it holds for every batch without a
#: compiled backend.  ``"compiled"`` is fitted from the crossover grid
#: in ``docs/engines.md`` for clean multi-trial batches against the
#: compiled count ensemble, which wins 34 of the 40 measured cells
#: from s = 6 up (null skipping keeps the smallest margins at
#: n >= 1001 there).
NULL_SKIP_MAX_STATES = {"compiled": 4, "numpy": 16}

#: Largest state space for which the ensemble engine's dense
#: transition table may be materialized — aliased to the
#: :data:`~repro.protocols.base.MAX_DENSE_STATES` guard behind
#: :meth:`~repro.protocols.base.PopulationProtocol.transition_matrix`,
#: so the ``"auto"`` policy, the explicit-engine capability checks,
#: and the table itself agree on one threshold.  Structured protocols
#: whose product exceeds it stay on the sparse count/agent paths
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


def count_ensemble_min_n() -> int:
    """The population from which clean ``auto`` batches take the count
    ensemble on this host (depends on the kernel backend)."""
    compiled = kernels.default_backend() is not None
    return COUNT_ENSEMBLE_MIN_N["compiled" if compiled else "numpy"]


def null_skip_max_states(num_trials: int = 1) -> int:
    """The largest state count ``"auto"`` runs on null skipping for a
    clean batch of ``num_trials`` on this host (depends on the kernel
    backend for multi-trial batches)."""
    compiled = num_trials > 1 and kernels.default_backend() is not None
    return NULL_SKIP_MAX_STATES["compiled" if compiled else "numpy"]


def ensemble_engine_name(n: int, *, faults=None) -> str:
    """The vectorized ensemble ``"auto"`` runs a batch of ``n`` agents on.

    The one place the crossover lives: the registry policy and
    :func:`repro.sim.run.resolve_trial_engine` both ask it, for
    protocols already known to fit the vectorized ensembles.  ``faults``
    is the active :class:`~repro.faults.FaultSpec`, if any.  The count
    ensemble family has no byzantine path, so byzantine batches stay on
    the token ensemble at every ``n``.  A count-ensemble answer is the
    compiled twin when a kernel backend is usable (bit-identical, so
    the upgrade never moves a result).
    """
    if faults is None:
        cut = count_ensemble_min_n()
    elif faults.byzantine_f:
        return "ensemble"
    else:
        cut = FAULTED_COUNT_ENSEMBLE_MIN_N
    if n >= cut:
        return kernels.jit_engine_name("count-ensemble")
    return "ensemble"


@dataclass(frozen=True)
class EngineEntry:
    """One registry row: either a factory or a policy, never both."""

    name: str
    factory: Callable | None = None
    policy: Callable | None = None
    supports_graph: bool = False


_REGISTRY: dict[str, EngineEntry] = {}


def register(name: str, factory: Callable, *,
             supports_graph: bool = False,
             replace: bool = False) -> None:
    """Register ``factory`` as the engine called ``name``.

    ``factory(protocol, *, graph=None, batch_fraction=0.05)`` must
    return an :class:`Engine`.  Re-registering an existing name
    requires ``replace=True`` (guards against accidental shadowing of
    the built-ins).
    """
    _add(EngineEntry(name=name, factory=factory,
                     supports_graph=supports_graph), replace)


def register_policy(name: str, policy: Callable, *,
                    replace: bool = False) -> None:
    """Register ``policy`` — a name-returning engine selector.

    ``policy(protocol, *, graph=None, num_trials=1)`` returns the name
    of a registered engine (or of another policy).
    """
    _add(EngineEntry(name=name, policy=policy), replace)


def _add(entry: EngineEntry, replace: bool) -> None:
    if not entry.name or not isinstance(entry.name, str):
        raise InvalidParameterError(
            f"engine name must be a non-empty string, got {entry.name!r}")
    if not replace and entry.name in _REGISTRY:
        raise InvalidParameterError(
            f"engine {entry.name!r} is already registered; pass "
            "replace=True to override it")
    _REGISTRY[entry.name] = entry


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
    """All registered names (policies first, then engines, sorted)."""
    policies = sorted(n for n, e in _REGISTRY.items() if e.policy)
    engines = sorted(n for n, e in _REGISTRY.items() if e.factory)
    return tuple(policies + engines)


def is_policy(name: str) -> bool:
    return get(name).policy is not None


def resolve_name(name: str, protocol, *, graph=None,
                 num_trials: int = 1, n: int | None = None) -> str:
    """Follow policies until a concrete engine name is reached.

    ``n`` is the population size when the caller knows it (policies may
    use it to pick a scale-appropriate engine); ``None`` when unknown.
    """
    seen = []
    while True:
        entry = get(name)
        if entry.policy is None:
            return name
        seen.append(name)
        if len(seen) > len(_REGISTRY):
            raise InvalidParameterError(
                f"engine policy cycle: {' -> '.join(seen)}")
        name = entry.policy(protocol, graph=graph, num_trials=num_trials,
                            n=n)


def create(protocol, name: str, *, graph=None,
           batch_fraction: float = 0.05, num_trials: int = 1,
           n: int | None = None) -> Engine:
    """Instantiate the engine ``name`` resolves to for ``protocol``."""
    resolved = resolve_name(name, protocol, graph=graph,
                            num_trials=num_trials, n=n)
    entry = get(resolved)
    if graph is not None and not entry.supports_graph:
        raise InvalidParameterError(
            f"engine {resolved!r} only supports the complete graph; "
            "use engine='agent' for custom interaction graphs")
    if getattr(protocol, "is_round_based", False) and resolved != "rounds":
        raise InvalidParameterError(
            f"{protocol.name} is a round-based message-passing "
            f"protocol with no pairwise dynamics; engine {resolved!r} "
            "cannot run it (use engine='rounds' or 'auto')")
    return entry.factory(protocol, graph=graph,
                         batch_fraction=batch_fraction)


# ----------------------------------------------------------------------
# Built-in engines and the "auto" policy
# ----------------------------------------------------------------------

def _auto_policy(protocol, *, graph=None, num_trials: int = 1,
                 n: int | None = None) -> str:
    """The default selection: fastest *exact* engine for the job.

    Null-skipping for small state spaces (see
    :func:`null_skip_max_states`), the agent engine whenever a graph is
    supplied, a vectorized ensemble engine for multi-trial
    batches of unanimity-settling protocols with mid-sized state
    spaces (by population size, see :func:`ensemble_engine_name`; the
    token ensemble when ``n`` is unknown), and the count engine
    otherwise.  The approximate batch engine is never chosen
    implicitly.
    """
    if getattr(protocol, "is_round_based", False):
        # Synchronous message-passing protocols (repro.consensus) have
        # no pairwise dynamics; only the rounds engine can run them.
        return "rounds"
    if graph is not None:
        return "agent"
    if protocol.num_states <= null_skip_max_states(num_trials):
        return "null-skipping"
    if (num_trials > 1
            and getattr(protocol, "unanimity_settles", False)
            and getattr(protocol, "supports_dense_tables",
                        protocol.num_states <= ENSEMBLE_MAX_STATES)):
        return "ensemble" if n is None else ensemble_engine_name(n)
    return kernels.jit_engine_name("count")


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
register_policy("auto", _auto_policy)
