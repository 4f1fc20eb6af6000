"""High-level run API: one door from protocol to results.

The front door is a :class:`RunSpec` — a frozen, fingerprintable
description of a simulation batch — handed to :func:`simulate`::

    from repro import AVCProtocol, RunSpec, simulate

    protocol = AVCProtocol.with_num_states(64)
    spec = RunSpec(protocol, n=10_001, epsilon=1 / 10_001,
                   num_trials=100, seed=7)
    results = simulate(spec)

``engine="auto"`` picks the fastest *exact* engine for the protocol
via the :mod:`repro.sim.engines` registry: null-skipping for small
state spaces, the count engine otherwise, and the agent engine
whenever an interaction graph is supplied.  When a spec fans out
several trials of a unanimity-settling protocol with a mid-sized
state space, auto upgrades to a vectorized ensemble engine that
advances the whole batch at once (exact per-trial chain, one shared
generator): the ``O(T*s)``-memory
:class:`~repro.sim.count_ensemble_engine.CountEnsembleEngine` from the
measured crossover up, the token-matrix
:class:`~repro.sim.ensemble_engine.EnsembleEngine` below it (see
:func:`repro.sim.engines.ensemble_engine_name`).  Wherever auto lands
on a count engine it upgrades to the compiled twin (``count-jit`` /
``count-ensemble-jit``, see :mod:`repro.sim.kernels`) when a kernel
backend is usable — the twins draw identical RNG streams, so the
upgrade never moves a result.  The approximate batch engine is never chosen
implicitly.  When auto *would* have taken the ensemble fast path but
declines (per-run instrumentation requested, protocol cannot use the
vectorized convergence counters, state space too large), the fallback
is no longer silent: an ``engine.fallback`` telemetry event records
the reason.

:func:`run`, :func:`run_majority`, and :func:`run_trials` remain as
thin wrappers.  Each accepts a :class:`RunSpec` as its only
positional argument; the historical keyword forms still work but emit
:class:`DeprecationWarning` (CI runs the suite with
``-W error::DeprecationWarning``, so in-repo code must use specs).
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Any

from ..errors import ConvergenceTimeout, InvalidParameterError
from ..faults import active_faults
from ..protocols.base import MAJORITY_A, MAJORITY_B, MajorityProtocol, State
from ..rng import ensure_rng, spawn
from ..telemetry.context import current as current_telemetry
from ..telemetry.context import use as use_telemetry
from . import engines as engine_registry
from .count_ensemble_engine import CountEnsembleEngine
from .engine import Engine
from .engines import ENSEMBLE_MAX_STATES, NULL_SKIP_MAX_STATES
from .ensemble_engine import EnsembleEngine
from .results import RunResult, TrialStats

__all__ = ["RunSpec", "simulate", "make_engine", "make_run_engine",
           "run", "run_majority", "run_trials", "resolve_trial_engine",
           "auto_engine_name",
           "ENGINE_NAMES", "ENSEMBLE_CHUNK_TRIALS", "ensemble_chunks",
           "raise_unsettled"]

#: Engines selectable by name in the high-level API (a snapshot of the
#: registry at import time; see :func:`repro.sim.engines.available`).
ENGINE_NAMES = engine_registry.available()

#: Sub-ensemble width for multi-trial fan-out.  The partition depends
#: only on the trial count, so the sequential and parallel runners
#: spawn identical per-chunk generators and return bit-identical
#: results.  Wider chunks amortize the fixed per-tick numpy dispatch
#: cost over more trials; 128 is past the knee of the throughput curve
#: while still splitting paper-scale trial counts into several
#: parallelizable pieces.  The runstore orchestrator checkpoints at
#: exactly these boundaries, so resumed sweeps replay the same chunk
#: plan and stay bit-identical to uninterrupted ones.
ENSEMBLE_CHUNK_TRIALS = 128


@dataclass(frozen=True)
class RunSpec:
    """Everything that defines a simulation batch, in one frozen value.

    Exactly one input form must be given:

    * ``initial`` — an explicit state-count mapping (any protocol);
      ``expected`` may name the output the run should be scored
      against;
    * ``n`` + ``epsilon`` (+ ``majority``) — a majority input by
      population size and relative advantage;
    * ``count_a`` + ``count_b`` — a majority input by explicit counts.

    For the majority forms ``expected`` is derived (``None`` for a
    tie) and the protocol must be a :class:`MajorityProtocol`.

    ``seed`` may be an int, a ``numpy`` ``SeedSequence``/``Generator``,
    or ``None`` for OS entropy.  ``telemetry`` optionally scopes a
    :class:`repro.telemetry.Telemetry` instance to the batch; when
    ``None`` the ambient instance (see :mod:`repro.telemetry.context`)
    applies.

    ``faults`` optionally attaches a :class:`repro.FaultSpec` — state
    corruption, churn, interaction faults, or an adversarial scheduler
    (see :mod:`repro.faults`).  A ``None`` or null spec is the clean
    model, bit-identical to pre-fault behaviour and fingerprinted
    identically; an active spec is folded into :meth:`key`.

    The spec is what the runstore fingerprints: see
    :func:`repro.runstore.fingerprint.spec_key`.
    """

    protocol: Any
    initial: Mapping[State, int] | None = None
    n: int | None = None
    epsilon: float | None = None
    count_a: int | None = None
    count_b: int | None = None
    majority: str = "A"
    expected: int | None = None
    num_trials: int = 1
    seed: Any = None
    engine: str | Engine = "auto"
    graph: Any = None
    batch_fraction: float = 0.05
    max_steps: int | None = None
    max_parallel_time: float | None = None
    on_timeout: str = "return"
    recorder: Any = None
    event_observer: Any = None
    faults: Any = None
    telemetry: Any = field(default=None, compare=False)

    def __post_init__(self):
        if isinstance(self.protocol, (str, tuple)):
            # Protocol-by-name: a registry name, or (name, params).
            # Normalized to an instance here so downstream code (and
            # spec.key(), which serializes the instance) never sees the
            # indirection — "avc" and AVCProtocol() address the same
            # cache entries.
            from ..protocols import registry

            if isinstance(self.protocol, str):
                resolved = registry.create(self.protocol)
            else:
                if len(self.protocol) != 2:
                    raise InvalidParameterError(
                        "protocol tuples must be (name, params), got "
                        f"{self.protocol!r}")
                resolved = registry.create(self.protocol[0],
                                           self.protocol[1])
            object.__setattr__(self, "protocol", resolved)
        active = active_faults(self.faults)  # validates the type too
        if (active is not None and active.scheduler is not None
                and self.graph is not None):
            raise InvalidParameterError(
                "adversarial fault schedulers replace the pair sampler "
                "and cannot be combined with an interaction graph")
        if self.num_trials < 1:
            raise InvalidParameterError(
                f"num_trials must be >= 1, got {self.num_trials}")
        if self.on_timeout not in ("return", "raise"):
            raise InvalidParameterError(
                f"on_timeout must be 'return' or 'raise', "
                f"got {self.on_timeout!r}")
        by_initial = self.initial is not None
        by_margin = self.n is not None or self.epsilon is not None
        by_counts = self.count_a is not None or self.count_b is not None
        if by_initial + by_margin + by_counts != 1:
            raise InvalidParameterError(
                "give exactly one input form: initial, (n, epsilon), "
                "or (count_a, count_b)")
        if by_margin and (self.n is None or self.epsilon is None):
            raise InvalidParameterError("both n and epsilon are required")
        if by_counts and (self.count_a is None or self.count_b is None):
            raise InvalidParameterError(
                "both count_a and count_b are required")
        if not by_initial and not isinstance(self.protocol,
                                             MajorityProtocol):
            raise InvalidParameterError(
                f"{self.protocol!r} is not a majority protocol")
        if not by_initial and self.expected is not None:
            raise InvalidParameterError(
                "expected is derived for majority inputs; give it only "
                "with an explicit initial configuration")

    @cached_property
    def _resolved_input(self) -> tuple[dict, int | None]:
        if self.initial is not None:
            initial, expected = dict(self.initial), self.expected
        elif self.n is not None:
            initial = self.protocol.initial_counts_for_margin(
                self.n, self.epsilon, self.majority)
            expected = MAJORITY_A if self.majority == "A" else MAJORITY_B
        else:
            initial = self.protocol.initial_counts(self.count_a,
                                                   self.count_b)
            if self.count_a > self.count_b:
                expected = MAJORITY_A
            elif self.count_b > self.count_a:
                expected = MAJORITY_B
            else:
                expected = None  # a tie has no correct output
        faults = active_faults(self.faults)
        if faults is not None and faults.byzantine_f:
            total = sum(initial.values())
            if faults.byzantine_f >= total:
                raise InvalidParameterError(
                    f"byzantine_f={faults.byzantine_f} must be smaller "
                    f"than the population (n={total}); at least one "
                    "honest agent is required")
        return initial, expected

    def resolve_input(self) -> tuple[dict, int | None]:
        """Validate once; return ``(initial_counts, expected)``.

        The result is cached on the spec, so a multi-trial batch pays
        for input validation once, not once per trial.
        """
        return self._resolved_input

    def replace(self, **changes) -> "RunSpec":
        """A copy of the spec with ``changes`` applied."""
        return replace(self, **changes)

    def key(self) -> dict:
        """The canonical content-address dict for this spec.

        Delegates to :func:`repro.runstore.fingerprint.spec_key`
        (imported lazily — the sim layer never depends on the
        runstore at import time).
        """
        from ..runstore.fingerprint import spec_key
        return spec_key(self)

    def to_json(self) -> dict:
        """The JSON wire form of this spec (plain dict, JSON-safe).

        Delegates to :func:`repro.serialize.spec_to_dict`; the round
        trip through :meth:`from_json` preserves :meth:`key`, so a
        spec shipped over HTTP addresses the same cache entry as one
        built locally.  Specs carrying runtime-only objects (engine
        instances, graphs, recorders, observers, generator seeds)
        cannot be serialized and raise
        :class:`~repro.errors.InvalidParameterError`.
        """
        from ..serialize import spec_to_dict
        return spec_to_dict(self)

    @classmethod
    def from_json(cls, payload) -> "RunSpec":
        """Rebuild a spec from :meth:`to_json` output (dict or string).

        Malformed payloads raise
        :class:`~repro.errors.InvalidParameterError` with a message
        naming the offending field — the simulation service maps these
        1:1 onto HTTP 422 responses.
        """
        import json as _json

        from ..serialize import spec_from_dict
        if isinstance(payload, (str, bytes, bytearray)):
            try:
                payload = _json.loads(payload)
            except ValueError as error:
                raise InvalidParameterError(
                    f"spec is not valid JSON: {error}") from None
        return spec_from_dict(payload)


_SPEC_FIELDS = frozenset(f.name for f in fields(RunSpec))


def make_engine(protocol, engine: str | Engine = "auto", *,
                graph=None, batch_fraction: float = 0.05,
                num_trials: int = 1) -> Engine:
    """Instantiate the requested engine for ``protocol``.

    ``engine`` may be a registered name (see
    :func:`repro.sim.engines.available`) or an
    :class:`~repro.sim.engine.Engine` instance, which is passed
    through (``graph`` must then be absent).  ``num_trials`` is a hint
    for policy engines such as ``"auto"``.
    """
    if isinstance(engine, Engine):
        if graph is not None:
            raise InvalidParameterError(
                "pass the graph to the engine constructor, not to run()")
        return engine
    return engine_registry.create(protocol, engine, graph=graph,
                                  batch_fraction=batch_fraction,
                                  num_trials=num_trials)


def ensemble_chunks(num_trials: int) -> list[int]:
    """Partition a trial batch into fixed-width sub-ensembles.

    The partition depends only on ``num_trials`` — never on process
    counts or how often a sweep was interrupted — so :func:`simulate`,
    :func:`~repro.sim.parallel.run_trials_parallel`, and the
    checkpointing :class:`~repro.runstore.orchestrator.Orchestrator`
    all derive identical per-chunk generators and return bit-identical
    results.
    """
    full, rest = divmod(num_trials, ENSEMBLE_CHUNK_TRIALS)
    return [ENSEMBLE_CHUNK_TRIALS] * full + ([rest] if rest else [])


#: Spec fields that force the per-trial path (the ensemble engine
#: advances all trials in bulk and cannot thread per-run observers).
_ENSEMBLE_BLOCKERS = ("graph", "recorder", "event_observer")


def make_run_engine(spec: RunSpec) -> Engine:
    """Instantiate the engine for ``spec``'s per-trial path.

    Like :func:`make_engine`, but fault-aware: with an active
    ``spec.faults``, ``"auto"`` reroutes to a fault-capable engine (the
    agent engine under an adversarial scheduler or a graph, the count
    engine otherwise — never the analytic null-skipping family, which
    cannot inject), and explicitly requested engines without fault
    support are rejected up front.
    """
    faults = active_faults(spec.faults)
    if faults is None:
        return make_engine(spec.protocol, spec.engine, graph=spec.graph,
                           batch_fraction=spec.batch_fraction,
                           num_trials=1)
    if not isinstance(spec.engine, Engine) and spec.engine == "auto":
        return make_engine(spec.protocol, _faulted_auto_name(spec),
                           graph=spec.graph,
                           batch_fraction=spec.batch_fraction,
                           num_trials=1)
    engine = make_engine(spec.protocol, spec.engine, graph=spec.graph,
                         batch_fraction=spec.batch_fraction, num_trials=1)
    if not engine.supports_faults:
        raise InvalidParameterError(
            f"engine {engine.name!r} does not support fault injection; "
            "use the agent, count, batch, or ensemble engine")
    if (faults.scheduler is not None
            and not engine.supports_fault_scheduler):
        raise InvalidParameterError(
            f"engine {engine.name!r} does not support adversarial fault "
            "schedulers; use engine='agent'")
    if faults.byzantine_f and not engine.supports_byzantine:
        raise InvalidParameterError(
            f"engine {engine.name!r} does not support byzantine "
            "corruption; use the agent, count, or ensemble engine")
    return engine


def resolve_trial_engine(spec: RunSpec) -> tuple[Engine | None,
                                                 str | None]:
    """Decide whether a batch fans out through an ensemble engine.

    Returns ``(engine, fallback_reason)``.  ``engine`` is the engine
    whose :meth:`run_ensemble` advances the batch — the token-matrix
    :class:`EnsembleEngine` or the ``O(T*s)``-memory
    :class:`CountEnsembleEngine` — or ``None`` for the per-trial path.
    ``fallback_reason`` is non-``None`` only when ``engine="auto"``
    was *eligible* for the vectorized path but declined — the caller
    reports it as an ``engine.fallback`` telemetry event so the
    downgrade is observable.

    ``"auto"`` routes by population size through
    :func:`repro.sim.engines.ensemble_engine_name`.  Both ensembles
    sample the count-engine chain exactly, so the routing threshold
    never changes result *distributions* (only streams).  An
    explicitly requested ensemble rejects unsupported arguments
    instead of falling back.
    """
    engine = spec.engine
    if isinstance(engine, Engine):
        explicit = isinstance(engine,
                              (EnsembleEngine, CountEnsembleEngine))
    else:
        explicit = engine in ("ensemble", "count-ensemble",
                              "count-ensemble-jit")
    if explicit:
        name = engine.name if isinstance(engine, Engine) else engine
        blockers = _ensemble_blockers(spec)
        if blockers:
            raise InvalidParameterError(
                f"engine={name!r} advances all trials in bulk and does "
                f"not support {', '.join(blockers)}; use a sequential "
                "engine for per-run instrumentation")
        faults = active_faults(spec.faults)
        if faults is not None and faults.scheduler is not None:
            raise InvalidParameterError(
                f"engine={name!r} does not support adversarial fault "
                "schedulers; use engine='agent'")
        if isinstance(engine, Engine):
            return engine, None
        # Registry construction for all three names: the dense-table
        # capability guard rejects oversized structured protocols at
        # creation, and an unusable kernel backend falls back to the
        # numpy twin with its telemetry event.
        return engine_registry.create(spec.protocol, engine), None
    if engine != "auto":
        return None, None
    name, fallback = _auto_ensemble_name(spec)
    if name is None:
        return None, fallback
    if name == "ensemble":
        return EnsembleEngine(spec.protocol), None
    # The count ensemble or its compiled twin; the numpy twin when no
    # backend is usable (silently -- auto never promised a compiled
    # engine).
    return engine_registry.create(spec.protocol, name), None


def _ensemble_blockers(spec: RunSpec) -> list[str]:
    return [name for name in _ENSEMBLE_BLOCKERS
            if getattr(spec, name) is not None]


def _auto_ensemble_name(spec: RunSpec) -> tuple[str | None, str | None]:
    """``"auto"``'s ensemble for ``spec`` by name, nothing constructed.

    ``(name, None)`` when the batch takes a vectorized ensemble,
    ``(None, reason)`` when it was eligible but declines, and
    ``(None, None)`` when the per-trial path is simply the right one.
    """
    if spec.num_trials < 2:
        return None, None
    if getattr(spec.protocol, "is_round_based", False):
        # Round-based protocols advance on the rounds engine
        # (per-trial path); no vectorized ensemble exists for them.
        return None, None
    faults = active_faults(spec.faults)
    if faults is not None and faults.scheduler is not None:
        # Adversarial schedulers need the agent engine (per-trial path).
        return None, None
    s = spec.protocol.num_states
    if faults is None and s <= NULL_SKIP_MAX_STATES:
        # Null skipping wins outright here — a choice, not a fallback.
        # (It cannot inject faults, so faulted batches skip it.)
        return None, None
    blockers = _ensemble_blockers(spec)
    if blockers:
        return None, "per-run instrumentation: " + ", ".join(blockers)
    if not getattr(spec.protocol, "unanimity_settles", False):
        return None, "protocol does not settle by unanimity"
    if s > ENSEMBLE_MAX_STATES:
        return None, (f"state space too large for the dense table "
                      f"({s} > {ENSEMBLE_MAX_STATES})")
    initial, _ = spec.resolve_input()
    return engine_registry.ensemble_engine_name(
        sum(initial.values()), faults=faults), None


def auto_engine_name(spec: RunSpec) -> str:
    """The engine ``"auto"`` runs ``spec`` on, by name only.

    What :func:`simulate` would record as the resolved engine (the
    compiled and numpy twins share a name up to the ``-jit`` suffix,
    which callers comparing streams ignore).  Nothing is constructed
    and no table is built, so the run store can check a cached
    ``auto`` entry against the current routing on every hit.
    """
    name, _ = _auto_ensemble_name(spec)
    if name is not None:
        return name
    if active_faults(spec.faults) is not None:
        return _faulted_auto_name(spec)
    return engine_registry.resolve_name("auto", spec.protocol,
                                        graph=spec.graph, num_trials=1)


def _faulted_auto_name(spec: RunSpec) -> str:
    """``"auto"``'s per-trial engine under an active fault spec."""
    if getattr(spec.protocol, "is_round_based", False):
        # Round-based message-passing protocols run on the rounds
        # engine, which interprets byzantine_f as corrupted servers.
        return "rounds"
    if spec.faults.scheduler is not None or spec.graph is not None:
        return "agent"
    return "count"


def simulate(spec: RunSpec, *, stats: bool = False
             ) -> list[RunResult] | TrialStats:
    """Run ``spec.num_trials`` independent trials; the one-door core.

    With a sequential engine every trial receives a child generator
    spawned from the root seed, so batches are reproducible and trials
    statistically independent.  With the ensemble engine (explicit, or
    chosen by ``"auto"`` — see :func:`resolve_trial_engine`) the batch
    is advanced in vectorized sub-ensembles of
    :data:`ENSEMBLE_CHUNK_TRIALS` trials, each seeded from its own
    spawned child — several times faster and still exact, though the
    per-trial random streams differ from the sequential engines'.
    With ``stats=True`` the aggregated :class:`TrialStats` is returned
    instead of the raw result list.
    """
    root = ensure_rng(spec.seed)
    with use_telemetry(spec.telemetry) as telemetry:
        ensemble, fallback = resolve_trial_engine(spec)
        if telemetry.enabled:
            if fallback is not None:
                telemetry.event("engine.fallback", requested="auto",
                                reason=fallback,
                                protocol=spec.protocol.name,
                                num_trials=spec.num_trials)
            telemetry.count("sim.trials", spec.num_trials,
                            protocol=spec.protocol.name)
        if ensemble is not None:
            results = _run_trials_ensemble(ensemble, spec, root)
        else:
            results = _run_trials_sequential(spec, root)
    if stats:
        return TrialStats.from_results(results)
    return results


def _run_trials_sequential(spec: RunSpec, root) -> list[RunResult]:
    """Per-trial fan-out: one spawned child generator per trial.

    Input validation and engine construction are hoisted out of the
    trial loop — both are deterministic and rng-free, so hoisting
    preserves bit-identical results while removing per-trial overhead.
    ``num_trials=1`` keeps "auto" from re-picking the ensemble engine
    after :func:`resolve_trial_engine` already declined it.
    """
    initial, expected = spec.resolve_input()
    engine = make_run_engine(spec)
    return [engine.run(initial, rng=child, max_steps=spec.max_steps,
                       max_parallel_time=spec.max_parallel_time,
                       expected=expected, recorder=spec.recorder,
                       event_observer=spec.event_observer,
                       faults=spec.faults,
                       on_timeout=spec.on_timeout)
            for child in spawn(root, spec.num_trials)]


def _run_trials_ensemble(engine: Engine, spec: RunSpec,
                         root) -> list[RunResult]:
    """Trial fan-out through :meth:`run_ensemble`, chunk by chunk."""
    initial, expected = spec.resolve_input()
    sizes = ensemble_chunks(spec.num_trials)
    results: list[RunResult] = []
    for size, child in zip(sizes, spawn(root, len(sizes))):
        results.extend(engine.run_ensemble(
            initial, num_trials=size, rng=child, expected=expected,
            max_steps=spec.max_steps,
            max_parallel_time=spec.max_parallel_time,
            faults=spec.faults))
    if spec.on_timeout == "raise":
        raise_unsettled(results)
    return results


def raise_unsettled(results) -> None:
    """Raise :class:`ConvergenceTimeout` for the first timed-out run."""
    for result in results:
        if not result.settled and not result.frozen:
            raise ConvergenceTimeout(
                f"{result.protocol_name} did not settle within "
                f"{result.steps} interactions (n={result.n})",
                result=result)


def _simulate_single(spec: RunSpec) -> RunResult:
    """``run``/``run_majority`` semantics: one execution on the *root*
    generator (no child spawning), preserving legacy single-run
    streams exactly."""
    initial, expected = spec.resolve_input()
    engine = make_run_engine(spec)
    with use_telemetry(spec.telemetry):
        return engine.run(initial, rng=ensure_rng(spec.seed),
                          max_steps=spec.max_steps,
                          max_parallel_time=spec.max_parallel_time,
                          expected=expected, recorder=spec.recorder,
                          event_observer=spec.event_observer,
                          faults=spec.faults,
                          on_timeout=spec.on_timeout)


def _legacy_spec(caller: str, protocol, *, rng=None, seed=None,
                 **kwargs) -> RunSpec:
    """Build a :class:`RunSpec` from a deprecated keyword call."""
    warnings.warn(
        f"{caller}(protocol, ...) with individual keyword arguments is "
        f"deprecated; build a repro.RunSpec and pass it as the only "
        f"positional argument (see docs/api_tour.md)",
        DeprecationWarning, stacklevel=3)
    if seed is not None and rng is not None:
        raise InvalidParameterError("give seed or rng, not both")
    unknown = set(kwargs) - _SPEC_FIELDS
    if unknown:
        raise TypeError(
            f"{caller}() got unexpected keyword arguments "
            f"{sorted(unknown)}")
    return RunSpec(protocol, seed=seed if rng is None else rng, **kwargs)


def _reject_extras(caller: str, kwargs) -> None:
    if kwargs:
        raise InvalidParameterError(
            f"{caller}(spec) takes no extra keyword arguments; use "
            f"spec.replace(...) to vary a RunSpec")


def _require_single(caller: str, spec: RunSpec) -> None:
    if spec.num_trials != 1:
        raise InvalidParameterError(
            f"{caller}() runs a single execution; use simulate() or "
            f"run_trials() for num_trials={spec.num_trials}")


def run(spec_or_protocol, initial_counts: Mapping[State, int] | None = None,
        **kwargs) -> RunResult:
    """Simulate one execution from an explicit initial configuration.

    Preferred form: ``run(spec)`` with a single-trial :class:`RunSpec`.
    The historical ``run(protocol, initial_counts, ...)`` keyword form
    still works but emits a :class:`DeprecationWarning`.
    """
    if isinstance(spec_or_protocol, RunSpec):
        if initial_counts is not None:
            raise InvalidParameterError(
                "run(spec) already carries the initial configuration")
        _reject_extras("run", kwargs)
        _require_single("run", spec_or_protocol)
        return _simulate_single(spec_or_protocol)
    spec = _legacy_spec("run", spec_or_protocol, initial=initial_counts,
                        **kwargs)
    return _simulate_single(spec)


def run_majority(spec_or_protocol, **kwargs) -> RunResult:
    """Simulate one majority computation and record correctness.

    Preferred form: ``run_majority(spec)`` with a single-trial
    :class:`RunSpec` using a majority input form (``n``/``epsilon`` or
    ``count_a``/``count_b``).  The historical keyword form still works
    but emits a :class:`DeprecationWarning`.
    """
    if isinstance(spec_or_protocol, RunSpec):
        _reject_extras("run_majority", kwargs)
        _require_single("run_majority", spec_or_protocol)
        return _simulate_single(spec_or_protocol)
    spec = _legacy_spec("run_majority", spec_or_protocol, **kwargs)
    return _simulate_single(spec)


def run_trials(spec_or_protocol, *, stats: bool = False, telemetry=None,
               **kwargs) -> list[RunResult] | TrialStats:
    """Repeat a majority run with independent random streams.

    Preferred form: ``run_trials(spec)`` — equivalent to
    :func:`simulate`, kept as the familiar name.  ``telemetry=...``
    overrides the spec's telemetry for this call.  The historical
    ``run_trials(protocol, num_trials=..., ...)`` keyword form still
    works but emits a :class:`DeprecationWarning`.
    """
    if isinstance(spec_or_protocol, RunSpec):
        _reject_extras("run_trials", kwargs)
        spec = spec_or_protocol
        if telemetry is not None:
            spec = spec.replace(telemetry=telemetry)
        return simulate(spec, stats=stats)
    if telemetry is not None:
        kwargs["telemetry"] = telemetry
    spec = _legacy_spec("run_trials", spec_or_protocol, **kwargs)
    return simulate(spec, stats=stats)
