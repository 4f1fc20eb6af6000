"""High-level run API: one door from protocol to results.

The front door is a :class:`RunSpec` — a frozen, fingerprintable
description of a simulation batch — handed to :func:`simulate`::

    from repro import AVCProtocol, RunSpec, simulate

    protocol = AVCProtocol.with_num_states(64)
    spec = RunSpec(protocol, n=10_001, epsilon=1 / 10_001,
                   num_trials=100, seed=7)
    results = simulate(spec)

``engine="auto"`` picks the fastest *exact* engine for the spec:
:func:`repro.sim.engines.route` is the one rule, and it returns the
engine with the reason it was chosen.  Null skipping runs small state
spaces, the agent engine runs interaction graphs and adversarial
schedulers, and multi-trial batches of unanimity-settling protocols
advance all their trials at once on a vectorized ensemble (exact
per-trial chain, one shared generator): the ``O(T*s)``-memory
:class:`~repro.sim.count_ensemble_engine.CountEnsembleEngine` from
the measured crossover up, the token-matrix
:class:`~repro.sim.ensemble_engine.EnsembleEngine` below it.  The
count engines are taken as their compiled twins (``count-jit`` /
``count-ensemble-jit``, see :mod:`repro.sim.kernels`) when a kernel
backend is usable; the twins draw identical RNG streams, so the
upgrade never moves a result.  Every batch's route is reported as an
``engine.selected`` telemetry event carrying the requested engine,
the engine that runs and the rule's reason.

:func:`run`, :func:`run_majority`, and :func:`run_trials` remain as
thin wrappers, each taking a :class:`RunSpec` as its only positional
argument.

Every multi-trial batch, sequential, parallel or checkpointed by the
run store, is split by one :class:`TrialPlan` (see :func:`plan_trials`):
the engine, the :data:`ENSEMBLE_CHUNK_TRIALS`-trial chunk sizes, the
spawned per-chunk seeds, and how chunk *i* runs.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any

import numpy as np

from ..errors import ConvergenceTimeout, InvalidParameterError
from ..faults import active_faults
from ..protocols.base import MAJORITY_A, MAJORITY_B, MajorityProtocol, State
from ..rng import ensure_rng
from ..telemetry.context import current as current_telemetry
from ..telemetry.context import use as use_telemetry
from . import engines as engine_registry
from .engine import Engine
from .engines import route
from .results import RunResult, TrialStats

__all__ = ["RunSpec", "TrialPlan", "simulate", "plan_trials",
           "make_engine", "make_run_engine",
           "run", "run_majority", "run_trials", "resolve_trial_engine",
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


def make_engine(protocol, engine: str | Engine = "auto", *,
                graph=None) -> Engine:
    """Instantiate the requested engine for one trial of ``protocol``.

    ``engine`` may be a registered name (see
    :func:`repro.sim.engines.available`; ``"auto"`` takes what
    :func:`repro.sim.engines.route` picks for a single trial) or an
    :class:`~repro.sim.engine.Engine` instance, which is passed
    through (``graph`` must then be absent).
    """
    if isinstance(engine, Engine):
        if graph is not None:
            raise InvalidParameterError(
                "pass the graph to the engine constructor, not to run()")
        return engine
    return engine_registry.create(protocol, engine, graph=graph)


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


#: Spec fields an explicitly requested ensemble rejects (it advances
#: all trials in bulk and cannot thread per-run observers).
_ENSEMBLE_BLOCKERS = ("graph", "recorder", "event_observer")


def make_run_engine(spec: RunSpec) -> Engine:
    """Instantiate the engine for ``spec``'s per-trial path.

    ``"auto"`` takes the engine :func:`repro.sim.engines.route` picks,
    which never sends a faulted spec to the analytic null-skipping
    family (it cannot inject).  With an active ``spec.faults``,
    explicitly requested engines without fault support are rejected up
    front.
    """
    auto = spec.engine == engine_registry.AUTO
    engine = make_engine(spec.protocol,
                         route(spec).engine if auto else spec.engine,
                         graph=spec.graph)
    faults = active_faults(spec.faults)
    if auto or faults is None:
        return engine
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

    Returns ``(engine, reason)`` from :func:`repro.sim.engines.route`.
    ``engine`` is the engine whose :meth:`run_ensemble` advances the
    batch — the token-matrix
    :class:`~repro.sim.ensemble_engine.EnsembleEngine` or the
    ``O(T*s)``-memory
    :class:`~repro.sim.count_ensemble_engine.CountEnsembleEngine` —
    or ``None`` for the per-trial path; ``reason`` names the routing
    rule that fired (``"requested"`` for an explicit engine).

    Both ensembles sample the count-engine chain exactly, so the
    routing threshold never changes result *distributions* (only
    streams).  An explicitly requested ensemble rejects unsupported
    arguments instead of falling back.
    """
    chosen = route(spec)
    if not chosen.ensemble:
        return None, chosen.reason
    engine = spec.engine
    if engine != engine_registry.AUTO:
        blockers = [name for name in _ENSEMBLE_BLOCKERS
                    if getattr(spec, name) is not None]
        if blockers:
            raise InvalidParameterError(
                f"engine={chosen.engine!r} advances all trials in bulk "
                f"and does not support {', '.join(blockers)}; use a "
                "sequential engine for per-run instrumentation")
        faults = active_faults(spec.faults)
        if faults is not None and faults.scheduler is not None:
            raise InvalidParameterError(
                f"engine={chosen.engine!r} does not support adversarial "
                "fault schedulers; use engine='agent'")
        if isinstance(engine, Engine):
            return engine, chosen.reason
    # Registry construction: the dense-table capability guard rejects
    # oversized structured protocols at creation, and an explicit JIT
    # name with an unusable kernel backend falls back to the numpy
    # twin with its telemetry event.
    return engine_registry.create(spec.protocol, chosen.engine), \
        chosen.reason


class TrialPlan:
    """How one batch's trials are split, seeded and run.

    Built by :func:`plan_trials`.  ``ensemble`` is the engine whose
    :meth:`~repro.sim.engine.Engine.run_ensemble` advances each chunk
    in one call, or ``None`` for the per-trial path.  ``sizes`` is the
    :func:`ensemble_chunks` partition and ``seeds`` the spawned
    ``SeedSequence`` children: one per chunk on an ensemble, one per
    trial otherwise.  Chunk ``i`` therefore always holds the same
    trials on the same streams, whoever runs it: :func:`simulate`,
    :func:`~repro.sim.parallel.run_trials_parallel` (which ships the
    plan to its workers; the per-trial engine is rebuilt there), or
    the run store's orchestrator, which journals each chunk and
    replays it on resume.
    """

    def __init__(self, spec: RunSpec, ensemble: Engine | None):
        self.spec = spec
        self.ensemble = ensemble
        self.sizes = ensemble_chunks(spec.num_trials)
        count = len(self.sizes) if ensemble is not None \
            else spec.num_trials
        self.seeds = ensure_rng(spec.seed).bit_generator.seed_seq.spawn(
            count)
        self._engine = ensemble

    def __getstate__(self):
        # What a worker process needs: no telemetry (the parent merges
        # shipped records), no engine (engines hold built tables and
        # compiled-kernel handles; a worker builds its own on first use).
        return dict(self.__dict__, spec=self.spec.replace(telemetry=None),
                    _engine=None)

    @property
    def engine(self) -> Engine:
        if self._engine is None:
            self._engine = (resolve_trial_engine(self.spec)[0]
                            if self.ensemble is not None
                            else make_run_engine(self.spec))
        return self._engine

    def run_chunk(self, index: int) -> list[RunResult]:
        """Run chunk ``index`` on fresh generators from its seeds.

        With ``on_timeout="raise"`` an unsettled ensemble trial raises
        :class:`ConvergenceTimeout` here (per-trial engines raise it
        themselves).
        """
        if self.ensemble is None:
            start = index * ENSEMBLE_CHUNK_TRIALS
            return [self.run_trial(trial) for trial in
                    range(start, start + self.sizes[index])]
        spec = self.spec
        initial, expected = spec.resolve_input()
        results = self.engine.run_ensemble(
            initial, num_trials=self.sizes[index],
            rng=np.random.default_rng(self.seeds[index]),
            expected=expected, max_steps=spec.max_steps,
            max_parallel_time=spec.max_parallel_time, faults=spec.faults)
        if spec.on_timeout == "raise":
            raise_unsettled(results)
        return results

    def run_trial(self, index: int) -> RunResult:
        """Run trial ``index`` of a per-trial plan."""
        spec = self.spec
        initial, expected = spec.resolve_input()
        return self.engine.run(
            initial, rng=np.random.default_rng(self.seeds[index]),
            max_steps=spec.max_steps,
            max_parallel_time=spec.max_parallel_time, expected=expected,
            recorder=spec.recorder, event_observer=spec.event_observer,
            faults=spec.faults, on_timeout=spec.on_timeout)


def plan_trials(spec: RunSpec) -> TrialPlan:
    """The one trial plan for ``spec``'s batch.

    Resolves the engine (:func:`resolve_trial_engine`; the route is
    reported as an ``engine.selected`` event and the batch counted in
    ``sim.trials`` on the current telemetry), partitions the trials
    with :func:`ensemble_chunks` and spawns the seeds from
    ``spec.seed``.  Input validation and engine construction happen
    once here, not once per trial.
    """
    telemetry = current_telemetry()
    ensemble, _ = resolve_trial_engine(spec)
    if telemetry.enabled:
        chosen = route(spec)
        requested = spec.engine
        telemetry.event("engine.selected",
                        requested=(requested if isinstance(requested, str)
                                   else requested.name),
                        engine=chosen.engine, reason=chosen.reason,
                        protocol=spec.protocol.name,
                        num_trials=spec.num_trials)
        telemetry.count("sim.trials", spec.num_trials,
                        protocol=spec.protocol.name)
    spec.resolve_input()
    return TrialPlan(spec, ensemble)


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
    with use_telemetry(spec.telemetry):
        plan = plan_trials(spec)
        results = [result for index in range(len(plan.sizes))
                   for result in plan.run_chunk(index)]
    if stats:
        return TrialStats.from_results(results)
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
    generator (no child spawning)."""
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


def _require_spec(caller: str, spec, extra) -> None:
    if not isinstance(spec, RunSpec):
        raise TypeError(
            f"{caller}() takes a repro.RunSpec, got "
            f"{type(spec).__name__} (see docs/api_tour.md)")
    if extra:
        raise InvalidParameterError(
            f"{caller}(spec) takes no extra keyword arguments; use "
            f"spec.replace(...) to vary a RunSpec")


def _require_single(caller: str, spec: RunSpec) -> None:
    if spec.num_trials != 1:
        raise InvalidParameterError(
            f"{caller}() runs a single execution; use simulate() or "
            f"run_trials() for num_trials={spec.num_trials}")


def run(spec: RunSpec, **extra) -> RunResult:
    """Simulate one execution of a single-trial :class:`RunSpec`."""
    _require_spec("run", spec, extra)
    _require_single("run", spec)
    return _simulate_single(spec)


def run_majority(spec: RunSpec, **extra) -> RunResult:
    """Simulate one majority computation and record correctness.

    ``spec`` is a single-trial :class:`RunSpec` using a majority input
    form (``n``/``epsilon`` or ``count_a``/``count_b``).
    """
    _require_spec("run_majority", spec, extra)
    _require_single("run_majority", spec)
    return _simulate_single(spec)


def run_trials(spec: RunSpec, *, stats: bool = False, telemetry=None,
               **extra) -> list[RunResult] | TrialStats:
    """Repeat a run with independent random streams.

    Equivalent to :func:`simulate`, kept as the familiar name.
    ``telemetry=...`` overrides the spec's telemetry for this call.
    """
    _require_spec("run_trials", spec, extra)
    if telemetry is not None:
        spec = spec.replace(telemetry=telemetry)
    return simulate(spec, stats=stats)
