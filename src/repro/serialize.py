"""JSON serialization for protocols and results.

Long sweeps produce results worth archiving and protocols worth
sharing; this module provides stable JSON forms for both:

* :func:`protocol_to_dict` / :func:`protocol_from_dict` — round-trips
  every built-in protocol (by name and parameters) and arbitrary
  table-driven protocols (by their full rule table);
* :func:`run_result_to_dict` / :func:`run_result_from_dict` —
  round-trips :class:`~repro.sim.results.RunResult`; state keys in
  ``final_counts`` are stored as their string forms and mapped back
  through the owning protocol when one is supplied;
* :func:`trial_stats_to_dict` / :func:`trial_stats_from_dict`;
* :func:`spec_to_dict` / :func:`spec_from_dict` — round-trips a
  :class:`~repro.sim.run.RunSpec` (the wire form of the simulation
  service's ``POST /runs`` body; ``RunSpec.to_json``/``from_json``
  are thin wrappers).  The round trip preserves ``spec.key()``, so a
  spec shipped over HTTP addresses the same cache entry as one built
  locally.

All dictionaries are plain JSON types, so ``json.dumps`` works
directly on them.
"""

from __future__ import annotations

import dataclasses

from .consensus.algorithms import (
    BenOrConsensus,
    EpsilonAgreementConsensus,
)
from .core.avc import AVCProtocol
from .errors import InvalidParameterError
from .faults import FaultSpec
from .protocols.base import PopulationProtocol, UNDECIDED
from .protocols.four_state import FourStateProtocol
from .protocols.interval_consensus import IntervalConsensusProtocol
from .protocols.leader_election import (
    LeveledLeaderElection,
    PairwiseLeaderElection,
)
from .protocols.successors import (
    LogStateMajorityProtocol,
    PhaseDoublingProtocol,
)
from .protocols.table import MajorityTableProtocol, TableProtocol
from .protocols.three_state import ThreeStateProtocol
from .protocols.voter import VoterProtocol
from .sim.results import RunResult, TrialStats

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "protocol_to_dict",
    "protocol_from_dict",
    "run_result_to_dict",
    "run_result_from_dict",
    "trial_stats_to_dict",
    "trial_stats_from_dict",
    "fault_spec_to_dict",
    "fault_spec_from_dict",
    "spec_to_dict",
    "spec_from_dict",
]

#: Version stamp of the RunSpec wire form below.  Bump on breaking
#: layout changes; :func:`spec_from_dict` rejects other versions.
SPEC_SCHEMA_VERSION = 1

_SIMPLE_KINDS = {
    "three-state": ThreeStateProtocol,
    "four-state": FourStateProtocol,
    "interval-consensus": IntervalConsensusProtocol,
    "voter": VoterProtocol,
    "leader-election": PairwiseLeaderElection,
    "ben-or": BenOrConsensus,
}


def protocol_to_dict(protocol: PopulationProtocol) -> dict:
    """A JSON-safe description sufficient to rebuild the protocol."""
    if isinstance(protocol, AVCProtocol):
        return {"kind": "avc", "m": protocol.m, "d": protocol.d}
    if isinstance(protocol, PhaseDoublingProtocol):
        return {"kind": "phase-doubling", "levels": protocol.levels,
                "theta": protocol.theta}
    if isinstance(protocol, LogStateMajorityProtocol):
        return {"kind": "log-state", "levels": protocol.levels,
                "phase_len": protocol.phase_len}
    if isinstance(protocol, LeveledLeaderElection):
        return {"kind": "leveled-leader-election",
                "levels": protocol.levels}
    if isinstance(protocol, EpsilonAgreementConsensus):
        return {"kind": "epsilon-agreement",
                "epsilon_agree": protocol.epsilon_agree}
    for kind, cls in _SIMPLE_KINDS.items():
        if type(protocol) is cls:
            return {"kind": kind}
    if isinstance(protocol, TableProtocol):
        payload = {
            "kind": "table",
            "name": protocol.name,
            "states": [str(s) for s in protocol.states],
            "transitions": [
                [list(pair), list(protocol.transition(*pair))]
                for pair in _changing_pairs(protocol)
            ],
            "outputs": {
                str(s): protocol.output(s) for s in protocol.states
                if protocol.output(s) is not UNDECIDED
            },
        }
        if isinstance(protocol, MajorityTableProtocol):
            payload["kind"] = "majority-table"
            payload["input_a"] = protocol.initial_state("A")
            payload["input_b"] = protocol.initial_state("B")
        return payload
    raise InvalidParameterError(
        f"cannot serialize protocol of type {type(protocol).__name__}; "
        "express it as a TableProtocol first")


def _changing_pairs(protocol: TableProtocol):
    for x in protocol.states:
        for y in protocol.states:
            if protocol.transition(x, y) != (x, y):
                yield (x, y)


def protocol_from_dict(payload: dict) -> PopulationProtocol:
    """Rebuild a protocol serialized by :func:`protocol_to_dict`.

    Also accepts the *registry form* ``{"name": ..., "params": {...}}``
    — the wire spelling used when a client addresses a protocol by its
    :mod:`repro.protocols.registry` name instead of a serialized kind.
    Unknown names raise :class:`InvalidParameterError` listing the
    registered ones (HTTP 422 through the service).
    """
    kind = payload.get("kind")
    if kind is None and "name" in payload:
        from .protocols import registry

        name = payload["name"]
        if not isinstance(name, str):
            raise InvalidParameterError(
                f"protocol name must be a string, got {name!r}")
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise InvalidParameterError(
                f"protocol params must be an object, got {params!r}")
        extra = sorted(set(payload) - {"name", "params"})
        if extra:
            raise InvalidParameterError(
                f"unknown protocol field(s) {extra}; the registry form "
                "takes 'name' and 'params' only")
        return registry.create(name, params)
    if kind == "avc":
        return AVCProtocol(m=payload["m"], d=payload["d"])
    if kind == "phase-doubling":
        return PhaseDoublingProtocol(levels=payload["levels"],
                                     theta=payload["theta"])
    if kind == "log-state":
        return LogStateMajorityProtocol(levels=payload["levels"],
                                        phase_len=payload["phase_len"])
    if kind == "leveled-leader-election":
        return LeveledLeaderElection(levels=payload["levels"])
    if kind == "epsilon-agreement":
        return EpsilonAgreementConsensus(
            epsilon_agree=payload["epsilon_agree"])
    if kind in _SIMPLE_KINDS:
        return _SIMPLE_KINDS[kind]()
    if kind in ("table", "majority-table"):
        transitions = {tuple(pair): tuple(result)
                       for pair, result in payload["transitions"]}
        kwargs = dict(
            states=tuple(payload["states"]),
            transitions=transitions,
            outputs=payload.get("outputs", {}),
            name=payload.get("name", "table"),
            symmetric=False,
        )
        if kind == "majority-table":
            return MajorityTableProtocol(
                input_a=payload["input_a"], input_b=payload["input_b"],
                **kwargs)
        return TableProtocol(**kwargs)
    raise InvalidParameterError(f"unknown protocol kind {kind!r}")


def run_result_to_dict(result: RunResult) -> dict:
    """JSON-safe form of a :class:`RunResult`."""
    return {
        "protocol_name": result.protocol_name,
        "engine_name": result.engine_name,
        "n": result.n,
        "steps": result.steps,
        "settled": result.settled,
        "decision": result.decision,
        "expected": result.expected,
        "final_counts": {str(state): int(count)
                         for state, count in result.final_counts.items()},
        "productive_steps": result.productive_steps,
        "continuous_time": result.continuous_time,
        "seed": result.seed,
        "frozen": result.frozen,
        "fault_events": result.fault_events,
    }


def run_result_from_dict(payload: dict,
                         protocol: PopulationProtocol | None = None
                         ) -> RunResult:
    """Rebuild a :class:`RunResult`.

    With ``protocol`` given, ``final_counts`` keys are mapped back to
    the protocol's state objects (matching on their string forms);
    otherwise they stay strings.
    """
    counts = dict(payload["final_counts"])
    if protocol is not None:
        by_string = {str(state): state for state in protocol.states}
        try:
            counts = {by_string[key]: value
                      for key, value in counts.items()}
        except KeyError as missing:
            raise InvalidParameterError(
                f"final_counts key {missing} is not a state of "
                f"{protocol.name}") from None
    return RunResult(
        protocol_name=payload["protocol_name"],
        engine_name=payload["engine_name"],
        n=payload["n"],
        steps=payload["steps"],
        settled=payload["settled"],
        decision=payload["decision"],
        expected=payload["expected"],
        final_counts=counts,
        productive_steps=payload.get("productive_steps"),
        continuous_time=payload.get("continuous_time"),
        seed=payload.get("seed"),
        frozen=payload.get("frozen", False),
        fault_events=payload.get("fault_events"),
    )


def trial_stats_to_dict(stats: TrialStats) -> dict:
    """JSON-safe form of :class:`TrialStats`."""
    return {
        "num_trials": stats.num_trials,
        "num_settled": stats.num_settled,
        "num_correct": stats.num_correct,
        "mean_parallel_time": stats.mean_parallel_time,
        "std_parallel_time": stats.std_parallel_time,
        "min_parallel_time": stats.min_parallel_time,
        "max_parallel_time": stats.max_parallel_time,
        "mean_steps": stats.mean_steps,
    }


def trial_stats_from_dict(payload: dict) -> TrialStats:
    """Rebuild :class:`TrialStats` from its JSON form."""
    return TrialStats(**payload)


# ----------------------------------------------------------------------
# RunSpec wire form
# ----------------------------------------------------------------------

_FAULT_FIELDS = {field.name for field in dataclasses.fields(FaultSpec)}

#: RunSpec fields shipped on the wire, with their defaults.  Only
#: non-default values are emitted, so the wire form stays compact and
#: two spellings of the same spec serialize identically.  Runtime-only
#: fields (telemetry, recorder, event_observer, graph) are deliberately
#: absent: they cannot cross a process boundary and never enter
#: ``spec.key()``.
_SPEC_WIRE_FIELDS = {
    "n": None,
    "epsilon": None,
    "count_a": None,
    "count_b": None,
    "majority": "A",
    "expected": None,
    "num_trials": 1,
    "seed": None,
    "engine": "auto",
    "max_steps": None,
    "max_parallel_time": None,
    "on_timeout": "return",
}


def fault_spec_to_dict(faults: FaultSpec) -> dict:
    """JSON-safe form of a :class:`~repro.faults.FaultSpec`.

    Identical to :meth:`FaultSpec.key` — non-default fields only — so
    the wire form of a fault model is exactly its fingerprint fragment.
    """
    if not isinstance(faults, FaultSpec):
        raise InvalidParameterError(
            f"faults must be a repro.FaultSpec, "
            f"got {type(faults).__name__}")
    return faults.key()


def fault_spec_from_dict(payload: dict) -> FaultSpec:
    """Rebuild a :class:`~repro.faults.FaultSpec` from its JSON form."""
    if not isinstance(payload, dict):
        raise InvalidParameterError(
            f"faults must be an object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - _FAULT_FIELDS)
    if unknown:
        raise InvalidParameterError(
            f"unknown FaultSpec field(s) {unknown}; "
            f"known fields: {sorted(_FAULT_FIELDS)}")
    return FaultSpec(**payload)


def spec_to_dict(spec) -> dict:
    """The JSON wire form of a :class:`~repro.sim.run.RunSpec`.

    Raises :class:`InvalidParameterError` for specs that cannot cross
    a process boundary: engine *instances* (use a registered name),
    interaction graphs, and attached telemetry/recorder/observer
    objects.  The round trip through :func:`spec_from_dict` preserves
    ``spec.key()`` exactly.
    """
    for name in ("recorder", "event_observer", "graph"):
        if getattr(spec, name) is not None:
            raise InvalidParameterError(
                f"a spec with {name} cannot be serialized; it is a "
                "runtime-only object")
    if not isinstance(spec.engine, str):
        raise InvalidParameterError(
            "engine instances cannot be serialized; use a registered "
            "engine name")
    if spec.seed is not None and not isinstance(spec.seed, int):
        raise InvalidParameterError(
            "only integer (or None) seeds serialize; generator seeds "
            "are process-local state")
    payload: dict = {"schema": SPEC_SCHEMA_VERSION,
                     "protocol": protocol_to_dict(spec.protocol)}
    for name, default in _SPEC_WIRE_FIELDS.items():
        value = getattr(spec, name)
        if value != default:
            payload[name] = value
    if spec.initial is not None:
        payload["initial"] = {str(state): int(count)
                              for state, count in spec.initial.items()}
    if spec.faults is not None:
        payload["faults"] = fault_spec_to_dict(spec.faults)
    return payload


def spec_from_dict(payload: dict):
    """Rebuild a :class:`~repro.sim.run.RunSpec` from its wire form.

    Every malformed payload raises :class:`InvalidParameterError` with
    a message naming the offending field — the simulation service maps
    these 1:1 onto HTTP 422 responses.
    """
    from .sim.run import RunSpec

    if not isinstance(payload, dict):
        raise InvalidParameterError(
            f"spec must be a JSON object, got {type(payload).__name__}")
    schema = payload.get("schema", SPEC_SCHEMA_VERSION)
    if schema != SPEC_SCHEMA_VERSION:
        raise InvalidParameterError(
            f"unsupported spec schema {schema!r}; this library speaks "
            f"version {SPEC_SCHEMA_VERSION}")
    known = set(_SPEC_WIRE_FIELDS) | {"schema", "protocol", "initial",
                                      "faults"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise InvalidParameterError(
            f"unknown spec field(s) {unknown}; known fields: "
            f"{sorted(known)}")
    if "protocol" not in payload:
        raise InvalidParameterError("spec is missing 'protocol'")
    if not isinstance(payload["protocol"], dict):
        raise InvalidParameterError(
            "protocol must be an object (see protocol_to_dict)")
    protocol = protocol_from_dict(payload["protocol"])
    kwargs = {}
    for name, default in _SPEC_WIRE_FIELDS.items():
        if name in payload:
            kwargs[name] = payload[name]
    seed = kwargs.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise InvalidParameterError(
            f"seed must be an integer or null, got {seed!r}")
    engine = kwargs.get("engine", "auto")
    if not isinstance(engine, str):
        raise InvalidParameterError(
            f"engine must be a registered engine name, got {engine!r}")
    if "initial" in payload:
        initial = payload["initial"]
        if not isinstance(initial, dict):
            raise InvalidParameterError(
                f"initial must be an object mapping state names to "
                f"counts, got {type(initial).__name__}")
        by_string = {str(state): state for state in protocol.states}
        counts = {}
        for key, value in initial.items():
            if key not in by_string:
                raise InvalidParameterError(
                    f"initial state {key!r} is not a state of "
                    f"{protocol.name}")
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                raise InvalidParameterError(
                    f"initial count for {key!r} must be a non-negative "
                    f"integer, got {value!r}")
            counts[by_string[key]] = value
        kwargs["initial"] = counts
    if "faults" in payload and payload["faults"] is not None:
        kwargs["faults"] = fault_spec_from_dict(payload["faults"])
    try:
        spec = RunSpec(protocol, **kwargs)
        # Resolve the input eagerly: the constructor defers range
        # checks (n > 0, |epsilon| <= 1, ...) to first use, but a spec
        # arriving over the wire should fail at the door (HTTP 422),
        # not later inside a worker.
        spec.resolve_input()
    except TypeError as error:
        # e.g. a string where a number belongs — dataclass field types
        # are not enforced, so surface whatever __post_init__ tripped on.
        raise InvalidParameterError(str(error)) from None
    return spec
