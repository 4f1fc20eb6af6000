"""Content addresses for sweep points.

A sweep point is cacheable only if its identity is *stable*: the same
logical inputs must hash to the same address regardless of dict
insertion order, tuple-vs-list spelling, numpy scalar types, or how a
float was written in source (``1e-2`` and ``0.01`` are the same
number, so they are the same point).  :func:`fingerprint` therefore
hashes a *canonical JSON* form: keys sorted, sequences normalized to
lists, numpy scalars unboxed, ``-0.0`` folded into ``0.0``, and floats
rendered by Python's shortest round-trip ``repr``.

The key always embeds :data:`RESULT_SCHEMA_VERSION`; bumping it after
a result-schema change orphans every old cache entry at once (they are
reclaimed by ``repro runs gc``) instead of silently serving rows with
missing columns.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping, Sequence

from ..faults import active_faults
from ..serialize import protocol_to_dict

__all__ = [
    "RESULT_SCHEMA_VERSION",
    "canonical",
    "canonical_json",
    "fingerprint",
    "point_key",
    "spec_from_key",
    "spec_key",
]

#: Version of the result-row schema committed to the store.  Bump when
#: the orchestrator's row layout changes; old entries stop resolving.
RESULT_SCHEMA_VERSION = 1


def canonical(value):
    """Normalize ``value`` into plain, deterministic JSON types.

    Numpy scalars are unboxed via their ``item()`` method, tuples
    become lists, mapping keys are coerced to strings, and ``-0.0`` is
    folded into ``0.0``.  NaN is rejected: a key containing NaN can
    never be looked up again (NaN != NaN), so it cannot address a
    cache entry.
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if hasattr(value, "item") and not isinstance(value, (Mapping, Sequence)):
        value = value.item()
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if value != value:
            raise ValueError("NaN cannot appear in a fingerprint key")
        return 0.0 if value == 0.0 else value
    if isinstance(value, Mapping):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, Sequence):
        return [canonical(item) for item in value]
    raise TypeError(
        f"cannot canonicalize {type(value).__name__} for fingerprinting")


def canonical_json(key) -> str:
    """The canonical serialized form whose hash is the fingerprint."""
    return json.dumps(canonical(key), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def fingerprint(key) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``key``."""
    digest = hashlib.sha256(canonical_json(key).encode("utf-8"))
    return digest.hexdigest()


def point_key(kind: str, params: Mapping) -> dict:
    """Key for a generic experiment point (topology cell, phase run)."""
    return {
        "schema": RESULT_SCHEMA_VERSION,
        "kind": kind,
        "params": canonical(params),
    }


def spec_key(spec) -> dict:
    """Key for a :class:`~repro.sim.run.RunSpec` sweep point.

    The protocol enters through its serialized form (name + full
    parameters), so two differently constructed but identical protocol
    instances address the same cache entry.  Margin-form majority
    specs keep the original sweep-point layout, so every committed
    cache entry still resolves.  Runtime-only fields (telemetry,
    recorders, observers) never enter the key: they do not affect the
    results.

    Engine-key policy: the key records the *requested* engine name,
    not the engine resolution resolves it to.  Every engine ``"auto"``
    may pick samples the same chain, so the resolved name is
    distribution-irrelevant and keying on it would orphan every
    ``auto`` entry whenever a routing threshold moves.  Streams,
    though, are engine-specific: a routing move (say the token to the
    count ensemble) changes an ``auto`` point's bytes.  So the resolved
    name goes into the entry's *metadata* (``engine_resolved``), and
    on every hit of an ``auto`` entry the orchestrator and the service
    compare it with the engine the current routing picks
    (:func:`repro.sim.engines.route`, names only, ``-jit`` suffix
    ignored since the compiled twins are bit-identical); a
    mismatch is a stale entry, recomputed and overwritten (see
    ``docs/runstore.md``).  Requesting a different engine *name* (say
    ``"count-ensemble"`` instead of ``"auto"``) is a different key.
    """
    if spec.initial is not None or spec.graph is not None:
        raise ValueError(
            "only majority-input specs on the complete graph are "
            "addressable sweep points")
    engine = spec.engine
    if not isinstance(engine, str):
        raise ValueError(
            "engine instances cannot be fingerprinted; use a registered "
            "engine name")
    key = {
        "schema": RESULT_SCHEMA_VERSION,
        "kind": "majority-point",
        "protocol": protocol_to_dict(spec.protocol),
        "n": spec.n,
        "epsilon": spec.epsilon,
        "trials": spec.num_trials,
        "seed": spec.seed,
        "engine": engine,
        "max_parallel_time": spec.max_parallel_time,
        # A retired option's default: every schema-1 fingerprint has it.
        "batch_fraction": 0.05,
    }
    if spec.count_a is not None:
        # Count-form inputs extend the key; margin-form keys stay
        # byte-identical to the pre-RunSpec layout.
        key["count_a"] = spec.count_a
        key["count_b"] = spec.count_b
    if spec.majority != "A":
        key["majority"] = spec.majority
    if spec.max_steps is not None:
        key["max_steps"] = spec.max_steps
    if spec.on_timeout != "return":
        key["on_timeout"] = spec.on_timeout
    faults = active_faults(spec.faults)
    if faults is not None:
        # Only active fault models enter the key (and only their
        # non-default fields), so every clean fingerprint — and every
        # committed cache entry — is unchanged by the fault subsystem.
        key["faults"] = faults.key()
    return key


def spec_from_key(key: Mapping):
    """The :class:`~repro.sim.run.RunSpec` a typed point's key addresses.

    The inverse of :func:`spec_key` up to ``kind``: the key's ``trials``
    is the spec's ``num_trials``, ``schema``/``kind`` and the constant
    ``batch_fraction`` slot are dropped and the rest is the spec's
    wire form, rebuilt through
    :func:`repro.serialize.spec_from_dict`.  Lets a committed entry be
    checked against the current code (see
    :func:`repro.runstore.orchestrator.stale_reason`) with no other
    record of how it was requested.
    """
    from ..serialize import spec_from_dict

    wire = {name: value for name, value in key.items()
            if name not in ("schema", "kind", "trials", "batch_fraction")}
    wire["num_trials"] = key["trials"]
    return spec_from_dict(wire)
