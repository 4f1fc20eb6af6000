"""RunSpec wire-form round trips (the ``POST /runs`` body contract)."""

from __future__ import annotations

import json

import pytest

from repro import AVCProtocol, FourStateProtocol, ThreeStateProtocol
from repro.errors import InvalidParameterError
from repro.faults import FaultSpec
from repro.runstore.fingerprint import fingerprint
from repro.sim.run import RunSpec


class TestRoundTripPreservesKey:
    """to_json -> from_json must address the same cache entry."""

    SPECS = {
        "margin": RunSpec(AVCProtocol(m=5, d=2), n=500, epsilon=0.1,
                          num_trials=8, seed=42),
        "counts": RunSpec(FourStateProtocol(), count_a=70, count_b=50,
                          num_trials=3, seed=1),
        "engine-pinned": RunSpec(ThreeStateProtocol(), n=100,
                                 epsilon=0.2, seed=9,
                                 engine="count",
                                 max_parallel_time=50_000.0),
        "faulted": RunSpec(FourStateProtocol(), n=200, epsilon=0.15,
                           seed=3,
                           faults=FaultSpec(flip_prob=0.001,
                                            crash_prob=0.0005)),
        "bounded": RunSpec(AVCProtocol(m=3, d=1), n=300, epsilon=0.1,
                           seed=5, max_steps=10_000,
                           on_timeout="raise"),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_key_preserved(self, name):
        spec = self.SPECS[name]
        rebuilt = RunSpec.from_json(spec.to_json())
        assert rebuilt.key() == spec.key()
        assert fingerprint(rebuilt.key()) == fingerprint(spec.key())

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_wire_form_is_json(self, name):
        payload = self.SPECS[name].to_json()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["schema"] == 1

    def test_from_json_accepts_text(self):
        spec = self.SPECS["margin"]
        rebuilt = RunSpec.from_json(json.dumps(spec.to_json()))
        assert rebuilt.key() == spec.key()

    def test_round_trip_is_stable(self):
        payload = self.SPECS["counts"].to_json()
        again = RunSpec.from_json(payload).to_json()
        assert again == payload

    def test_initial_form_round_trips(self):
        # Initial-form specs serialize (states by string form) even
        # though they are not cache-addressable.
        protocol = ThreeStateProtocol()
        spec = RunSpec(protocol, initial={"A": 5, "B": 3},
                       expected=1, seed=0)
        rebuilt = RunSpec.from_json(spec.to_json())
        assert rebuilt.initial == spec.initial
        assert rebuilt.expected == 1


class TestValidationErrors:
    """Malformed payloads raise InvalidParameterError (HTTP 422)."""

    def test_not_json(self):
        with pytest.raises(InvalidParameterError, match="valid JSON"):
            RunSpec.from_json("{nope")

    def test_missing_protocol(self):
        with pytest.raises(InvalidParameterError, match="protocol"):
            RunSpec.from_json({"schema": 1, "n": 10, "epsilon": 0.1})

    def test_unknown_field(self):
        # batch_fraction tuned the retired approximate engine; a payload
        # still carrying it is refused rather than silently dropped.
        for field, value in (("turbo", True), ("batch_fraction", 0.05)):
            with pytest.raises(InvalidParameterError, match="unknown"):
                RunSpec.from_json({"schema": 1,
                                   "protocol": {"kind": "three-state"},
                                   "n": 11, "epsilon": 0.1,
                                   field: value})

    def test_wrong_schema(self):
        with pytest.raises(InvalidParameterError, match="schema"):
            RunSpec.from_json({"schema": 99,
                               "protocol": {"kind": "three-state"},
                               "n": 11, "epsilon": 0.1})

    def test_unknown_protocol_kind(self):
        with pytest.raises(InvalidParameterError, match="kind"):
            RunSpec.from_json({"schema": 1,
                               "protocol": {"kind": "exact-majority"},
                               "n": 11, "epsilon": 0.1})

    def test_bad_parameters_surface(self):
        # Constructor-level validation flows through as the same
        # error type, so the HTTP layer maps everything to 422.
        with pytest.raises(InvalidParameterError):
            RunSpec.from_json({"schema": 1,
                               "protocol": {"kind": "four-state"},
                               "n": -5, "epsilon": 0.1})

    def test_runtime_objects_not_serializable(self):
        spec = RunSpec(FourStateProtocol(), n=11, epsilon=0.2,
                       recorder=object())
        with pytest.raises(InvalidParameterError):
            spec.to_json()

    def test_generator_seed_not_serializable(self):
        import numpy as np
        spec = RunSpec(FourStateProtocol(), n=11, epsilon=0.2,
                       seed=np.random.default_rng(0))
        with pytest.raises(InvalidParameterError):
            spec.to_json()
