"""Fingerprint stability: the cache contract."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import AVCProtocol, RunSpec
from repro.runstore.fingerprint import (
    RESULT_SCHEMA_VERSION,
    canonical,
    canonical_json,
    fingerprint,
    point_key,
    spec_from_key,
    spec_key,
)

COMMITTED = sorted((Path(__file__).resolve().parents[2] / "results"
                    / ".runstore" / "objects").glob("*/*.json"))


class TestCanonical:
    def test_dict_insertion_order_irrelevant(self):
        first = {"a": 1, "b": 2.5, "c": "x"}
        second = {"c": "x", "b": 2.5, "a": 1}
        assert canonical_json(first) == canonical_json(second)
        assert fingerprint(first) == fingerprint(second)

    def test_float_spelling_irrelevant(self):
        # 1e-2 and 0.01 are the same float, hence the same point.
        assert fingerprint({"eps": 1e-2}) == fingerprint({"eps": 0.01})
        assert fingerprint({"eps": 1 / 3}) == \
            fingerprint({"eps": 0.3333333333333333})

    def test_distinct_floats_distinct(self):
        assert fingerprint({"eps": 0.3}) != \
            fingerprint({"eps": 0.30000000000000004})

    def test_negative_zero_folded(self):
        assert fingerprint({"x": -0.0}) == fingerprint({"x": 0.0})

    def test_tuple_and_list_agree(self):
        assert fingerprint({"xs": (1, 2, 3)}) == fingerprint({"xs": [1, 2, 3]})

    def test_numpy_scalars_unboxed(self):
        assert fingerprint({"n": np.int64(5)}) == fingerprint({"n": 5})
        assert fingerprint({"x": np.float64(0.5)}) == \
            fingerprint({"x": 0.5})

    def test_nested_normalization(self):
        assert canonical({"outer": {"b": (np.int64(1),), "a": -0.0}}) == \
            {"outer": {"b": [1], "a": 0.0}}

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            fingerprint({"x": float("nan")})

    def test_unhashable_type_rejected(self):
        with pytest.raises(TypeError):
            canonical({"x": object()})


class TestPointKeys:
    def test_identical_protocol_instances_share_address(self):
        a = spec_key(RunSpec(AVCProtocol(m=15, d=1), n=101,
                             epsilon=1 / 101, num_trials=5, seed=7))
        b = spec_key(RunSpec(AVCProtocol(m=15, d=1), n=101,
                             epsilon=1 / 101, num_trials=5, seed=7))
        assert fingerprint(a) == fingerprint(b)

    @pytest.mark.parametrize("change", [
        {"seed": 8}, {"num_trials": 6}, {"engine": "count"}, {"n": 103},
        {"epsilon": 2 / 101}, {"max_parallel_time": 10.0},
    ])
    def test_any_input_change_changes_address(self, change):
        base = RunSpec(AVCProtocol(m=15, d=1), n=101, epsilon=1 / 101,
                       num_trials=5, seed=7, engine="auto")
        baseline = fingerprint(spec_key(base))
        changed = fingerprint(spec_key(base.replace(**change)))
        assert changed != baseline

    def test_protocol_parameters_enter_the_key(self):
        base = dict(n=101, epsilon=1 / 101, num_trials=5, seed=7)
        assert fingerprint(spec_key(RunSpec(AVCProtocol(m=15, d=1),
                                            **base))) != \
            fingerprint(spec_key(RunSpec(AVCProtocol(m=15, d=2), **base)))

    def test_schema_version_embedded(self):
        key = spec_key(RunSpec(AVCProtocol(m=15, d=1), n=101,
                               epsilon=1 / 101, num_trials=5, seed=7))
        assert key["schema"] == RESULT_SCHEMA_VERSION
        assert point_key("phases", {"n": 101})["schema"] == \
            RESULT_SCHEMA_VERSION

    def test_fingerprint_is_hex_sha256(self):
        fp = fingerprint({"anything": 1})
        assert len(fp) == 64
        int(fp, 16)  # raises if not hex


class TestEngineKeyPolicy:
    """The key records the *requested* engine name, never the resolved
    one: every engine ``"auto"`` may pick samples the same chain, so
    the population-size routing between the token and count ensembles
    must not move any cached address."""

    def test_auto_key_is_stable_across_the_routing_threshold(self):
        protocol = AVCProtocol(m=63, d=1)
        small = RunSpec(protocol, n=101, epsilon=5 / 101, num_trials=8,
                        seed=7)
        large = RunSpec(protocol, n=100_001, epsilon=5 / 100_001,
                        num_trials=8, seed=7)
        for key in (spec_key(small), spec_key(large)):
            assert key["engine"] == "auto"

    def test_requested_engine_names_are_distinct_addresses(self):
        base = dict(n=101, epsilon=5 / 101, num_trials=8, seed=7)
        protocol = AVCProtocol(m=15, d=1)
        prints = {
            fingerprint(spec_key(RunSpec(protocol, engine=name, **base)))
            for name in ("auto", "ensemble", "count-ensemble")}
        assert len(prints) == 3  # streams are engine-specific

    def test_engine_instances_are_rejected(self):
        from repro.sim import CountEnsembleEngine

        protocol = AVCProtocol(m=15, d=1)
        spec = RunSpec(protocol, n=101, epsilon=5 / 101, num_trials=8,
                       seed=7, engine=CountEnsembleEngine(protocol))
        with pytest.raises(ValueError, match="registered"):
            spec_key(spec)


class TestSpecFromKey:
    def test_committed_objects_are_committed(self):
        assert len(COMMITTED) == 30

    @pytest.mark.parametrize("path", COMMITTED,
                             ids=[path.stem[:12] for path in COMMITTED])
    def test_round_trips_every_committed_key(self, path):
        entry = json.loads(path.read_text())
        key = entry["key"]
        rebuilt = spec_key(spec_from_key(key))
        assert dict(rebuilt, kind=key["kind"]) == key
        assert fingerprint(key) == entry["fingerprint"]

    def test_count_form_and_options_round_trip(self):
        spec = RunSpec(AVCProtocol(m=15, d=1), count_a=30, count_b=20,
                       num_trials=3, seed=4, majority="B",
                       engine="count", max_steps=5000,
                       on_timeout="raise")
        assert spec_key(spec_from_key(spec_key(spec))) == spec_key(spec)
