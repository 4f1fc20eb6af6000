"""Determinism and no-regression guarantees of the fault subsystem.

Two contracts:

* identical ``(RunSpec, FaultSpec, seed)`` → bit-identical results on
  every engine, sequentially and in parallel;
* ``faults=None`` (and the null ``FaultSpec()``) is bit-identical to
  the pre-fault-subsystem code — pinned against hardcoded seed-7
  baselines recorded before the subsystem existed, and against the
  clean cache fingerprints the run store already holds.
"""

import pytest

from repro import (
    AVCProtocol,
    FaultSpec,
    FourStateProtocol,
    RunSpec,
    ThreeStateProtocol,
    run_trials,
    run_trials_parallel,
)
from repro.runstore.fingerprint import fingerprint, spec_key

AVC = AVCProtocol(m=15, d=1)


def signature(results):
    return [(r.steps, r.decision, r.settled, r.productive_steps)
            for r in results]


def full_signature(results):
    return [(r.steps, r.decision, r.settled, r.productive_steps,
             r.fault_events,
             sorted((str(state), count)
                    for state, count in r.final_counts.items()))
            for r in results]


FAULTED = FaultSpec(flip_prob=0.02, crash_prob=0.002, join_prob=0.002,
                    drop_prob=0.01, oneway_prob=0.01, horizon=500)


class TestFaultedDeterminism:
    @pytest.mark.parametrize("engine", ["count", "agent", "ensemble",
                                        "count-ensemble", "auto"])
    def test_identical_spec_identical_results(self, engine):
        spec = RunSpec(AVC, n=101, epsilon=5 / 101, num_trials=3,
                       seed=7, engine=engine, faults=FAULTED)
        assert full_signature(run_trials(spec)) \
            == full_signature(run_trials(spec))

    def test_scheduler_runs_deterministic(self):
        spec = RunSpec(AVC, n=101, epsilon=5 / 101, num_trials=2,
                       seed=7, faults=FaultSpec(scheduler="clustered",
                                                scheduler_strength=0.8))
        assert full_signature(run_trials(spec)) \
            == full_signature(run_trials(spec))

    def test_parallel_matches_sequential(self):
        spec = RunSpec(AVC, n=101, epsilon=5 / 101, num_trials=4,
                       seed=7, faults=FAULTED)
        assert full_signature(run_trials_parallel(spec, processes=2)) \
            == full_signature(run_trials(spec))


class TestCleanBitIdentity:
    """Hardcoded pre-subsystem baselines: the fault plumbing must not
    move a single sample of any clean run."""

    BASELINES = [
        (RunSpec(AVC, n=101, epsilon=5 / 101, num_trials=4, seed=7,
                 engine="ensemble"),
         [(1053, 1, True, 386), (1105, 1, True, 434),
          (1205, 1, True, 438), (1520, 1, True, 476)]),
        (RunSpec(AVC, n=101, epsilon=5 / 101, num_trials=3, seed=7,
                 engine="count"),
         [(1104, 1, True, 439), (1707, 1, True, 520),
          (1526, 1, True, 472)]),
        (RunSpec(AVC, n=101, epsilon=5 / 101, num_trials=3, seed=7,
                 engine="agent"),
         [(1463, 1, True, 521), (1357, 1, True, 498),
          (1577, 1, True, 479)]),
        (RunSpec(ThreeStateProtocol(), n=101, epsilon=5 / 101,
                 num_trials=3, seed=7),
         [(1771, 1, True, 938), (1067, 1, True, 488),
          (1132, 0, True, 568)]),
        (RunSpec(FourStateProtocol(), n=51, epsilon=3 / 51,
                 num_trials=3, seed=7),
         [(2308, 1, True, 146), (2654, 1, True, 182),
          (1980, 1, True, 138)]),
    ]

    @pytest.mark.parametrize(
        "spec,expected", BASELINES,
        ids=["ensemble", "count", "agent", "three-state-auto",
             "four-state-auto"])
    def test_faults_none_matches_baseline(self, spec, expected):
        assert signature(run_trials(spec)) == expected

    @pytest.mark.parametrize(
        "spec,expected", BASELINES,
        ids=["ensemble", "count", "agent", "three-state-auto",
             "four-state-auto"])
    def test_null_fault_spec_matches_baseline(self, spec, expected):
        assert signature(run_trials(spec.replace(faults=FaultSpec()))) \
            == expected


class TestFingerprintStability:
    """Clean cache entries committed before this subsystem must stay
    addressable: their fingerprints are pinned byte-for-byte."""

    def test_clean_fingerprints_unchanged(self):
        spec = RunSpec(AVC, n=101, epsilon=5 / 101, num_trials=4,
                       seed=7, engine="ensemble")
        assert fingerprint(spec_key(spec)) == (
            "613ac5f4d78c6351dfe6e0574ed198af"
            "dd31e107607e7401f45121ec2e252086")

    def test_clean_fingerprint_second_point(self):
        spec = RunSpec(AVCProtocol(m=7, d=2), n=51, epsilon=3 / 51,
                       num_trials=2, seed=3)
        assert fingerprint(spec_key(spec)) == (
            "580a56a004bcec2d102314224c22228c"
            "49cdbc342d9a1151dd51e7d136a2edcb")

    def test_null_spec_shares_the_clean_fingerprint(self):
        spec = RunSpec(AVC, n=101, epsilon=5 / 101, num_trials=4,
                       seed=7, engine="ensemble")
        assert fingerprint(spec_key(spec)) \
            == fingerprint(spec_key(spec.replace(faults=FaultSpec())))

    def test_active_faults_extend_the_key(self):
        spec = RunSpec(AVC, n=101, epsilon=5 / 101, num_trials=4,
                       seed=7, engine="ensemble")
        faulted = spec.replace(faults=FaultSpec(flip_prob=0.02,
                                                horizon=500))
        key = spec_key(faulted)
        assert key["faults"] == {"flip_prob": 0.02, "horizon": 500}
        assert fingerprint(key) != fingerprint(spec_key(spec))
