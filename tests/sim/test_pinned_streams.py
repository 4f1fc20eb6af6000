"""Pinned fingerprints and RNG streams across the protocol refactor.

The lazy structured-state protocol layer must not move a single bit:

* run-store **fingerprints** of pre-existing protocols are pinned as
  hex digests — a changed wire form or key layout would silently
  orphan every cached sweep result;
* seed-7 **trial trajectories** (steps, productive steps, decision)
  are pinned per engine — the state enumeration order defines the
  dense indices that every engine's RNG stream consumes, so any
  reordering shows up here immediately;
* the JIT engines must stay bit-identical to their numpy twins when
  the transition table is materialized lazily from a structured
  protocol.

If one of these pins breaks, the refactor changed observable
behavior: fix the code, do not re-pin.
"""

import pytest

from repro import (
    AVCProtocol,
    FourStateProtocol,
    IntervalConsensusProtocol,
    PhaseDoublingProtocol,
    LogStateMajorityProtocol,
    RunSpec,
    ThreeStateProtocol,
    VoterProtocol,
    simulate,
)
from repro.runstore import fingerprint
from repro.sim import kernels

needs_backend = pytest.mark.skipif(
    kernels.default_backend() is None,
    reason="no usable kernel backend on this host")


PINNED_FINGERPRINTS = [
    (lambda: AVCProtocol(m=63, d=1), dict(n=1001, epsilon=1 / 1001,
                                          num_trials=5, seed=7),
     "8eb4e337849a849cd81d9dbcd02667462723cc10603ecb406df0fe4e4266bdcc"),
    (ThreeStateProtocol, dict(n=101, epsilon=0.2, num_trials=5, seed=7),
     "22cb965e322369f1c055f3fd42f4af425e362633ca10d1ae8d4d0136fc0d9b7c"),
    (FourStateProtocol, dict(n=101, epsilon=0.2, num_trials=5, seed=7),
     "a2960775a3c79f5cca3bb72411a80bead7ca336f3cab61de0fdd8370c9274a95"),
    (VoterProtocol, dict(n=100, epsilon=0.2, num_trials=3, seed=7),
     "22264c9b1a9087abe1bf1dc145960341cce0a11287f8ef796100f1ebde7eaa68"),
    (IntervalConsensusProtocol, dict(n=101, epsilon=0.2, num_trials=3,
                                     seed=7),
     "d655c2dc0d8dd19e272dde7a5a3f135bb1b99c3b9635e0de69bbb16fb5e4fa28"),
]


@pytest.mark.parametrize(
    "factory,spec_kwargs,expected", PINNED_FINGERPRINTS,
    ids=["avc", "three-state", "four-state", "voter",
         "interval-consensus"])
def test_fingerprints_are_byte_identical(factory, spec_kwargs,
                                         expected):
    spec = RunSpec(factory(), **spec_kwargs)
    assert fingerprint(spec.key()) == expected


PINNED_TRAJECTORIES = [
    ("count", lambda: AVCProtocol(m=15, d=1),
     dict(n=200, epsilon=0.1, num_trials=3, seed=7),
     [(1810, 858, 1), (1767, 754, 1), (1839, 826, 1)]),
    ("count", ThreeStateProtocol,
     dict(n=100, epsilon=0.2, num_trials=3, seed=7),
     [(1464, 602, 0), (812, 290, 1), (556, 202, 1)]),
    ("count", FourStateProtocol,
     dict(n=100, epsilon=0.2, num_trials=3, seed=7),
     [(1560, 154, 1), (821, 118, 1), (1839, 164, 1)]),
    ("ensemble", lambda: AVCProtocol(m=15, d=1),
     dict(n=200, epsilon=0.1, num_trials=4, seed=7),
     [(2456, 852, 1), (1655, 810, 1), (1637, 767, 1),
      (2495, 899, 1)]),
    ("agent", lambda: AVCProtocol(m=15, d=1),
     dict(n=100, epsilon=0.2, num_trials=2, seed=7),
     [(764, 389, 1), (711, 359, 1)]),
    ("null-skipping", ThreeStateProtocol,
     dict(n=100, epsilon=0.2, num_trials=3, seed=7),
     [(972, 278, 1), (676, 294, 1), (918, 258, 1)]),
    ("null-skipping", FourStateProtocol,
     dict(n=100, epsilon=0.2, num_trials=3, seed=7),
     [(1871, 174, 1), (1605, 156, 1), (1684, 140, 1)]),
    ("null-skipping", lambda: AVCProtocol(m=15, d=1),
     dict(n=200, epsilon=0.1, num_trials=3, seed=7),
     [(2025, 779, 1), (1484, 733, 1), (1876, 857, 1)]),
    # The continuous-time entries also pin the sampled clock, bit for
    # bit (a float repr round-trips).
    ("continuous-time", FourStateProtocol,
     dict(n=100, epsilon=0.2, num_trials=3, seed=7),
     [(1274, 110, 1, 12.412778515507725),
      (786, 128, 1, 7.892846832149046),
      (1058, 116, 1, 11.273687761409148)]),
]


@pytest.mark.parametrize(
    "engine,factory,spec_kwargs,expected", PINNED_TRAJECTORIES,
    ids=["count-avc", "count-three-state", "count-four-state",
         "ensemble-avc", "agent-avc", "null-skipping-three-state",
         "null-skipping-four-state", "null-skipping-avc",
         "continuous-time-four-state"])
def test_seed7_streams_are_pinned(engine, factory, spec_kwargs,
                                  expected):
    results = simulate(RunSpec(factory(), engine=engine,
                               **spec_kwargs))
    observed = [(r.steps, r.productive_steps, r.decision)
                + ((r.continuous_time,) if engine == "continuous-time"
                   else ())
                for r in results]
    assert observed == expected


@needs_backend
@pytest.mark.parametrize("factory", [
    lambda: PhaseDoublingProtocol(levels=5, theta=2),
    lambda: LogStateMajorityProtocol(levels=5, phase_len=2),
    lambda: AVCProtocol(m=15, d=1),
], ids=["phase-doubling", "log-state", "avc"])
def test_jit_engine_identical_on_lazy_tables(factory):
    """The compiled kernels consume the same lazily-materialized
    transition table as the numpy engines, so results match bit for
    bit — structured protocols included."""
    kwargs = dict(n=100, epsilon=0.2, num_trials=3, seed=7)
    numpy_results = simulate(RunSpec(factory(), engine="count",
                                     **kwargs))
    jit_results = simulate(RunSpec(factory(), engine="count-jit",
                                   **kwargs))
    assert ([(r.steps, r.productive_steps, r.decision)
             for r in jit_results]
            == [(r.steps, r.productive_steps, r.decision)
                for r in numpy_results])
