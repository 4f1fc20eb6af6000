"""The compiled null-skipping loop against its Python twin.

``NullSkippingEngine`` and ``ContinuousTimeEngine`` run a whole trial
in one kernel call when a backend is usable.  The kernel draws through
numpy's own geometric, gamma and bounded-integer samplers, so it must
return exactly what the Python loop returns -- steps, productive
count, ``frozen``, final counts, the continuous-time clock (bit-equal)
-- and leave the generator in the same state.  Runs that need
per-interaction callbacks (a recorder, an event observer, a generic
tracker) must keep the Python loop.
"""

import types

import numpy as np
import pytest

from repro import (
    AVCProtocol,
    FourStateProtocol,
    ThreeStateProtocol,
    VoterProtocol,
)
from repro.protocols.leader_election import PairwiseLeaderElection
from repro.sim import ContinuousTimeEngine, NullSkippingEngine, kernels
from repro.sim.convergence import UnanimitySettleTracker
from repro.sim.record import TrajectoryRecorder

needs_backend = pytest.mark.skipif(
    kernels.default_backend() is None,
    reason="no usable kernel backend on this host")

PROTOCOLS = {
    "three-state": ThreeStateProtocol,
    "four-state": FourStateProtocol,
    "voter": VoterProtocol,
    "avc-s4": lambda: AVCProtocol.with_num_states(4),
    "avc-s6": lambda: AVCProtocol.with_num_states(6),
    "avc-s12": lambda: AVCProtocol.with_num_states(12),
}
POPULATIONS = (2, 3, 11, 101, 1001)
SEEDS = range(5)
#: The continuous-time loop is the same loop plus the gamma clock; two
#: seeds per start keep its half of the grid cheap.
CLOCK_SEEDS = range(2)


def cases(protocol_name, n):
    """``(label, count_a, count_b, max_steps)`` starts for one cell.

    ``tie`` freezes the four-state protocol and AVC at even n;
    ``margin`` settles (at n = 2 it starts settled); ``budget`` runs
    out of steps mid-run; ``lopsided`` starts with few productive
    pairs, so its first geometric skip usually jumps past the budget.
    The voter model needs ~n^2 productive events, so its runs are
    capped to keep the Python twin fast.
    """
    cap = 30 * n if protocol_name == "voter" else None
    return [
        ("tie", n // 2, n - n // 2, cap),
        ("margin", n // 2 + 1, n - n // 2 - 1, cap),
        ("budget", n // 2 + 1, n - n // 2 - 1, n),
        ("lopsided", n - 1, 1, n // 10 + 1),
    ]


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count the compiled loop's calls (the backend stays in use)."""
    real = kernels.load()
    calls = []

    def counted(*args):
        calls.append(args)
        return real.null_skip_run(*args)

    shim = types.SimpleNamespace(null_skip_run=counted)
    monkeypatch.setattr(kernels, "load", lambda backend=None: shim)
    return calls


def outcome(result, rng):
    return (result.steps, result.productive_steps, result.frozen,
            result.settled, result.decision, result.final_counts,
            result.continuous_time, rng.bit_generator.state)


def both_loops(engine, initial, seed, max_steps, monkeypatch):
    """``(compiled, python)`` outcomes of one start and seed."""
    runs = []
    for compiled in (True, False):
        rng = np.random.default_rng(seed)
        with monkeypatch.context() as patch:
            if not compiled:
                patch.setattr(kernels, "default_backend", lambda: None)
            result = engine.run(initial, rng=rng, max_steps=max_steps)
        runs.append(outcome(result, rng))
    return runs


@needs_backend
@pytest.mark.parametrize("engine_class",
                         [NullSkippingEngine, ContinuousTimeEngine],
                         ids=["null-skipping", "continuous-time"])
@pytest.mark.parametrize("n", POPULATIONS)
@pytest.mark.parametrize("protocol_name", PROTOCOLS)
def test_compiled_loop_matches_python_loop(protocol_name, n, engine_class,
                                           monkeypatch, kernel_calls):
    protocol = PROTOCOLS[protocol_name]()
    engine = engine_class(protocol)
    ran = set()
    seeds = CLOCK_SEEDS if engine_class._track_time else SEEDS
    for label, count_a, count_b, max_steps in cases(protocol_name, n):
        initial = protocol.initial_counts(count_a, count_b)
        for seed in seeds:
            before = len(kernel_calls)
            compiled, python = both_loops(engine, initial, seed,
                                          max_steps, monkeypatch)
            assert compiled == python, (label, seed)
            if len(kernel_calls) > before:
                frozen, settled = compiled[2], compiled[3]
                ran.add("frozen" if frozen else
                        "settled" if settled else "budget")
    # Every cell reaches the kernel; from n = 11 up its budget case
    # exhausts there too.
    assert ran
    if n >= 11:
        assert "budget" in ran


@needs_backend
def test_grid_covers_frozen_ties_and_skips_past_the_budget(monkeypatch):
    """The grid's special cases do occur: a frozen four-state tie, and a
    first skip that jumps past the budget with no productive event."""
    protocol = FourStateProtocol()
    engine = NullSkippingEngine(protocol)
    tie = engine.run(protocol.initial_counts(50, 50), rng=1)
    assert tie.frozen and not tie.settled
    lopsided = [engine.run(protocol.initial_counts(1000, 1), rng=seed,
                           max_steps=101) for seed in SEEDS]
    assert any(r.productive_steps == 0 and r.steps == 101
               for r in lopsided)


@needs_backend
@pytest.mark.parametrize("engine_class",
                         [NullSkippingEngine, ContinuousTimeEngine])
@pytest.mark.parametrize("protocol_name", ["four-state", "avc-s6"])
def test_settled_start_matches(protocol_name, engine_class, monkeypatch,
                               kernel_calls):
    """``run`` never simulates a settled start; the inner loop must
    still agree on one when called directly."""
    protocol = PROTOCOLS[protocol_name]()
    engine = engine_class(protocol)
    start = [int(c) for c in protocol.counts_to_vector(
        protocol.initial_counts(7, 0))]
    loops = []
    for compiled in (True, False):
        counts = list(start)
        tracker = UnanimitySettleTracker(protocol, counts)
        rng = np.random.default_rng(3)
        with monkeypatch.context() as patch:
            if not compiled:
                patch.setattr(kernels, "default_backend", lambda: None)
            returned = engine._simulate(counts, 7, rng, 1000, tracker,
                                        None)
        loops.append((returned, counts, tracker.settled(),
                      rng.bit_generator.state))
    assert loops[0] == loops[1]
    assert len(kernel_calls) == 1


@pytest.fixture
def kernel_forbidden(monkeypatch):
    """Fail the test if the compiled loop is called."""
    def forbidden(*_):
        raise AssertionError("the compiled loop was called")

    shim = types.SimpleNamespace(null_skip_run=forbidden)
    monkeypatch.setattr(kernels, "load", lambda backend=None: shim)
    monkeypatch.setattr(kernels, "default_backend", lambda: "cext")


class TestPythonLoopKept:
    """Per-interaction callbacks need the Python loop, backend or not."""

    def test_recorder(self, kernel_forbidden):
        protocol = FourStateProtocol()
        recorder = TrajectoryRecorder(interval_steps=10)
        result = NullSkippingEngine(protocol).run(
            protocol.initial_counts(30, 20), rng=1, recorder=recorder)
        assert result.settled

    def test_event_observer(self, kernel_forbidden):
        protocol = FourStateProtocol()
        events = []
        result = ContinuousTimeEngine(protocol).run(
            protocol.initial_counts(30, 20), rng=1,
            event_observer=lambda *e: events.append(e))
        assert len(events) == result.productive_steps

    def test_generic_tracker(self, kernel_forbidden):
        protocol = PairwiseLeaderElection()
        result = NullSkippingEngine(protocol).run(
            protocol.initial_counts(20), rng=1)
        assert result.final_counts["L"] == 1

    def test_population_beyond_kernel_bound(self, kernel_forbidden,
                                            monkeypatch):
        monkeypatch.setattr(kernels, "MAX_KERNEL_N", 10)
        protocol = ThreeStateProtocol()
        result = NullSkippingEngine(protocol).run(
            protocol.initial_counts(8, 4), rng=1)
        assert result.settled

    def test_plain_run_takes_the_kernel(self, monkeypatch):
        # The control for the tests above: the same shim is reached
        # when nothing needs the Python loop.
        calls = []
        shim = types.SimpleNamespace(
            null_skip_run=lambda *a: calls.append(a) or (1, 1, True, 0.0))
        monkeypatch.setattr(kernels, "load", lambda backend=None: shim)
        monkeypatch.setattr(kernels, "default_backend", lambda: "cext")
        protocol = FourStateProtocol()
        NullSkippingEngine(protocol).run(
            protocol.initial_counts(30, 20), rng=1)
        assert len(calls) == 1
