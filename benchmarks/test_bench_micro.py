"""Micro-benchmarks for the performance-critical primitives.

These guard the constants that the engines' complexity claims rest
on: Fenwick-tree operations (the count engine's O(log s) per step),
the vectorized AVC kernel (the per-pair cost of filling AVC's
transition table), and the SSA event loop.
"""

import numpy as np
import pytest

from repro import AVCProtocol, ThreeStateProtocol
from repro.core.vectorized import AVCBatchKernel
from repro.crn import GillespieSimulator, protocol_to_crn
from repro.protocols.leader_election import (
    LeveledLeaderElection,
    PairwiseLeaderElection,
)
from repro.sim import NullSkippingEngine
from repro.sim.fenwick import FenwickTree


def test_fenwick_sample_update_cycle(benchmark):
    """One count-engine step worth of Fenwick work (s = 1024)."""
    rng = np.random.default_rng(0)
    weights = rng.integers(1, 50, size=1024).tolist()
    tree = FenwickTree(weights)
    targets = rng.integers(0, tree.total - 100, size=4096).tolist()

    def cycle():
        for target in targets:
            index = tree.find(target)
            tree.add(index, -1)
            other = tree.find(target % tree.total)
            tree.add(index, 1)
            tree.add(other, 0)
        return index

    benchmark(cycle)


def test_avc_kernel_throughput(benchmark):
    """Vectorized kernel over 100k random pairs (s = 1026)."""
    protocol = AVCProtocol.with_num_states(1026)
    kernel = AVCBatchKernel(protocol)
    rng = np.random.default_rng(1)
    s = protocol.num_states
    index_x = rng.integers(0, s, size=100_000)
    index_y = rng.integers(0, s, size=100_000)
    new_x, new_y = benchmark(kernel, index_x, index_y)
    assert len(new_x) == 100_000


def test_ssa_event_loop(benchmark):
    """Gillespie SSA on the compiled three-state network."""
    network = protocol_to_crn(ThreeStateProtocol())
    simulator = GillespieSimulator(network, volume=999.0)

    def run():
        result = simulator.run({"A": 600, "B": 400}, rng=2,
                               max_events=5_000, t_max=1e9)
        return result

    result = benchmark(run)
    assert result.events > 0


@pytest.mark.parametrize("protocol", [
    PairwiseLeaderElection(), LeveledLeaderElection(levels=8),
], ids=lambda p: p.name)
def test_leader_election_run(benchmark, protocol):
    """Electing a leader among 2000 agents (null-skipping engine)."""
    engine = NullSkippingEngine(protocol)
    result = benchmark(engine.run, protocol.initial_counts(2000), rng=3)
    assert result.settled
