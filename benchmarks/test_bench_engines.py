"""Benchmarks: engine throughput (abl-engines).

Times one fixed workload per engine so the engine-selection heuristics
in :mod:`repro.sim.run` stay honest.  These use pytest-benchmark's
real timing loop (multiple rounds), unlike the figure-level benches.
"""

import numpy as np
import pytest

from repro import AVCProtocol, FourStateProtocol
from repro.sim import (
    AgentEngine,
    CountEngine,
    CountEnsembleEngine,
    EnsembleEngine,
    NullSkippingEngine,
)


def run_workload(engine, protocol, count_a, count_b, seed):
    result = engine.run(protocol.initial_counts(count_a, count_b), rng=seed)
    assert result.settled
    return result


def run_ensemble_workload(engine, protocol, count_a, count_b, seed,
                          trials, max_steps=None):
    results = engine.run_ensemble(
        protocol.initial_counts(count_a, count_b), num_trials=trials,
        rng=np.random.default_rng(seed), max_steps=max_steps)
    assert len(results) == trials
    return results


@pytest.mark.parametrize("engine_class", [
    AgentEngine, CountEngine, NullSkippingEngine,
], ids=lambda c: c.name)
def test_four_state_engines(benchmark, engine_class):
    """Four-state protocol, n = 2001, margin 5%: exact engines."""
    protocol = FourStateProtocol()
    engine = engine_class(protocol)
    benchmark(run_workload, engine, protocol, 1051, 950, 12)


@pytest.mark.parametrize("engine_class", [
    AgentEngine, CountEngine,
], ids=lambda c: c.name)
def test_avc_engines(benchmark, engine_class):
    """AVC s=66, n = 2001, margin one agent."""
    protocol = AVCProtocol.with_num_states(66)
    engine = engine_class(protocol)
    benchmark(run_workload, engine, protocol, 1001, 1000, 12)


@pytest.mark.parametrize("engine_class", [
    EnsembleEngine, CountEnsembleEngine,
], ids=lambda c: c.name)
def test_avc_ensemble_engines(benchmark, engine_class):
    """AVC s=66, n = 10^4, margin 101 agents, 20-trial ensembles: the
    two bulk engines on the engine-selection workload's shape."""
    protocol = AVCProtocol.with_num_states(66)
    engine = engine_class(protocol)
    results = benchmark(run_ensemble_workload, engine, protocol,
                        5_051, 4_950, 12, 20)
    assert all(r.settled for r in results)


def test_count_ensemble_at_paper_scale(benchmark):
    """The count ensemble's reason to exist: n = 10^5, where the token
    matrix thrashes memory bandwidth.  Capped per-trial budget (full
    convergence needs ~n log n interactions); throughput per exact
    interaction is what the trajectory tracks."""
    protocol = AVCProtocol.with_num_states(66)
    engine = CountEnsembleEngine(protocol)
    results = benchmark(run_ensemble_workload, engine, protocol,
                        50_051, 49_950, 12, 20, 50_000)
    assert all(r.steps == 50_000 for r in results)


def test_null_skipping_speedup_at_tiny_margin(benchmark):
    """The null-skipping engine's reason to exist: the four-state
    protocol at eps = 1/n, where almost all interactions are null.
    (The agent engine needs ~n times longer on this workload.)"""
    protocol = FourStateProtocol()
    engine = NullSkippingEngine(protocol)
    result = benchmark(run_workload, engine, protocol, 1001, 1000, 12)
    assert result.productive_steps < result.steps / 10
