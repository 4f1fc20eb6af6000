"""Benchmark: ensemble vs count on multi-trial sweep points.

The ensemble engine exists to make ``run_trials`` fast, so these
benches time whole ``run_trials`` calls (the unit the experiment
harness pays for), one (engine, n) combination per test, at
n = 10^3 and n = 10^4.  One-shot pedantic timing, like the
figure-level benches: a sweep point is seconds of work, and the
trial count already averages away run-to-run noise.

``benchmarks/report.py`` runs the same workloads standalone and
appends the measured throughput to ``BENCH_engines.json``, keeping a
perf trajectory across revisions.
"""

import time

import pytest

from repro import AVCProtocol
from repro.sim.run import RunSpec, run_trials

#: The sweep-point workload: AVC with the Figure 4 mid-size state
#: count, margin ~1% (the acceptance workload of the ensemble-engine
#: PR, same as benchmarks/report.py), population n.
NUM_STATES = 66
TRIALS = {1_001: 40, 10_001: 25}


def sweep_point(n, engine, trials):
    results = run_trials(RunSpec(
        AVCProtocol.with_num_states(NUM_STATES),
        num_trials=trials, seed=12, n=n, epsilon=101 / n,
        engine=engine))
    interactions = sum(r.steps for r in results)
    assert all(r.settled for r in results)
    return interactions


@pytest.mark.parametrize("n", sorted(TRIALS))
@pytest.mark.parametrize("engine", ["ensemble", "count"])
def test_sweep_point_throughput(benchmark, engine, n):
    trials = TRIALS[n]
    interactions = benchmark.pedantic(
        lambda: sweep_point(n, engine, trials), rounds=1, iterations=1)
    benchmark.extra_info["n"] = n
    benchmark.extra_info["trials"] = trials
    benchmark.extra_info["interactions"] = interactions
    benchmark.extra_info["interactions_per_second"] = (
        interactions / benchmark.stats["mean"])


def test_ensemble_beats_count_loop_at_large_n(benchmark):
    """The acceptance bar for the ensemble path: at n = 10^4 it must
    deliver several times the count-engine loop's per-interaction
    throughput (measured ~7x; asserted >= 4x for noise headroom).
    Each engine runs at its natural operating point — the ensemble
    amortizes numpy dispatch across trials, so it gets the full
    100-trial sweep point while the count engine's per-trial cost is
    sampled from a 10-trial slice.  Wall-clock on the full workload
    scales with the same ratio (both paths are throughput-bound)."""
    started = time.perf_counter()
    count_interactions = sweep_point(10_001, "count", 10)
    count_rate = count_interactions / (time.perf_counter() - started)
    ensemble_interactions = benchmark.pedantic(
        lambda: sweep_point(10_001, "ensemble", 100),
        rounds=1, iterations=1)
    ensemble_rate = ensemble_interactions / benchmark.stats["mean"]
    benchmark.extra_info["count_rate"] = count_rate
    benchmark.extra_info["ensemble_rate"] = ensemble_rate
    benchmark.extra_info["speedup"] = ensemble_rate / count_rate
    assert ensemble_rate > 4 * count_rate, (
        f"ensemble {ensemble_rate:.3g}/s vs count {count_rate:.3g}/s")
