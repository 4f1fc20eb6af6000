"""Cross-engine validation (abl-engines, statistical part).

All exact engines sample the same Markov chain, so their convergence
time distributions must agree.  We compare mean parallel times over
modest trial counts with loose thresholds to keep the suite fast and
deterministic (fixed seeds); the stronger ground-truth comparison
against exact Markov-chain absorption times lives in
``tests/analysis/test_markov.py``.
"""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from repro import (
    AVCProtocol,
    FourStateProtocol,
    LogStateMajorityProtocol,
    PhaseDoublingProtocol,
    ThreeStateProtocol,
)
from repro.sim import (
    AgentEngine,
    CountEngine,
    CountEnsembleEngine,
    EnsembleEngine,
    JitCountEnsembleEngine,
    NullSkippingEngine,
    TrialStats,
)
from repro.sim import kernels
from repro.rng import spawn_many

needs_backend = pytest.mark.skipif(
    kernels.default_backend() is None,
    reason="no usable kernel backend on this host")


def mean_time(engine, protocol, count_a, count_b, trials, seed):
    results = [
        engine.run(protocol.initial_counts(count_a, count_b), rng=child)
        for child in spawn_many(seed, trials)
    ]
    stats = TrialStats.from_results(results)
    assert stats.settled_fraction == 1.0
    return stats.mean_parallel_time


@pytest.mark.parametrize("protocol_factory,count_a,count_b", [
    (FourStateProtocol, 40, 21),
    (ThreeStateProtocol, 45, 16),
    (lambda: AVCProtocol(m=9, d=1), 36, 25),
    (lambda: PhaseDoublingProtocol(levels=5, theta=2), 36, 25),
    (lambda: LogStateMajorityProtocol(levels=5, phase_len=2), 36, 25),
])
def test_exact_engines_agree(protocol_factory, count_a, count_b):
    protocol = protocol_factory()
    trials = 60
    agent = mean_time(AgentEngine(protocol), protocol, count_a, count_b,
                      trials, seed=101)
    count = mean_time(CountEngine(protocol), protocol, count_a, count_b,
                      trials, seed=202)
    skip = mean_time(NullSkippingEngine(protocol), protocol, count_a,
                     count_b, trials, seed=303)
    # Same chain, independent samples: means within 35% of each other.
    reference = agent
    assert count == pytest.approx(reference, rel=0.35)
    assert skip == pytest.approx(reference, rel=0.35)


@pytest.mark.parametrize("ensemble_cls", [
    EnsembleEngine, CountEnsembleEngine,
    pytest.param(JitCountEnsembleEngine, marks=needs_backend),
], ids=["token-ensemble", "count-ensemble", "count-ensemble-jit"])
@pytest.mark.parametrize("protocol_factory,count_a,count_b", [
    (FourStateProtocol, 40, 21),
    (ThreeStateProtocol, 45, 16),
    (lambda: AVCProtocol(m=9, d=1), 36, 25),
    (lambda: PhaseDoublingProtocol(levels=5, theta=2), 36, 25),
    (lambda: LogStateMajorityProtocol(levels=5, phase_len=2), 36, 25),
], ids=["four-state", "three-state", "avc", "phase-doubling",
        "log-state"])
def test_ensemble_matches_count_engine_distribution(protocol_factory,
                                                    count_a, count_b,
                                                    ensemble_cls):
    """Both ensemble paths sample the count-engine chain exactly, so
    their convergence-step samples must come from the same distribution
    (two-sample Kolmogorov-Smirnov; fixed seeds keep it deterministic)."""
    protocol = protocol_factory()
    trials = 150
    initial = protocol.initial_counts(count_a, count_b)
    count_engine = CountEngine(protocol)
    count_steps = [count_engine.run(initial, rng=child).steps
                   for child in spawn_many(17, trials)]
    results = ensemble_cls(protocol).run_ensemble(
        initial, num_trials=trials, rng=np.random.default_rng(18))
    assert all(r.settled for r in results)
    ensemble_steps = [r.steps for r in results]
    outcome = ks_2samp(count_steps, ensemble_steps)
    assert outcome.pvalue > 0.01, (
        f"KS statistic {outcome.statistic:.3f}, p={outcome.pvalue:.4f}")


def test_null_skipping_steps_match_count_engine_distribution():
    """The skipped-null accounting must reproduce raw step counts, not
    just productive ones."""
    protocol = FourStateProtocol()
    trials = 80
    count = mean_time(CountEngine(protocol), protocol, 30, 25, trials,
                      seed=11)
    skip = mean_time(NullSkippingEngine(protocol), protocol, 30, 25,
                     trials, seed=12)
    assert skip == pytest.approx(count, rel=0.35)
