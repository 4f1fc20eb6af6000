"""Byzantine corruption budgets: validation, injection, determinism.

The byzantine channel differs from the transient fault channels in two
ways that these tests pin down: the adversary is a *budget* (``f`` of
``n`` agents lie in every meeting they join, resolved hypergeometrically
per meeting) rather than a rate, and lies corrupt the *message* — the
presented state — never the liar's own state, so the underlying
configuration only moves through honest updates.
"""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from repro import (
    AVCProtocol,
    FaultSpec,
    FourStateProtocol,
    InvalidParameterError,
    PairwiseLeaderElection,
    RunSpec,
    corrupt_counts,
    run_majority,
    run_trials,
)
from repro.faults import FaultRuntime, active_faults
from repro.rng import spawn_many
from repro.runstore.fingerprint import fingerprint, spec_key
from repro.sim import AgentEngine, CountEngine, EnsembleEngine
from repro.sim.run import make_run_engine
from repro.telemetry import InMemorySink, Telemetry

PROTOCOL = AVCProtocol(m=7, d=1)


class TestSpecValidation:
    @pytest.mark.parametrize("f", [-1, -7])
    def test_budget_non_negative(self, f):
        with pytest.raises(InvalidParameterError, match="byzantine_f"):
            FaultSpec(byzantine_f=f)

    @pytest.mark.parametrize("f", [True, 1.5, "2"])
    def test_budget_must_be_an_integer(self, f):
        with pytest.raises(InvalidParameterError, match="byzantine_f"):
            FaultSpec(byzantine_f=f)

    def test_mode_checked(self):
        with pytest.raises(InvalidParameterError, match="byzantine_mode"):
            FaultSpec(byzantine_f=2, byzantine_mode="sneaky")

    @pytest.mark.parametrize("churn", [{"crash_prob": 0.1},
                                       {"join_prob": 0.1}])
    def test_byzantine_excludes_churn(self, churn):
        with pytest.raises(InvalidParameterError, match="churn"):
            FaultSpec(byzantine_f=2, **churn)

    def test_budget_activates_and_can_unsettle(self):
        spec = FaultSpec(byzantine_f=1)
        assert spec.active
        assert spec.can_unsettle
        assert not spec.churn

    def test_zero_budget_is_null(self):
        spec = FaultSpec(byzantine_f=0)
        assert not spec.active
        assert active_faults(spec) is None

    def test_key_only_non_default_fields(self):
        assert FaultSpec(byzantine_f=3).key() == {"byzantine_f": 3}
        assert FaultSpec(byzantine_f=3, byzantine_mode="adaptive").key() \
            == {"byzantine_f": 3, "byzantine_mode": "adaptive"}


class TestRuntimeBuild:
    def test_requires_capable_engine(self):
        with pytest.raises(InvalidParameterError,
                           match="byzantine corruption"):
            FaultRuntime.build(FaultSpec(byzantine_f=2), PROTOCOL,
                               expected=1, byzantine_ok=False)

    def test_budget_must_leave_an_honest_agent(self):
        with pytest.raises(InvalidParameterError, match="smaller"):
            FaultRuntime.build(FaultSpec(byzantine_f=51), PROTOCOL,
                               expected=1, byzantine_ok=True, n=51)

    def test_needs_majority_protocol(self):
        with pytest.raises(InvalidParameterError, match="majority"):
            FaultRuntime.build(FaultSpec(byzantine_f=2),
                               PairwiseLeaderElection(), expected=1,
                               byzantine_ok=True, n=51)

    def test_stubborn_needs_expected(self):
        with pytest.raises(InvalidParameterError, match="expected"):
            FaultRuntime.build(FaultSpec(byzantine_f=2), PROTOCOL,
                               expected=None, byzantine_ok=True, n=51)

    def test_stubborn_lies_with_the_minority_input(self):
        runtime = FaultRuntime.build(FaultSpec(byzantine_f=2), PROTOCOL,
                                     expected=1, byzantine_ok=True, n=51)
        minority = PROTOCOL.state_index[
            PROTOCOL.initial_state(PROTOCOL.INPUT_B)]
        counts = np.zeros(PROTOCOL.num_states, dtype=np.int64)
        assert runtime.byzantine_lie_state(counts) == minority

    def test_adaptive_lies_with_the_trailing_opinion(self):
        protocol = FourStateProtocol()
        runtime = FaultRuntime.build(
            FaultSpec(byzantine_f=2, byzantine_mode="adaptive"),
            protocol, expected=1, byzantine_ok=True, n=51)
        lie_a = protocol.state_index[
            protocol.initial_state(protocol.INPUT_A)]
        lie_b = protocol.state_index[
            protocol.initial_state(protocol.INPUT_B)]
        counts = np.zeros(protocol.num_states, dtype=np.int64)
        counts[lie_a] = 30
        counts[lie_b] = 21
        assert runtime.byzantine_lie_state(counts) == lie_b
        counts[lie_b] = 40
        assert runtime.byzantine_lie_state(counts) == lie_a
        # The vectorized twin agrees row for row.
        stacked = np.stack([counts, counts])
        assert runtime.byzantine_lie_rows(stacked).tolist() \
            == [lie_a, lie_a]


ENGINES = [
    pytest.param(lambda: CountEngine(PROTOCOL), id="count"),
    pytest.param(lambda: AgentEngine(PROTOCOL), id="agent"),
    pytest.param(lambda: EnsembleEngine(PROTOCOL), id="ensemble"),
]


def run_one(engine, faults, *, seed=7, count_a=31, count_b=20):
    return engine.run(PROTOCOL.initial_counts(count_a, count_b),
                      rng=seed, expected=1, faults=faults)


class TestInjection:
    @pytest.mark.parametrize("make_engine", ENGINES)
    def test_lies_counted_and_survivable(self, make_engine):
        result = run_one(make_engine(),
                         FaultSpec(byzantine_f=3, horizon=300))
        assert result.settled
        assert result.fault_events["byzantine_meetings"] > 0
        assert result.fault_events["byzantine_lies"] \
            >= result.fault_events["byzantine_meetings"]

    @pytest.mark.parametrize("make_engine", ENGINES)
    def test_counters_absent_without_a_budget(self, make_engine):
        """Non-byzantine faulted runs keep their pre-byzantine event
        dict shape — cached results must not grow new keys."""
        result = run_one(make_engine(),
                         FaultSpec(flip_prob=0.02, horizon=300))
        assert "byzantine_lies" not in result.fault_events
        assert "byzantine_meetings" not in result.fault_events

    @pytest.mark.parametrize("make_engine", ENGINES)
    def test_horizon_holds_the_run(self, make_engine):
        result = run_one(make_engine(),
                         FaultSpec(byzantine_f=2, horizon=400))
        assert result.settled
        assert result.steps >= 400

    def test_persistent_stubborn_adversary_flips_the_outcome(self):
        """Byzantine agents never update their own state: armed
        forever, they act as minority zealots and drag even an exact
        protocol to the wrong absorbing state."""
        result = run_one(CountEngine(PROTOCOL),
                         FaultSpec(byzantine_f=5), seed=11)
        assert result.settled
        assert result.decision == 0

    def test_transient_small_budget_preserves_the_majority(self):
        result = run_one(CountEngine(PROTOCOL),
                         FaultSpec(byzantine_f=1, horizon=200), seed=11,
                         count_a=40, count_b=11)
        assert result.settled
        assert result.decision == 1

    def test_lies_move_no_byzantine_state(self):
        """Message corruption only: the configuration's total count
        never changes, unlike churn."""
        result = run_one(CountEngine(PROTOCOL),
                         FaultSpec(byzantine_f=4, horizon=500))
        assert sum(result.final_counts.values()) == 51


class TestDeterminism:
    def test_scalar_run_matches_count_engine_exactly(self):
        faults = FaultSpec(byzantine_f=4, byzantine_mode="adaptive",
                           horizon=400)
        initial = PROTOCOL.initial_counts(31, 20)
        a = CountEngine(PROTOCOL).run(initial, rng=5, expected=1,
                                      faults=faults)
        b = EnsembleEngine(PROTOCOL).run(initial, rng=5, expected=1,
                                         faults=faults)
        assert (a.steps, a.decision, a.settled, a.productive_steps) \
            == (b.steps, b.decision, b.settled, b.productive_steps)
        assert a.fault_events == b.fault_events
        assert a.final_counts == b.final_counts

    @pytest.mark.parametrize("mode", ["stubborn", "adaptive"])
    def test_vectorized_ensemble_deterministic(self, mode):
        faults = FaultSpec(byzantine_f=3, byzantine_mode=mode,
                           horizon=400)
        initial = PROTOCOL.initial_counts(31, 20)

        def batch():
            return EnsembleEngine(PROTOCOL).run_ensemble(
                initial, num_trials=32,
                rng=np.random.default_rng(21), expected=1,
                faults=faults)

        assert [(r.steps, r.decision, r.fault_events) for r in batch()] \
            == [(r.steps, r.decision, r.fault_events) for r in batch()]

    @pytest.mark.parametrize("mode", ["stubborn", "adaptive"])
    def test_ensemble_matches_agent_engine_distribution(self, mode):
        """The vectorized byzantine path samples the same faulted
        chain as the sequential engines (two-sample KS on settling
        steps; fixed seeds keep the check deterministic)."""
        faults = FaultSpec(byzantine_f=3, byzantine_mode=mode,
                           horizon=400)
        initial = PROTOCOL.initial_counts(36, 25)
        trials = 150
        engine = AgentEngine(PROTOCOL)
        sequential = [engine.run(initial, rng=child, expected=1,
                                 faults=faults).steps
                      for child in spawn_many(17, trials)]
        results = EnsembleEngine(PROTOCOL).run_ensemble(
            initial, num_trials=trials,
            rng=np.random.default_rng(18), expected=1, faults=faults)
        assert all(r.settled for r in results)
        outcome = ks_2samp(sequential, [r.steps for r in results])
        assert outcome.pvalue > 0.01, (
            f"KS statistic {outcome.statistic:.3f}, "
            f"p={outcome.pvalue:.4f}")


class TestZeroBudgetIdentity:
    """``byzantine_f=0`` must be bit-identical to a clean run — pinned
    against the same seed-7 baseline as the other null-spec checks."""

    SPEC = RunSpec(AVCProtocol(m=15, d=1), n=101, epsilon=5 / 101,
                   num_trials=3, seed=7, engine="count")
    BASELINE = [(1104, 1, True, 439), (1707, 1, True, 520),
                (1526, 1, True, 472)]

    def signature(self, results):
        return [(r.steps, r.decision, r.settled, r.productive_steps)
                for r in results]

    def test_zero_budget_matches_the_pinned_baseline(self):
        spec = self.SPEC.replace(faults=FaultSpec(byzantine_f=0))
        assert self.signature(run_trials(spec)) == self.BASELINE

    def test_zero_budget_shares_the_clean_fingerprint(self):
        spec = self.SPEC.replace(faults=FaultSpec(byzantine_f=0))
        assert fingerprint(spec_key(spec)) \
            == fingerprint(spec_key(self.SPEC))
        # Even with a non-default mode: f=0 never lies, so the mode
        # cannot matter.
        adaptive = self.SPEC.replace(
            faults=FaultSpec(byzantine_f=0, byzantine_mode="adaptive"))
        assert fingerprint(spec_key(adaptive)) \
            == fingerprint(spec_key(self.SPEC))

    def test_active_budget_extends_the_key(self):
        faulted = self.SPEC.replace(faults=FaultSpec(byzantine_f=3))
        assert spec_key(faulted)["faults"] == {"byzantine_f": 3}
        assert fingerprint(spec_key(faulted)) \
            != fingerprint(spec_key(self.SPEC))


class TestLemmaA1OneShot:
    """One-shot byzantine rewrite via ``corrupt_counts``: Lemma A.1
    says the protocol re-converges to the *corrupted* total's sign."""

    def test_below_margin_rewrite_preserves_the_decision(self):
        protocol = AVCProtocol(m=7, d=1)
        initial = protocol.initial_counts(31, 20)
        state_a = protocol.initial_state(protocol.INPUT_A)
        state_b = protocol.initial_state(protocol.INPUT_B)
        corrupted = corrupt_counts(initial, remove={state_a: 3},
                                   inject={state_b: 3})
        result = CountEngine(protocol).run(corrupted, rng=7, expected=1)
        assert result.settled
        assert result.decision == 1

    def test_above_margin_rewrite_flips_the_decision(self):
        protocol = AVCProtocol(m=7, d=1)
        initial = protocol.initial_counts(31, 20)
        state_a = protocol.initial_state(protocol.INPUT_A)
        state_b = protocol.initial_state(protocol.INPUT_B)
        corrupted = corrupt_counts(initial, remove={state_a: 10},
                                   inject={state_b: 10})
        result = CountEngine(protocol).run(corrupted, rng=7, expected=1)
        assert result.settled
        assert result.decision == 0


class TestRoutingAndTelemetry:
    def test_auto_routes_byzantine_specs_to_count(self):
        spec = RunSpec(PROTOCOL, n=51, epsilon=3 / 51, seed=7,
                       faults=FaultSpec(byzantine_f=2))
        assert make_run_engine(spec).name == "count"

    @pytest.mark.parametrize("engine", ["null-skipping",
                                        "continuous-time"])
    def test_incapable_engines_rejected(self, engine):
        spec = RunSpec(PROTOCOL, n=51, epsilon=3 / 51, seed=7,
                       engine=engine, faults=FaultSpec(byzantine_f=2))
        with pytest.raises(InvalidParameterError):
            run_majority(spec)

    def test_budget_at_population_size_rejected(self):
        spec = RunSpec(PROTOCOL, n=51, epsilon=3 / 51, seed=7,
                       faults=FaultSpec(byzantine_f=51))
        with pytest.raises(InvalidParameterError, match="honest"):
            run_majority(spec)

    def test_multi_trial_auto_stays_on_the_token_ensemble(self):
        spec = RunSpec(PROTOCOL, n=51, epsilon=3 / 51, num_trials=4,
                       seed=7, faults=FaultSpec(byzantine_f=2,
                                                horizon=300))
        results = run_trials(spec)
        assert len(results) == 4
        assert all(r.fault_events["byzantine_meetings"] > 0
                   for r in results)

    def test_byzantine_counters_emitted(self):
        sink = InMemorySink()
        spec = RunSpec(PROTOCOL, n=51, epsilon=3 / 51, num_trials=3,
                       seed=7, engine="count",
                       faults=FaultSpec(byzantine_f=3, horizon=300),
                       telemetry=Telemetry([sink]))
        results = run_trials(spec)
        lies = sum(r["value"] for r in sink.records
                   if r.get("name") == "fault.byzantine_lies")
        assert lies == sum(res.fault_events["byzantine_lies"]
                           for res in results)
        assert lies > 0
