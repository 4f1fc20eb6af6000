"""What is left of the pre-RunSpec keyword API: nothing but its streams.

``run``/``run_majority``/``run_trials``/``run_trials_parallel`` take a
:class:`repro.RunSpec` and nothing else.  The seed-7 values below were
produced by the removed keyword forms; the spec forms must keep
drawing exactly that randomness, so callers who migrated see zero
result drift.
"""

import pytest

from repro import (
    FourStateProtocol,
    InvalidParameterError,
    RunSpec,
    ThreeStateProtocol,
    run,
    run_majority,
    run_trials,
)
from repro.sim.parallel import run_trials_parallel


class TestEveryLegacyFormWarns:
    def test_spec_form_does_not_warn(self, recwarn):
        run_majority(RunSpec(FourStateProtocol(), n=21, epsilon=1 / 21,
                             seed=0))
        assert not [w for w in recwarn
                    if issubclass(w.category, DeprecationWarning)]


class TestLegacyFormValidation:
    def test_unknown_kwarg_is_type_error(self):
        with pytest.raises(TypeError, match="RunSpec"):
            run_majority(FourStateProtocol(), n=21, epsilon=1 / 21,
                         sead=0)

    def test_seed_and_rng_exclusive(self, rng):
        spec = RunSpec(FourStateProtocol(), n=11, epsilon=1 / 11, seed=1)
        with pytest.raises(InvalidParameterError, match="spec.replace"):
            run_majority(spec, rng=rng)

    def test_legacy_rng_form_runs(self, rng):
        result = run_majority(RunSpec(FourStateProtocol(), n=21,
                                      epsilon=1 / 21, seed=rng))
        assert result.settled

    def test_input_validation_still_applies(self):
        with pytest.raises(InvalidParameterError):
            run_majority(RunSpec(FourStateProtocol(), n=10, epsilon=0.2,
                                 count_a=5, count_b=5))


class TestSeed7BitIdentity:
    """The spec forms draw the randomness the keyword forms drew."""

    def test_run_majority(self):
        result = run_majority(RunSpec(FourStateProtocol(), n=31,
                                      epsilon=3 / 31, seed=7))
        assert (result.steps, result.decision) == (792, 1)
        assert dict(result.final_counts) == {"+1": 3, "+0": 28}

    def test_run(self):
        result = run(RunSpec(ThreeStateProtocol(),
                             initial={"A": 18, "B": 13}, seed=7))
        assert (result.steps, result.decision) == (302, 0)
        assert dict(result.final_counts) == {"B": 31}

    def test_run_trials(self):
        results = run_trials(RunSpec(ThreeStateProtocol(), num_trials=5,
                                     seed=7, n=31, epsilon=3 / 31))
        assert [(r.steps, r.decision) for r in results] == [
            (293, 1), (110, 1), (306, 1), (182, 1), (215, 0)]

    def test_run_trials_parallel(self):
        results = run_trials_parallel(
            RunSpec(ThreeStateProtocol(), num_trials=4, seed=7, n=31,
                    epsilon=3 / 31), processes=2)
        assert [(r.steps, r.decision) for r in results] == [
            (293, 1), (110, 1), (306, 1), (182, 1)]
