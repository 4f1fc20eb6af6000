"""The Average-and-Conquer (AVC) protocol — Figure 1 of the paper.

AVC solves *exact* majority: agents start at value ``+m`` (input A) or
``-m`` (input B) and repeatedly

1. **average**: whenever an agent of weight ``> 1`` meets an agent of
   weight ``> 0``, both move to the average of their values, rounded
   outward to odd integers (``R_down`` / ``R_up``);
2. **downgrade**: a weight-1 agent drifts through the ``d`` graded
   intermediate levels ``±1_1 .. ±1_d``;
3. **neutralize**: two opposite-sign weight-1 agents, one of them at
   level ``d``, both drop to weak ``±0`` states;
4. **follow**: a weak agent adopts the sign of any non-weak partner.

Every rule preserves the total signed value (Invariant 4.3), which is
``eps * m * n`` initially — so the initial minority sign can never take
over the whole population, and the protocol has zero error
probability.  With ``s = m + 2d + 1`` states the expected parallel
convergence time is ``O(log n / (s * eps) + log n log s)``
(Theorem 4.1): poly-logarithmic whenever ``s >= 1/eps``.

The transition implemented here follows the paper's pseudocode
line-by-line; the one *presentation* choice we make is in rule 3, where
the pseudocode assigns the literal pair ``(-0, +0)`` and we assign each
agent the weak state of *its own* sign — the resulting unordered pair
(one ``+0``, one ``-0``) is identical, so the induced Markov chain on
configurations is exactly the paper's.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from ..errors import InvalidStateError
from ..protocols.base import MAJORITY_A, MAJORITY_B, MajorityProtocol
from .params import AVCParams
from .states import (
    AVCState,
    enumerate_states,
    phi,
    round_down,
    round_up,
    shift_to_zero,
    sign_to_zero,
    strong_state,
)

__all__ = ["AVCProtocol"]


class AVCProtocol(MajorityProtocol):
    """Average-and-Conquer exact majority with parameters ``(m, d)``.

    ``AVCProtocol(m=1, d=1)`` has four states and coincides with the
    four-state protocol of [DV12, MNRS14]; larger ``m`` buys speed.
    Use :meth:`with_num_states` to pick ``m`` from a target state
    count ``s`` (the paper's experiments sweep ``s``).
    """

    unanimity_settles = True

    def __init__(self, m: int = 1, d: int = 1, *,
                 params: AVCParams | None = None):
        self.params = params if params is not None else AVCParams(m=m, d=d)
        self.name = f"avc(m={self.params.m},d={self.params.d})"

    @classmethod
    def with_num_states(cls, s: int, d: int = 1) -> "AVCProtocol":
        """AVC with exactly ``s`` states (``m = s - 2d - 1``)."""
        return cls(params=AVCParams.from_num_states(s, d))

    @property
    def m(self) -> int:
        """Maximum weight (initial value magnitude)."""
        return self.params.m

    @property
    def d(self) -> int:
        """Number of graded intermediate levels."""
        return self.params.d

    def enumerate_states(self) -> tuple[AVCState, ...]:
        return enumerate_states(self.params)

    def initial_state(self, symbol: str) -> AVCState:
        if symbol == self.INPUT_A:
            value = self.params.m
        elif symbol == self.INPUT_B:
            value = -self.params.m
        else:
            raise ValueError(f"unknown input symbol {symbol!r}")
        mapped = phi(value)
        if isinstance(mapped, AVCState):
            return mapped  # m == 1: inputs start in the ±1_1 states
        return strong_state(mapped)

    # ------------------------------------------------------------------
    # The update rule (Figure 1, lines 11-19)
    # ------------------------------------------------------------------

    def transition(self, x: AVCState, y: AVCState) -> tuple[AVCState, AVCState]:
        d = self.params.d
        weight_x, weight_y = x.weight, y.weight

        # Rule 1 (line 11): strong meets non-zero -> average the values.
        # Both values are odd, so their sum is even and the average is
        # an exact integer; R_down / R_up split an even average into
        # the surrounding odd pair and map ±1 to the ±1_1 states.
        if weight_x > 0 and weight_y > 0 and (weight_x > 1 or weight_y > 1):
            average = (x.value + y.value) // 2
            return round_down(average), round_up(average)

        # Rule 2 (lines 12-14): zero meets non-zero -> the weak agent
        # adopts the partner's sign; an intermediate partner pays one
        # level (Shift-to-Zero), a strong partner is unchanged.
        if (weight_x == 0) != (weight_y == 0):
            if weight_x != 0:
                return shift_to_zero(x, d), sign_to_zero(x)
            return sign_to_zero(y), shift_to_zero(y, d)

        # Rule 3 (lines 15-17): two opposite-sign weight-1 agents, at
        # least one at the last level d -> both neutralize to weak
        # states (one +0, one -0).
        if (weight_x == 1 and weight_y == 1 and x.sign != y.sign
                and (x.level == d or y.level == d)):
            return sign_to_zero(x), sign_to_zero(y)

        # Rule 4 (lines 18-19): remaining cases — two weight-1 agents
        # below level d (opposite or equal signs) each drop a level;
        # two weak agents are unchanged (Shift-to-Zero is the identity
        # on them).
        return shift_to_zero(x, d), shift_to_zero(y, d)

    def _build_batch_kernel(self):
        """Arithmetic numpy kernel (no ``s x s`` table needed)."""
        from .vectorized import AVCBatchKernel

        return AVCBatchKernel(self)

    def _transition_rows(self, start, stop):
        """Rows ``start:stop`` of the dense table, from the kernel.

        Identical to the per-pair fill (pinned by
        ``tests/core/test_vectorized.py``) at a fraction of its cost:
        the n = 1001 point of Figure 3 has about 10^6 state pairs.
        """
        s = self.num_states
        rows = np.repeat(np.arange(start, stop, dtype=np.int64), s)
        columns = np.tile(np.arange(s, dtype=np.int64), stop - start)
        new_x, new_y = self.make_batch_kernel()(rows, columns)
        return (new_x.reshape(stop - start, s),
                new_y.reshape(stop - start, s))

    # ------------------------------------------------------------------
    # Outputs and convergence
    # ------------------------------------------------------------------

    def output(self, state: AVCState):
        return MAJORITY_A if state.sign > 0 else MAJORITY_B

    def is_settled(self, counts: Mapping[AVCState, int]) -> bool:
        """Settled iff every agent carries the same sign.

        Lemma A.1: once all signs agree they agree in every reachable
        configuration — rule 1 averages two same-sign values to a
        nonzero value of that sign, rules 2-4 only copy or keep signs,
        and neutralization (rule 3) needs opposite signs.  While both
        signs are present the outputs disagree, so the predicate is
        exact.
        """
        seen_sign = 0
        for state, count in counts.items():
            if not count:
                continue
            if seen_sign == 0:
                seen_sign = state.sign
            elif state.sign != seen_sign:
                return False
        return seen_sign != 0

    # ------------------------------------------------------------------
    # Invariant helpers (used by tests and analysis)
    # ------------------------------------------------------------------

    def total_value(self, counts: Mapping[AVCState, int]) -> int:
        """The conserved quantity of Invariant 4.3: sum of all values."""
        return sum(state.value * count for state, count in counts.items())

    def state_from_value(self, value: int, level: int = 1) -> AVCState:
        """The state encoding ``value`` (intermediates at ``level``).

        Weak states are not addressable by value (both encode 0); use
        :func:`repro.core.states.weak_state` for those.
        """
        if value == 0:
            raise InvalidStateError(
                "value 0 is ambiguous (+0 vs -0); use weak_state()")
        if abs(value) == 1:
            return AVCState(sign=value, weight=1, level=level)
        return strong_state(value)
