"""Vectorized (numpy) kernel for the AVC transition function.

The batch engine applies the transition to thousands of agent pairs at
once.  For protocols with small state spaces it fancy-indexes a dense
transition table, but AVC with ``s ~ n`` states would need an
``s x s`` table — far too large.  Instead this kernel evaluates
Figure 1's arithmetic directly on numpy arrays.

Internal representation per agent (two ``int64`` arrays):

* ``value`` — the signed value: ``±m .. ±3`` for strong states, ``±1``
  for intermediates, ``0`` for weak states;
* ``aux`` — disambiguation: the level ``1..d`` for intermediates, the
  sign ``±1`` for weak states, ``0`` for strong states.

The kernel's correctness is established by an exhaustive comparison
against :meth:`repro.core.avc.AVCProtocol.transition` over all state
pairs for several parameter settings (see
``tests/core/test_vectorized.py``).
"""

from __future__ import annotations

import numpy as np

from .avc import AVCProtocol

__all__ = ["AVCBatchKernel"]


class AVCBatchKernel:
    """Apply the AVC transition to arrays of state indices."""

    def __init__(self, protocol: AVCProtocol):
        # No reference back to ``protocol``: the protocol memoizes its
        # kernel, and the cycle would keep both (and the protocol's
        # memoized tables) alive until a full garbage collection.
        m, d = protocol.m, protocol.d
        self._m = m
        self._d = d

        s = protocol.num_states
        values = np.empty(s, dtype=np.int64)
        auxes = np.empty(s, dtype=np.int64)
        for index, state in enumerate(protocol.states):
            values[index] = state.value
            if state.is_intermediate:
                auxes[index] = state.level
            elif state.is_weak:
                auxes[index] = state.sign
            else:
                auxes[index] = 0
        self._values = values
        self._auxes = auxes

        # Inverse map: (value + m, aux + 1) -> state index.
        encode = np.full((2 * m + 1, d + 2), -1, dtype=np.int64)
        encode[values + m, auxes + 1] = np.arange(s, dtype=np.int64)
        self._encode = encode

    def __call__(self, index_x: np.ndarray,
                 index_y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Transition state-index arrays ``(x, y)`` pairwise."""
        d = self._d
        value_x = self._values[index_x]
        aux_x = self._auxes[index_x]
        value_y = self._values[index_y]
        aux_y = self._auxes[index_y]

        weight_x = np.abs(value_x)
        weight_y = np.abs(value_y)
        new_value_x = value_x.copy()
        new_aux_x = aux_x.copy()
        new_value_y = value_y.copy()
        new_aux_y = aux_y.copy()

        remaining = np.ones(value_x.shape, dtype=bool)

        # Rule 1: strong meets non-zero -> average, rounded outward to
        # the surrounding odd values (R_down for x, R_up for y).
        rule1 = (weight_x > 0) & (weight_y > 0) \
            & ((weight_x > 1) | (weight_y > 1))
        if rule1.any():
            total = value_x[rule1] + value_y[rule1]
            average = total >> 1  # total is even; >> floors correctly
            is_even = (average & 1) == 0
            low = np.where(is_even, average - 1, average)
            high = np.where(is_even, average + 1, average)
            new_value_x[rule1] = low
            new_value_y[rule1] = high
            new_aux_x[rule1] = np.where(np.abs(low) == 1, 1, 0)
            new_aux_y[rule1] = np.where(np.abs(high) == 1, 1, 0)
        remaining &= ~rule1

        # Rule 2: exactly one weak agent -> the weak agent adopts the
        # partner's sign; an intermediate partner drops one level.
        rule2 = remaining & ((weight_x == 0) != (weight_y == 0))
        if rule2.any():
            x_is_weak = rule2 & (weight_x == 0)
            y_is_weak = rule2 & (weight_y == 0)
            new_aux_x[x_is_weak] = np.sign(value_y[x_is_weak])
            new_aux_y[y_is_weak] = np.sign(value_x[y_is_weak])
            x_shifts = y_is_weak & (weight_x == 1) & (aux_x < d)
            y_shifts = x_is_weak & (weight_y == 1) & (aux_y < d)
            new_aux_x[x_shifts] = aux_x[x_shifts] + 1
            new_aux_y[y_shifts] = aux_y[y_shifts] + 1
        remaining &= ~rule2

        # Rules 3 and 4 both need two weight-1 agents.
        both_one = remaining & (weight_x == 1) & (weight_y == 1)

        # Rule 3: opposite signs with a level-d participant -> both
        # neutralize to the weak state of their own sign.
        rule3 = both_one & (value_x != value_y) \
            & ((aux_x == d) | (aux_y == d))
        if rule3.any():
            new_aux_x[rule3] = value_x[rule3]  # sign of a ±1 state
            new_aux_y[rule3] = value_y[rule3]
            new_value_x[rule3] = 0
            new_value_y[rule3] = 0

        # Rule 4: any other pair of weight-1 agents drop one level each
        # (Shift-to-Zero); weak-weak pairs are unchanged.
        rule4 = both_one & ~rule3
        if rule4.any():
            x_shifts = rule4 & (aux_x < d)
            y_shifts = rule4 & (aux_y < d)
            new_aux_x[x_shifts] = aux_x[x_shifts] + 1
            new_aux_y[y_shifts] = aux_y[y_shifts] + 1

        m = self._m
        encode = self._encode
        return (encode[new_value_x + m, new_aux_x + 1],
                encode[new_value_y + m, new_aux_y + 1])
