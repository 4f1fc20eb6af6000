"""Incremental convergence (settledness) tracking for engines.

Engines must notice the *first* interaction after which a run is
irrevocably converged, without paying for a full configuration scan on
every step.  Two trackers implement this:

* :class:`UnanimitySettleTracker` — O(1) per interaction.  Valid for
  protocols that declare ``unanimity_settles = True``, i.e. whose
  :meth:`~repro.protocols.base.PopulationProtocol.is_settled` is
  exactly "every agent has the same defined output" (true for AVC, the
  three- and four-state baselines, and the voter model; each protocol's
  docstring carries the absorbing-ness argument).
* :class:`GenericSettleTracker` — re-evaluates ``is_settled`` only when
  the *support* of the configuration changes.  This is exact for every
  protocol in the library because ``is_settled`` is required to be a
  function of the support alone (a documented contract, enforced by
  tests).
"""

from __future__ import annotations

import numpy as np

from ..protocols.base import PopulationProtocol

__all__ = [
    "SettleTracker",
    "UnanimitySettleTracker",
    "GenericSettleTracker",
    "make_settle_tracker",
]


class SettleTracker:
    """Interface: engines update counts, then notify the tracker."""

    def update(self, i: int, j: int, new_i: int, new_j: int) -> None:
        """Notify that one agent moved ``i -> new_i`` and one ``j -> new_j``."""
        raise NotImplementedError

    def reset(self, counts) -> None:
        """Resynchronize with a count vector changed wholesale.

        Used by the compiled loops, which hand back a whole count
        vector instead of reporting individual transitions.
        """
        raise NotImplementedError

    def shift(self, old: int, new: int) -> None:
        """Notify that one agent was rewritten ``old -> new`` (a fault)."""
        raise NotImplementedError

    def adjust(self, index: int, delta: int) -> None:
        """Notify that ``delta`` agents joined (+) or left (-) ``index``."""
        raise NotImplementedError

    def settled(self) -> bool:
        """Whether the current configuration is settled."""
        raise NotImplementedError

    def decision(self):
        """The unanimous output if settled, else ``None``."""
        raise NotImplementedError


class UnanimitySettleTracker(SettleTracker):
    """O(1) tracker counting agents per output class."""

    __slots__ = ("_outputs", "_undecided", "_zeros", "_ones")

    def __init__(self, protocol: PopulationProtocol, counts):
        self._outputs = protocol.output_array()
        self._undecided = 0
        self._zeros = 0
        self._ones = 0
        self.reset(counts)

    def reset(self, counts) -> None:
        outputs = self._outputs
        self._undecided = 0
        self._zeros = 0
        self._ones = 0
        for index, count in enumerate(counts):
            self._bump(outputs[index], int(count))

    def _bump(self, output: int, delta: int) -> None:
        if output < 0:
            self._undecided += delta
        elif output == 0:
            self._zeros += delta
        else:
            self._ones += delta

    def update(self, i: int, j: int, new_i: int, new_j: int) -> None:
        outputs = self._outputs
        self._bump(outputs[i], -1)
        self._bump(outputs[j], -1)
        self._bump(outputs[new_i], 1)
        self._bump(outputs[new_j], 1)

    def shift(self, old: int, new: int) -> None:
        outputs = self._outputs
        self._bump(outputs[old], -1)
        self._bump(outputs[new], 1)

    def adjust(self, index: int, delta: int) -> None:
        self._bump(self._outputs[index], delta)

    def settled(self) -> bool:
        if self._undecided:
            return False
        return (self._zeros == 0) != (self._ones == 0)

    def decision(self):
        if not self.settled():
            return None
        return 1 if self._ones else 0


class GenericSettleTracker(SettleTracker):
    """Exact tracker re-checking ``is_settled`` on support changes.

    Holds a live reference to the engine's count sequence; ``update``
    is called *after* the counts were mutated.
    """

    __slots__ = ("_protocol", "_counts", "_outputs", "_dirty", "_settled",
                 "_count_sensitive")

    def __init__(self, protocol: PopulationProtocol, counts):
        self._protocol = protocol
        self._counts = counts
        self._outputs = protocol.output_array()
        self._dirty = True
        self._settled = False
        self._count_sensitive = not getattr(protocol,
                                            "settled_support_only", True)

    def update(self, i: int, j: int, new_i: int, new_j: int) -> None:
        if self._count_sensitive:
            # Settledness may depend on exact counts (e.g. leader
            # election's "exactly one leader"): re-evaluate after
            # every state change.
            self._dirty = True
            return
        counts = self._counts
        # Support can only change if a touched state just vanished or
        # just appeared (count 0 after losing one / count 1 or 2 after
        # gaining, conservatively flagged).
        if (counts[i] == 0 or counts[j] == 0
                or counts[new_i] <= 2 or counts[new_j] <= 2):
            self._dirty = True

    def shift(self, old: int, new: int) -> None:
        # A fault rewrite can change the support arbitrarily.
        self._dirty = True

    def adjust(self, index: int, delta: int) -> None:
        self._dirty = True

    def reset(self, counts) -> None:
        # The live reference may have been replaced in place; any bulk
        # rewrite simply invalidates the cached verdict.
        self._counts = counts
        self._dirty = True

    def settled(self) -> bool:
        if self._dirty:
            states = self._protocol.states
            sparse = {states[k]: int(c)
                      for k, c in enumerate(self._counts) if c}
            self._settled = self._protocol.is_settled(sparse)
            self._dirty = False
        return self._settled

    def decision(self):
        if not self.settled():
            return None
        outputs = self._outputs
        seen = None
        for index, count in enumerate(self._counts):
            if not count:
                continue
            value = outputs[index]
            if value < 0:
                return None
            if seen is None:
                seen = int(value)
            elif seen != value:
                return None
        return seen


def make_settle_tracker(protocol: PopulationProtocol, counts) -> SettleTracker:
    """Pick the cheapest exact tracker for ``protocol``."""
    if getattr(protocol, "unanimity_settles", False):
        return UnanimitySettleTracker(protocol, counts)
    return GenericSettleTracker(protocol, counts)


def decision_of_counts(protocol: PopulationProtocol,
                       counts: np.ndarray):
    """Unanimous output of a dense count vector, or ``None``."""
    outputs = protocol.output_array()
    seen = None
    for index, count in enumerate(counts):
        if not count:
            continue
        value = outputs[index]
        if value < 0:
            return None
        if seen is None:
            seen = int(value)
        elif seen != value:
            return None
    return seen
