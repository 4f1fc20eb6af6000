"""Per-interaction observers: instrumenting the productive steps.

Engines notify their settledness tracker after every state-changing
interaction; :class:`ObservingTracker` piggybacks on that channel to
invoke user callbacks with the interaction's ``(i, j, new_i, new_j)``
state indices — no engine-loop changes, no overhead when unused.

:class:`RuleCensus` is the bundled observer: it tallies interactions
by rule label, and :func:`avc_rule_classifier` labels AVC interactions
with the Figure-1 rule that fired (``averaging`` / ``follow`` /
``neutralization`` / ``shift``).  The ``phases`` experiment and the
tests use it to check *which* dynamics dominate each phase of a run.

Supported on the exact sequential engines (agent, count,
null-skipping, continuous-time).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable

from ..core.avc import AVCProtocol
from .convergence import SettleTracker

__all__ = ["ObservingTracker", "RuleCensus", "avc_rule_classifier"]


class ObservingTracker(SettleTracker):
    """Wrap a tracker, forwarding every productive update to observers."""

    __slots__ = ("_inner", "_observers")

    def __init__(self, inner: SettleTracker, observers):
        self._inner = inner
        self._observers = tuple(observers)

    def update(self, i, j, new_i, new_j) -> None:
        self._inner.update(i, j, new_i, new_j)
        for observer in self._observers:
            observer(i, j, new_i, new_j)

    def shift(self, old, new) -> None:
        # Fault rewrites are not interactions; observers see only the
        # protocol's own transitions.
        self._inner.shift(old, new)

    def adjust(self, index, delta) -> None:
        self._inner.adjust(index, delta)

    def reset(self, counts) -> None:
        self._inner.reset(counts)

    def settled(self) -> bool:
        return self._inner.settled()

    def decision(self):
        return self._inner.decision()


class RuleCensus:
    """Tally productive interactions by rule label.

    ``classifier(i, j, new_i, new_j) -> str`` names the rule; counts
    are exposed as a :class:`collections.Counter` via :attr:`counts`.
    Instances are callables, usable directly as engine observers.
    """

    def __init__(self, classifier: Callable[[int, int, int, int], str]):
        self._classifier = classifier
        self.counts: Counter = Counter()

    def __call__(self, i, j, new_i, new_j) -> None:
        self.counts[self._classifier(i, j, new_i, new_j)] += 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def fractions(self) -> dict:
        """Rule mix as fractions of all productive interactions."""
        total = self.total
        if not total:
            return {}
        return {label: count / total
                for label, count in self.counts.most_common()}


def avc_rule_classifier(protocol: AVCProtocol
                        ) -> Callable[[int, int, int, int], str]:
    """Label AVC interactions with their Figure-1 rule.

    * ``averaging`` — rule 1 (a weight > 1 participant);
    * ``follow`` — rule 2 (a weak agent adopts a partner's sign);
    * ``neutralization`` — rule 3 (two weight-1 agents drop to ±0);
    * ``shift`` — rule 4 (weight-1 agents descend a level).
    """
    states = protocol.states

    def classify(i: int, j: int, new_i: int, new_j: int) -> str:
        x, y = states[i], states[j]
        if (x.weight > 0 and y.weight > 0
                and (x.weight > 1 or y.weight > 1)):
            return "averaging"
        if (x.weight == 0) != (y.weight == 0):
            return "follow"
        new_x, new_y = states[new_i], states[new_j]
        if x.weight == 1 and y.weight == 1 \
                and new_x.weight == 0 and new_y.weight == 0:
            return "neutralization"
        return "shift"

    return classify
