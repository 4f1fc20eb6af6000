"""Round-based consensus algorithms over binary inputs.

The model: ``n`` servers, of which ``f`` are byzantine, proceed in
synchronous rounds.  Every round each server broadcasts a value and
receives all ``n`` broadcasts (its own included); honest servers then
apply the algorithm's round update.  Byzantine servers send
adversary-controlled values and never update honestly.  Two adversary
modes mirror :class:`repro.FaultSpec`'s byzantine modes:

* ``"stubborn"`` — every byzantine server sends the fixed minority
  input value to every recipient, every round;
* ``"adaptive"`` — the adversary reads the live honest state each
  round and picks the most damaging value, per recipient where the
  algorithm makes that meaningful (equivocation).

The adversary also chooses *which* servers to corrupt: majority-input
servers first, weakening the initial margin maximally.

Both algorithms expose the same entry point,
:meth:`ConsensusProtocol.simulate_rounds`, consumed by
:class:`repro.consensus.rounds.RoundsEngine`.  The pairwise
``transition`` inherited from :class:`PopulationProtocol` is the
identity — round-based protocols have no pairwise dynamics — and the
engine registry refuses to run them on population engines (``"auto"``
routes them to ``"rounds"``).

References: Ben-Or's free-choice protocol (PODC 1983) for the
randomized binary consensus, and the Dolev–Lynch–Pinter–Stark–Weihl
approximate agreement scheme (JACM 1986) for the trimmed-averaging
epsilon-agreement algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidParameterError
from ..protocols.base import (
    MAJORITY_A,
    MAJORITY_B,
    MajorityProtocol,
    State,
)

__all__ = [
    "ConsensusProtocol",
    "BenOrConsensus",
    "EpsilonAgreementConsensus",
    "RoundsOutcome",
]

_STATES = ("A", "B")


@dataclass(frozen=True)
class RoundsOutcome:
    """What one round-based execution produced.

    ``rounds`` is the number of completed rounds; ``settled`` means all
    honest servers terminated in agreement; ``decision`` maps the
    agreed value onto the majority outputs (``1`` for A / value 1,
    ``0`` for B / value 0, ``None`` when unsettled or exactly
    balanced).  ``final_counts`` buckets all ``n`` servers (byzantine
    ones at their last presented value) into the two input states.
    ``lies`` counts lying messages delivered to honest servers;
    ``broadcasts`` counts the broadcast phases executed.
    """

    rounds: int
    settled: bool
    decision: int | None
    final_counts: dict
    lies: int
    broadcasts: int


class ConsensusProtocol(MajorityProtocol):
    """Base class for round-based message-passing consensus protocols.

    Binary inputs ride the standard majority-input forms (``n`` +
    ``epsilon``, or explicit ``count_a`` / ``count_b``): input A is
    value 1, input B is value 0, and the goal decision is the majority
    input value.  Subclasses implement :meth:`simulate_rounds`.
    """

    #: Routed to the rounds engine by ``"auto"``; population
    #: engines reject round-based protocols at creation.
    is_round_based = True
    unanimity_settles = False

    def enumerate_states(self):
        return _STATES

    def initial_state(self, symbol: str) -> State:
        if symbol in _STATES:
            return symbol
        raise ValueError(f"unknown input symbol {symbol!r}")

    def transition(self, x: State, y: State) -> tuple[State, State]:
        # Round-based protocols have no pairwise dynamics; the identity
        # keeps the PopulationProtocol interface total.
        return x, y

    def output(self, state: State):
        return MAJORITY_A if state == "A" else MAJORITY_B

    def is_settled(self, counts) -> bool:
        a = counts.get("A", 0)
        b = counts.get("B", 0)
        return (a == 0) != (b == 0)

    # ------------------------------------------------------------------
    # The round-based contract
    # ------------------------------------------------------------------

    def simulate_rounds(self, count_a: int, count_b: int, *, f: int,
                        mode: str, expected: int | None, rng,
                        max_rounds: int) -> RoundsOutcome:
        """Run one execution: ``count_a + count_b`` servers, ``f`` byzantine.

        ``mode`` is ``"stubborn"`` or ``"adaptive"`` (ignored when
        ``f == 0``); ``expected`` is the majority outcome the stubborn
        lie is aimed against.  ``rng`` is a numpy ``Generator``;
        deterministic algorithms simply never draw from it.
        """
        raise NotImplementedError

    # Helpers shared by the concrete algorithms -------------------------

    @staticmethod
    def _corrupt(count_a: int, count_b: int, f: int,
                 expected: int | None) -> tuple[int, int]:
        """Honest ``(ones, zeros)`` after the adversary picks victims.

        The adversary corrupts majority-input servers first — the
        choice that weakens the initial margin most.  With no expected
        majority (a tie) it splits its budget evenly.
        """
        if expected == MAJORITY_A:
            take_a = min(f, count_a)
        elif expected == MAJORITY_B:
            take_a = f - min(f, count_b)
        else:
            take_a = min((f + 1) // 2, count_a)
        take_a = max(take_a, f - count_b)  # spill when one side runs dry
        take_b = f - take_a
        return count_a - take_a, count_b - take_b

    @staticmethod
    def _stubborn_lie(expected: int | None) -> int:
        """The fixed lie value: the minority input (B when expected is
        A or unknown — matching the population engines' fallback)."""
        return 1 if expected == MAJORITY_B else 0


class BenOrConsensus(ConsensusProtocol):
    """Ben-Or's randomized binary byzantine consensus (PODC 1983).

    Each round has two broadcast phases.  Phase 1: servers broadcast
    their current value; a server seeing some value ``v`` on strictly
    more than ``(n + f) / 2`` broadcasts *proposes* ``v``, otherwise
    proposes nothing.  Phase 2: servers broadcast proposals; on more
    than ``(n + f) / 2`` matching proposals a server *decides* ``v``,
    on more than ``f`` it adopts ``v``, and otherwise it flips an
    independent fair coin.  Byzantine servers broadcast the adversary
    value in both phases.  Agreement and termination hold with
    probability 1 when ``n > 3f``; the adaptive majority-flipper
    saturates that bound by always supporting the trailing value.

    Since every server receives every broadcast, honest servers share
    one view and the deterministic branches act in lockstep; only the
    coin flips are per-server.
    """

    name = "ben-or"

    def simulate_rounds(self, count_a, count_b, *, f, mode, expected,
                        rng, max_rounds):
        n = count_a + count_b
        ones, zeros = self._corrupt(count_a, count_b, f, expected)
        h = ones + zeros  # honest servers
        stubborn_lie = self._stubborn_lie(expected)
        threshold = (n + f) / 2.0

        x = np.zeros(h, dtype=np.int64)
        x[:ones] = 1
        rounds = 0
        lies = 0
        broadcasts = 0
        byz = stubborn_lie
        while rounds < max_rounds:
            rounds += 1
            ones_now = int(x.sum())
            if f:
                if mode == "adaptive":
                    # Support the trailing value to stall agreement.
                    if 2 * ones_now < h:
                        byz = 1
                    elif 2 * ones_now > h:
                        byz = 0
                    else:
                        byz = stubborn_lie
                lies += 2 * f * h
            broadcasts += 2
            # Phase 1: value counts, identical at every honest server.
            c1 = ones_now + (f if byz == 1 else 0)
            c0 = (h - ones_now) + (f if byz == 0 else 0)
            if c1 > threshold:
                proposal = 1
            elif c0 > threshold:
                proposal = 0
            else:
                proposal = None
            # Phase 2: proposal counts.
            p1 = (h if proposal == 1 else 0) + (f if byz == 1 else 0)
            p0 = (h if proposal == 0 else 0) + (f if byz == 0 else 0)
            if p1 > threshold or p0 > threshold:
                decision = 1 if p1 > threshold else 0
                return RoundsOutcome(
                    rounds=rounds, settled=True, decision=decision,
                    final_counts=self._buckets(h if decision else 0,
                                               h - (h if decision else 0),
                                               f, byz),
                    lies=lies, broadcasts=broadcasts)
            if p1 > f:
                x[:] = 1
            elif p0 > f:
                x[:] = 0
            else:
                x = (rng.random(h) < 0.5).astype(np.int64)
        ones_now = int(x.sum())
        return RoundsOutcome(
            rounds=rounds, settled=False, decision=None,
            final_counts=self._buckets(ones_now, h - ones_now, f, byz),
            lies=lies, broadcasts=broadcasts)

    @staticmethod
    def _buckets(ones, zeros, f, byz) -> dict:
        counts = {}
        a = ones + (f if byz == 1 else 0)
        b = zeros + (f if byz == 0 else 0)
        if a:
            counts["A"] = a
        if b:
            counts["B"] = b
        return counts


class EpsilonAgreementConsensus(ConsensusProtocol):
    """Deterministic approximate agreement by trimmed averaging.

    Servers hold reals in ``[0, 1]`` (input A starts at 1.0, B at
    0.0).  Each round every server broadcasts its value, sorts the
    ``n`` received values, discards the ``f`` lowest and ``f``
    highest, and adopts the mean of the rest — the JACM 1986
    approximate-agreement scheme with a mean in place of the midpoint,
    so the ``f = 0`` fixed point is the honest average and the decision
    threshold ``1/2`` recovers exact majority.  Honest servers
    terminate when their value spread is at most ``epsilon_agree``;
    the decision is the side of ``1/2`` the common value lies on.

    The stubborn adversary sends one fixed extreme to everyone — which
    trimming absorbs entirely.  The adaptive adversary *equivocates*:
    each recipient gets ``f`` copies of whichever extreme pushes it
    away from the honest median, the spread-maximizing choice.
    Convergence (halving per round) holds when ``n > 3f``.
    """

    name = "epsilon-agreement"

    def __init__(self, epsilon_agree: float = 0.05):
        if not 0.0 < epsilon_agree < 1.0:
            raise InvalidParameterError(
                f"epsilon_agree must be in (0, 1), got {epsilon_agree}")
        self.epsilon_agree = float(epsilon_agree)

    def simulate_rounds(self, count_a, count_b, *, f, mode, expected,
                        rng, max_rounds):
        n = count_a + count_b
        if 2 * f >= n:
            raise InvalidParameterError(
                f"epsilon-agreement trims 2f of the n received values "
                f"per round and requires n > 2f; got n={n}, f={f}")
        ones, zeros = self._corrupt(count_a, count_b, f, expected)
        h = ones + zeros
        stubborn_value = float(self._stubborn_lie(expected))
        eps = self.epsilon_agree

        x = np.zeros(h, dtype=np.float64)
        x[:ones] = 1.0
        rounds = 0
        lies = 0
        broadcasts = 0
        while float(x.max() - x.min()) > eps and rounds < max_rounds:
            rounds += 1
            broadcasts += 1
            lies += f * h
            sorted_honest = np.sort(x)
            if f == 0:
                x[:] = sorted_honest.mean()
                continue
            # With every byzantine server sending one extreme to a
            # given recipient, the trimmed multiset is a contiguous
            # slice of the sorted honest values: f byzantine zeros
            # displace the f highest honest values (and vice versa).
            pulled_down = float(sorted_honest[:h - f].mean())
            pulled_up = float(sorted_honest[f:].mean())
            if mode == "adaptive":
                # Equivocate: pull the lower half of the honest
                # ranking further down and the upper half further up —
                # the spread-maximizing per-recipient choice.
                order = np.argsort(x, kind="stable")
                low_half = np.zeros(h, dtype=bool)
                low_half[order[:h // 2]] = True
                x = np.where(low_half, pulled_down, pulled_up)
            else:
                x[:] = pulled_down if stubborn_value == 0.0 else pulled_up
        settled = float(x.max() - x.min()) <= eps
        value = float(x.mean())
        if not settled:
            decision = None
        elif value > 0.5:
            decision = 1
        elif value < 0.5:
            decision = 0
        else:
            decision = None  # exactly balanced
        near_one = int((x > 0.5).sum())
        byz_value = (stubborn_value if mode == "stubborn" or f == 0
                     else 1.0 - round(value))
        counts = {}
        a = near_one + (f if byz_value > 0.5 else 0)
        b = (h - near_one) + (f if byz_value <= 0.5 else 0)
        if a:
            counts["A"] = a
        if b:
            counts["B"] = b
        return RoundsOutcome(
            rounds=rounds, settled=settled, decision=decision,
            final_counts=counts, lies=lies, broadcasts=broadcasts)
