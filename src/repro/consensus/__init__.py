"""Round-based synchronous message-passing consensus.

The population-protocol engines model anonymous agents meeting
pairwise; this subpackage models the *other* classical distributed
computing arena the byzantine literature lives in: ``n`` named
servers proceeding in synchronous rounds, each round broadcasting a
value and collecting everyone else's, with up to ``f`` byzantine
servers sending adversary-controlled values.

* :mod:`repro.consensus.algorithms` — the protocol layer: a
  :class:`ConsensusProtocol` base (a ``MajorityProtocol`` flagged
  ``is_round_based``) plus two exemplar algorithms, Ben-Or's
  randomized binary consensus and a deterministic epsilon-agreement
  averaging algorithm.
* :mod:`repro.consensus.rounds` — the :class:`RoundsEngine` driving
  whole rounds instead of pairwise interactions, registered in the
  engine registry as ``"rounds"`` (``"auto"`` routes
  round-based protocols there).

Both algorithms are addressable through :class:`~repro.sim.run.RunSpec`
by registry name (``"ben-or"``, ``"epsilon-agreement"``), serialize
over the HTTP wire form, and cache/resume through the run store like
any population protocol.
"""

from .algorithms import (
    BenOrConsensus,
    ConsensusProtocol,
    EpsilonAgreementConsensus,
    RoundsOutcome,
)
from .rounds import DEFAULT_MAX_ROUNDS, RoundsEngine

__all__ = [
    "ConsensusProtocol",
    "BenOrConsensus",
    "EpsilonAgreementConsensus",
    "RoundsOutcome",
    "RoundsEngine",
    "DEFAULT_MAX_ROUNDS",
]
