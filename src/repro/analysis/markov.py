"""Exact Markov-chain analysis of population protocols for small ``n``.

On the clique a protocol execution is a Markov chain whose states are
*configurations* (count vectors).  For small populations the reachable
configuration space is tiny, so we can compute exactly:

* expected settling times (expected hitting time of the settled set),
  by solving the linear system ``(I - Q) t = 1`` over transient
  configurations;
* settlement probabilities per decision — e.g. the *exact* error
  probability of the three-state protocol, the quantity Figure 3
  (right) estimates by simulation;
* the exact distribution of the settling step, from powers of the
  transient block ``Q``.

These exact numbers are the ground truth the simulation engines are
validated against (``tests/analysis/test_markov.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, identity
from scipy.sparse.linalg import spsolve

from ..errors import AnalysisError, InvalidParameterError
from ..protocols.base import PopulationProtocol

__all__ = ["ConfigurationChain", "ChainSummary"]

_MAX_CONFIGURATIONS = 200_000


@dataclass(frozen=True, slots=True)
class ChainSummary:
    """Exact quantities for one initial configuration."""

    expected_settling_time_steps: float
    expected_settling_time_parallel: float
    settlement_probabilities: dict
    num_reachable: int
    num_settled: int
    num_frozen_unsettled: int


class ConfigurationChain:
    """The exact configuration-space Markov chain from one start.

    Builds the reachable configuration set by BFS, classifies settled
    and frozen configurations, and exposes hitting-time and absorption
    computations.  Configurations are count tuples in protocol state
    order.
    """

    def __init__(self, protocol: PopulationProtocol, initial_counts):
        self.protocol = protocol
        initial_vector = protocol.counts_to_vector(initial_counts)
        self.n = int(initial_vector.sum())
        if self.n < 2:
            raise InvalidParameterError(
                f"population must have >= 2 agents, got {self.n}")
        self.initial = tuple(int(c) for c in initial_vector)
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _neighbors(self, config: tuple) -> dict:
        """Successor configurations with transition probabilities.

        Returns a mapping target-config -> probability, including the
        self-loop mass from null interactions.
        """
        protocol = self.protocol
        n = self.n
        total_pairs = n * (n - 1)
        result: dict[tuple, float] = {}
        for i, count_i in enumerate(config):
            if not count_i:
                continue
            for j, count_j in enumerate(config):
                weight = count_i * (count_j - (1 if i == j else 0))
                if weight <= 0:
                    continue
                new_i, new_j = protocol.transition_index(i, j)
                if (new_i, new_j) == (i, j):
                    target = config
                else:
                    mutable = list(config)
                    mutable[i] -= 1
                    mutable[j] -= 1
                    mutable[new_i] += 1
                    mutable[new_j] += 1
                    target = tuple(mutable)
                result[target] = result.get(target, 0.0) \
                    + weight / total_pairs
        return result

    def _build(self) -> None:
        protocol = self.protocol
        index_of: dict[tuple, int] = {self.initial: 0}
        configs: list[tuple] = [self.initial]
        adjacency: list[dict] = []
        settled_flags: list[bool] = []
        frontier = [self.initial]
        while frontier:
            next_frontier = []
            for config in frontier:
                settled = protocol.is_settled_vector(list(config))
                settled_flags.append(settled)
                if settled:
                    adjacency.append({config: 1.0})
                    continue
                neighbors = self._neighbors(config)
                adjacency.append(neighbors)
                for target in neighbors:
                    if target not in index_of:
                        if len(configs) >= _MAX_CONFIGURATIONS:
                            raise AnalysisError(
                                "reachable configuration space exceeds "
                                f"{_MAX_CONFIGURATIONS}; use a smaller n")
                        index_of[target] = len(configs)
                        configs.append(target)
                        next_frontier.append(target)
            frontier = next_frontier
        self.configs = configs
        self.index_of = index_of
        self._adjacency = adjacency
        self.settled = np.array(settled_flags, dtype=bool)
        # Frozen: every interaction is a self-loop but not settled.
        self.frozen_unsettled = np.array(
            [not settled_flags[k]
             and set(adjacency[k]) == {configs[k]}
             for k in range(len(configs))], dtype=bool)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_configurations(self) -> int:
        return len(self.configs)

    def _transient_system(self):
        absorbing = self.settled | self.frozen_unsettled
        transient = np.flatnonzero(~absorbing)
        position = {int(k): idx for idx, k in enumerate(transient)}
        rows, cols, values = [], [], []
        for idx, k in enumerate(transient):
            for target, probability in self._adjacency[int(k)].items():
                target_index = self.index_of[target]
                if target_index in position:
                    rows.append(idx)
                    cols.append(position[target_index])
                    values.append(probability)
        size = len(transient)
        q_matrix = csr_matrix((values, (rows, cols)), shape=(size, size))
        return transient, position, q_matrix

    def expected_settling_time(self) -> float:
        """Expected steps from the initial configuration to settlement.

        ``inf`` when a frozen non-settled configuration is reachable
        (then settlement has probability < 1 and no finite
        expectation).
        """
        if self.settled[0]:
            return 0.0
        if self.frozen_unsettled.any():
            return math.inf
        transient, position, q_matrix = self._transient_system()
        system = identity(len(transient), format="csr") - q_matrix
        times = spsolve(system.tocsc(), np.ones(len(transient)))
        return float(times[position[0]])

    def settling_step_cdf(self, t):
        """``P(settled by step t)``, exactly, at each ``t``.

        ``t`` is a step count or an array of them (interactions, not
        parallel time).  The mass still transient after ``k`` steps is
        ``e_0 Q^k``; of it, the share ``(e_0 Q^k) r`` settles at step
        ``k + 1``, where ``r`` holds each transient configuration's
        one-step probability of entering the settled set.  A reachable
        frozen deadlock never settles, so the CDF then stays below 1.
        Returns a float for a scalar ``t``, else an array shaped like
        ``t``.
        """
        steps = np.floor(np.asarray(t, dtype=float))
        horizon = int(max(steps.max(initial=0.0), 0.0))
        cdf = np.zeros(horizon + 1)
        if self.settled[0]:
            cdf[:] = 1.0
        elif not self.frozen_unsettled[0]:
            transient, position, q_matrix = self._transient_system()
            step_q = q_matrix.T.tocsr()
            settle_rate = np.zeros(len(transient))
            for idx, k in enumerate(transient):
                for target, probability in \
                        self._adjacency[int(k)].items():
                    if self.settled[self.index_of[target]]:
                        settle_rate[idx] += probability
            mass = np.zeros(len(transient))
            mass[position[0]] = 1.0
            settled = 0.0
            for k in range(1, horizon + 1):
                settled += float(mass @ settle_rate)
                cdf[k] = settled
                mass = step_q @ mass
        values = np.where(steps < 0, 0.0,
                          cdf[np.clip(steps, 0, horizon).astype(int)])
        return float(values) if values.ndim == 0 else values

    def settlement_probabilities(self) -> dict:
        """Probability of settling per decision (plus ``None`` for
        never settling via a frozen deadlock)."""
        absorbing = self.settled | self.frozen_unsettled
        outcomes: dict = {}
        outcome_of = {}
        for k in np.flatnonzero(absorbing):
            config = self.configs[int(k)]
            if self.settled[k]:
                sparse = self.protocol.vector_to_counts(list(config))
                decision = _unanimous_output(self.protocol, sparse)
            else:
                decision = None
            outcome_of[int(k)] = decision
            outcomes.setdefault(decision, 0.0)
        if self.settled[0] or self.frozen_unsettled[0]:
            outcomes[outcome_of[0]] = 1.0
            return outcomes
        transient, position, q_matrix = self._transient_system()
        system = (identity(len(transient), format="csr") - q_matrix).tocsc()
        for decision in list(outcomes):
            rhs = np.zeros(len(transient))
            for idx, k in enumerate(transient):
                for target, probability in self._adjacency[int(k)].items():
                    target_index = self.index_of[target]
                    if target_index in outcome_of \
                            and outcome_of[target_index] == decision:
                        rhs[idx] += probability
            probabilities = spsolve(system, rhs)
            outcomes[decision] = float(probabilities[position[0]])
        return outcomes

    def summary(self) -> ChainSummary:
        """All exact quantities bundled together."""
        steps = self.expected_settling_time()
        return ChainSummary(
            expected_settling_time_steps=steps,
            expected_settling_time_parallel=steps / self.n,
            settlement_probabilities=self.settlement_probabilities(),
            num_reachable=self.num_configurations,
            num_settled=int(self.settled.sum()),
            num_frozen_unsettled=int(self.frozen_unsettled.sum()),
        )


def _unanimous_output(protocol, sparse_counts):
    outputs = {protocol.output(state) for state, count in
               sparse_counts.items() if count}
    if len(outputs) != 1:
        raise AnalysisError(
            f"settled configuration {sparse_counts} lacks a unanimous "
            "output — is_settled is inconsistent")
    return outputs.pop()
