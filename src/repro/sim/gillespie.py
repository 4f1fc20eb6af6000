"""Null-skipping (Gillespie-style) engines for small state spaces.

Late in a majority computation almost every scheduled interaction is a
*null* interaction (both agents keep their states): e.g. in the
four-state protocol at margin ``eps = 1/n``, convergence takes
``Theta(n)`` parallel time — ``Theta(n^2)`` interactions — but only
``O(n log n)`` of them change anything.  This engine never simulates
the null steps: it computes the total rate ``W`` of *productive*
ordered state pairs, draws the number of null steps to skip from the
geometric distribution with success probability ``W / (n(n-1))``, then
picks a productive pair with probability proportional to its count
product.  The resulting step-indexed process is *exactly* the chain of
the agent engine; each productive event costs ``O(P)`` where ``P <=
s^2`` is the number of productive ordered state pairs — so this is the
engine of choice for the 3/4-state baselines at ``n = 10^5``.

:class:`ContinuousTimeEngine` additionally tracks the Poisson-clock
time of the continuous model used by [PVV09, DV12]: every agent
initiates interactions at rate 1, so inter-interaction times are
exponential with mean ``1/n``, and the time skipped over ``k`` steps is
``Gamma(k, 1/n)``.  Parallel time and continuous time agree in
expectation; the continuous engine samples the actual clock.

With a usable compiled backend (:mod:`repro.sim.kernels`) the whole
trial loop runs in one kernel call, drawing through numpy's own
geometric, gamma and bounded-integer samplers on the same generator,
so it returns the Python loop's results and leaves the generator in
the same state.  Runs with a recorder, an event observer or a
count-sensitive protocol's generic tracker keep the Python loop.
"""

from __future__ import annotations

import numpy as np

from ..errors import ProtocolError
from . import kernels
from .convergence import UnanimitySettleTracker
from .engine import Engine, check_budget_sanity

__all__ = ["NullSkippingEngine", "ContinuousTimeEngine"]

#: Beyond this many states the per-event O(s^2) scan stops paying off
#: against the count engine's O(log s) per raw step.
_MAX_STATES = 128


class NullSkippingEngine(kernels._KernelTablesMixin, Engine):
    """Exact simulation that analytically skips null interactions."""

    name = "null-skipping"
    _track_time = False

    def __init__(self, protocol):
        super().__init__(protocol)
        if protocol.num_states > _MAX_STATES:
            raise ProtocolError(
                f"{protocol.name} has {protocol.num_states} states; the "
                f"null-skipping engine supports at most {_MAX_STATES} "
                "(use CountEngine instead)")

    def _productive_pairs(self):
        """All ordered state pairs whose transition changes something."""
        lookup = self._transition_lookup()
        s = self.protocol.num_states
        pairs = []
        for i in range(s):
            for j in range(s):
                new_i, new_j = lookup(i, j)
                if (new_i, new_j) != (i, j):
                    pairs.append((i, j, new_i, new_j))
        return pairs

    def _simulate(self, counts, n, rng, max_steps, tracker, recorder):
        check_budget_sanity(max_steps)
        # The backend loads on the first run, not at construction.
        if (recorder is None
                and type(tracker) is UnanimitySettleTracker
                and n <= kernels.MAX_KERNEL_N
                and kernels.default_backend() is not None):
            return self._simulate_compiled(counts, n, rng, max_steps,
                                           tracker)
        pairs = self._productive_pairs()
        total_pairs = n * (n - 1)
        inv_n = 1.0 / n

        steps = 0
        productive = 0
        elapsed = 0.0
        weights = [0] * len(pairs)
        while True:
            total_weight = 0
            for k, (i, j, _, _) in enumerate(pairs):
                count_i = counts[i]
                if i == j:
                    w = count_i * (count_i - 1)
                else:
                    w = count_i * counts[j]
                weights[k] = w
                total_weight += w
            if total_weight == 0:
                # No state-changing interaction is possible, ever: the
                # run is frozen (settled or deadlocked as-is).
                time_value = elapsed if self._track_time else None
                return steps, productive, True, time_value
            success_probability = total_weight / total_pairs
            skip = int(rng.geometric(success_probability))
            if steps + skip > max_steps:
                remaining = max_steps - steps
                if self._track_time and remaining > 0:
                    elapsed += float(rng.gamma(remaining, inv_n))
                time_value = elapsed if self._track_time else None
                return max_steps, productive, False, time_value
            steps += skip
            if self._track_time:
                elapsed += float(rng.gamma(skip, inv_n))
            productive += 1

            # total_weight ~ n(n-1): force int64 so the draw cannot
            # overflow on platforms where the default integer is 32-bit.
            target = int(rng.integers(0, total_weight, dtype=np.int64))
            accumulator = 0
            for k, weight in enumerate(weights):
                accumulator += weight
                if target < accumulator:
                    i, j, new_i, new_j = pairs[k]
                    break
            counts[i] -= 1
            counts[j] -= 1
            counts[new_i] += 1
            counts[new_j] += 1
            tracker.update(i, j, new_i, new_j)
            if recorder is not None:
                recorder.maybe_record(steps, counts)
            if tracker.settled():
                time_value = elapsed if self._track_time else None
                return steps, productive, False, time_value

    def _simulate_compiled(self, counts, n, rng, max_steps, tracker):
        """The Python loop above in one kernel call: the same draws
        from ``rng``, the same result."""
        ptab, cls = self._kernel_tables()
        pairs = getattr(self, "_productive_flat", None)
        if pairs is None:
            # Flat i * s + j indices, i-major like _productive_pairs.
            pairs = np.flatnonzero((ptab >> 32) & 1).astype(np.int64)
            self._productive_flat = pairs
        vec = np.array(counts, dtype=np.int64)
        steps, productive, frozen, elapsed = kernels.load().null_skip_run(
            rng, vec, n, max_steps, self._track_time, ptab, cls, pairs)
        counts[:] = vec.tolist()
        tracker.reset(counts)
        return (steps, productive, frozen,
                elapsed if self._track_time else None)


class ContinuousTimeEngine(NullSkippingEngine):
    """Null-skipping engine under the continuous-time Poisson model.

    Results carry :attr:`~repro.sim.results.RunResult.continuous_time`;
    ``parallel_time`` reports the sampled clock instead of
    ``steps / n``.
    """

    name = "continuous-time"
    _track_time = True
