"""Engine base class and the shared run-loop plumbing.

All engines simulate the same process — the discrete-time uniform
random pairwise-interaction model of Section 2 of the paper — and
expose one entry point::

    engine = CountEngine(protocol)
    result = engine.run(initial_counts, rng=0)

``run`` executes until the configuration *settles* (see
:mod:`repro.sim.convergence`) or the interaction budget runs out, and
returns a :class:`~repro.sim.results.RunResult` whose ``steps`` is the
index of the settling interaction.

The engines differ only in their data structures and therefore their
performance envelopes:

=====================  ===============================  ==================
engine                 cost per interaction              sweet spot
=====================  ===============================  ==================
AgentEngine            O(1), explicit agents            small n, any graph
CountEngine            O(log s), count vector           exact, large n
NullSkippingEngine     O(s^2) per *productive* step      small s, huge n
ContinuousTimeEngine   as NullSkipping + clock           Poisson model
EnsembleEngine         O(1) amortized over T trials     exact multi-trial
CountEnsembleEngine    collision-bounded batches of T    exact multi-trial,
                       trials                            large n
=====================  ===============================  ==================

All of them sample *exactly* the same Markov chain (the ensemble
engines advance T independent trials per vectorized step; see their
module docstrings).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections.abc import Mapping

from ..errors import (
    ConvergenceTimeout,
    InvalidParameterError,
    SimulationError,
)
from ..faults import active_faults
from ..protocols.base import PopulationProtocol, State
from ..rng import ensure_rng
from ..telemetry.context import current as current_telemetry
from .convergence import make_settle_tracker
from .results import RunResult

__all__ = ["Engine", "DEFAULT_MAX_PARALLEL_TIME"]

#: Default interaction budget, expressed in parallel time.  Generous:
#: the paper's slowest configuration (four-state at eps = 1/n) tops out
#: around 10^6 parallel time in Figure 3.
DEFAULT_MAX_PARALLEL_TIME = 4.0e6


class Engine(ABC):
    """Base class for simulation engines.

    Subclasses implement :meth:`_simulate`; the base class handles
    validation, budget resolution, convergence bookkeeping, and result
    assembly.
    """

    name = "engine"

    #: Whether the engine implements :meth:`_simulate_faulted`.
    supports_faults = False
    #: Whether the engine honours adversarial pair schedulers
    #: (``FaultSpec.scheduler``); only the agent engine does.
    supports_fault_scheduler = False
    #: Whether the engine injects byzantine lies
    #: (``FaultSpec.byzantine_f``); the count, agent, and token
    #: ensemble paths do.
    supports_byzantine = False

    def __init__(self, protocol: PopulationProtocol):
        self.protocol = protocol

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, initial_counts: Mapping[State, int], *,
            rng=None,
            max_steps: int | None = None,
            max_parallel_time: float | None = None,
            expected: int | None = None,
            recorder=None,
            event_observer=None,
            faults=None,
            on_timeout: str = "return") -> RunResult:
        """Simulate one execution from ``initial_counts``.

        Parameters
        ----------
        initial_counts:
            Mapping from protocol states to agent counts.
        rng:
            Seed material accepted by :func:`repro.rng.ensure_rng`.
        max_steps / max_parallel_time:
            Interaction budget; at most one may be given.  The default
            is :data:`DEFAULT_MAX_PARALLEL_TIME` parallel time units.
        expected:
            The correct output for this input, recorded in the result
            (``run_majority`` fills it in automatically).
        recorder:
            Optional trajectory recorder (:mod:`repro.sim.record`).
        event_observer:
            Optional callable (or sequence of callables)
            ``(i, j, new_i, new_j)`` invoked on every state-changing
            interaction (see :mod:`repro.sim.observers`).
        faults:
            Optional :class:`repro.FaultSpec` injecting state
            corruption, churn, interaction faults, or an adversarial
            scheduler (see :mod:`repro.faults`).  A ``None`` or null
            spec runs the clean, bit-identical fast path.  Raises
            :class:`~repro.errors.InvalidParameterError` on engines
            without fault support (the analytic null-skipping family).
        on_timeout:
            ``"return"`` (default) hands back an unsettled
            :class:`RunResult` when the budget runs out; ``"raise"``
            raises :class:`~repro.errors.ConvergenceTimeout` with that
            result attached.  Frozen runs (provably never settling)
            are never treated as timeouts.
        """
        if on_timeout not in ("return", "raise"):
            raise InvalidParameterError(
                f"on_timeout must be 'return' or 'raise', got "
                f"{on_timeout!r}")
        counts = self.protocol.counts_to_vector(initial_counts)
        n = int(counts.sum())
        if n < 2:
            raise InvalidParameterError(
                f"population must have at least 2 agents, got {n}")
        budget = self._resolve_budget(n, max_steps, max_parallel_time)
        generator = ensure_rng(rng)

        runtime = None
        active = active_faults(faults)
        if active is not None:
            if not self.supports_faults:
                raise InvalidParameterError(
                    f"engine {self.name!r} does not support fault "
                    "injection; use the agent, count, ensemble or "
                    "count-ensemble engine")
            from ..faults import FaultRuntime

            runtime = FaultRuntime.build(
                active, self.protocol, expected=expected,
                scheduler_ok=self.supports_fault_scheduler,
                byzantine_ok=self.supports_byzantine, n=n)

        count_list = [int(c) for c in counts]
        tracker = make_settle_tracker(self.protocol, count_list)
        if event_observer is not None:
            from .observers import ObservingTracker

            observers = (event_observer if isinstance(event_observer,
                                                      (list, tuple))
                         else (event_observer,))
            tracker = ObservingTracker(tracker, observers)
        if recorder is not None:
            recorder.maybe_record(0, count_list)

        # Telemetry is aggregate-only: nothing is recorded inside
        # _simulate; one enabled check here is the entire disabled cost.
        telemetry = current_telemetry()
        started = time.perf_counter() if telemetry.enabled else 0.0

        if tracker.settled() and (runtime is None
                                  or runtime.hold_until == 0):
            steps, productive, frozen, extra_time = 0, 0, False, None
        elif runtime is not None:
            steps, productive, frozen, extra_time = self._simulate_faulted(
                count_list, n, generator, budget, tracker, recorder,
                runtime)
        else:
            steps, productive, frozen, extra_time = self._simulate(
                count_list, n, generator, budget, tracker, recorder)

        if telemetry.enabled:
            self._emit_run_telemetry(telemetry,
                                     time.perf_counter() - started,
                                     n, steps, productive,
                                     tracker.settled())
            if runtime is not None:
                self._emit_fault_telemetry(telemetry, runtime)
        if recorder is not None:
            recorder.force_record(steps, count_list)
        result = RunResult(
            protocol_name=self.protocol.name,
            engine_name=self.name,
            n=n,
            steps=steps,
            settled=tracker.settled(),
            decision=tracker.decision(),
            expected=expected,
            final_counts=self.protocol.vector_to_counts(count_list),
            productive_steps=productive,
            continuous_time=extra_time,
            frozen=frozen,
            fault_events=runtime.events() if runtime is not None else None,
        )
        if on_timeout == "raise" and not result.settled \
                and not result.frozen:
            raise ConvergenceTimeout(
                f"{self.protocol.name} did not settle within "
                f"{budget} interactions (n={n})", result=result)
        return result

    def _emit_run_telemetry(self, telemetry, wall: float, n: int,
                            steps: int, productive, settled: bool) -> None:
        """Report one run's aggregates to the active telemetry."""
        labels = {"engine": self.name, "protocol": self.protocol.name,
                  **self._telemetry_labels()}
        telemetry.count("engine.runs", **labels)
        telemetry.count("engine.interactions", steps, **labels)
        if productive is not None:
            telemetry.count("engine.productive", productive, **labels)
        if not settled:
            telemetry.count("engine.unsettled", **labels)
        telemetry.record_span("engine.run", wall, n=n, steps=steps,
                              settled=settled, **labels)

    def _emit_fault_telemetry(self, telemetry, runtime) -> None:
        """Report one faulted run's injection counts."""
        labels = {"engine": self.name, "protocol": self.protocol.name}
        telemetry.count("fault.runs", **labels)
        for kind, count in runtime.events().items():
            if count:
                telemetry.count(f"fault.{kind}", count, **labels)

    def _telemetry_labels(self) -> dict:
        """Extra labels identifying this engine's configuration.

        Subclasses with tunables that change the simulated process
        (batch fraction, interaction graph) override this so traces
        distinguish their runs.
        """
        return {}

    # ------------------------------------------------------------------
    # Subclass contract
    # ------------------------------------------------------------------

    @abstractmethod
    def _simulate(self, counts: list[int], n: int, rng, max_steps: int,
                  tracker, recorder) -> tuple[int, int | None, bool,
                                              float | None]:
        """Run the inner loop, mutating ``counts`` in place.

        Must stop as soon as ``tracker.settled()`` becomes true (after
        notifying the tracker of each state change) or when the step
        count would exceed ``max_steps``.  Returns ``(steps,
        productive_steps, frozen, continuous_time)``.
        """

    def _simulate_faulted(self, counts: list[int], n: int, rng,
                          max_steps: int, tracker, recorder,
                          runtime) -> tuple[int, int | None, bool,
                                            float | None]:
        """Fault-injecting inner loop (see :mod:`repro.faults`).

        Only called with an *active* :class:`~repro.faults.FaultRuntime`
        and only on engines declaring ``supports_faults = True``.  The
        canonical per-tick order is interaction (subject to drop, then
        byzantine message corruption, then one-way), then flip, then
        crash, then join; settling is only terminal once
        ``steps >= runtime.hold_until``.
        """
        raise NotImplementedError(
            f"engine {self.name!r} declares fault support but does not "
            "implement _simulate_faulted")

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _resolve_budget(n: int, max_steps, max_parallel_time) -> int:
        if max_steps is not None and max_parallel_time is not None:
            raise InvalidParameterError(
                "give max_steps or max_parallel_time, not both")
        if max_steps is None:
            parallel = (DEFAULT_MAX_PARALLEL_TIME
                        if max_parallel_time is None else max_parallel_time)
            if parallel <= 0:
                raise InvalidParameterError(
                    f"max_parallel_time must be positive, got {parallel}")
            max_steps = int(parallel * n)
        if max_steps <= 0:
            raise InvalidParameterError(
                f"max_steps must be positive, got {max_steps}")
        return max_steps

    def _transition_lookup(self):
        """Fast per-engine transition lookup: table for small ``s``.

        Returns a callable ``(i, j) -> (i2, j2)``.  For small state
        spaces a dense Python list-of-lists beats dict lookups; large
        state spaces (AVC with big ``m``) use the memoized dict inside
        :meth:`~repro.protocols.base.PopulationProtocol.transition_index`.
        """
        protocol = self.protocol
        if protocol.num_states <= 256:
            out_x, out_y = protocol.transition_matrix()
            table_x = out_x.tolist()
            table_y = out_y.tolist()

            def lookup(i: int, j: int) -> tuple[int, int]:
                return table_x[i][j], table_y[i][j]

            return lookup
        return protocol.transition_index

    def __repr__(self) -> str:
        return f"<{type(self).__name__} protocol={self.protocol.name!r}>"


def check_budget_sanity(max_steps: int) -> None:
    """Guard against absurd budgets that would never terminate."""
    if max_steps > 10**15:
        raise SimulationError(
            f"interaction budget {max_steps} is beyond any feasible run; "
            "lower max_steps/max_parallel_time")
