"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ProtocolError",
    "InvalidParameterError",
    "InvalidStateError",
    "SimulationError",
    "ConvergenceTimeout",
    "WorkerError",
    "JobInterrupted",
    "AnalysisError",
    "ExperimentError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ProtocolError(ReproError):
    """A protocol definition is malformed or misused."""


class InvalidParameterError(ProtocolError, ValueError):
    """A protocol or engine parameter is outside its legal range."""


class InvalidStateError(ProtocolError, ValueError):
    """A state object does not belong to the protocol's state space."""


class SimulationError(ReproError):
    """A simulation could not be set up or executed."""


class ConvergenceTimeout(SimulationError):
    """A run exceeded its interaction budget without converging.

    The partially completed run is attached so callers can inspect how
    far the system got before the budget ran out.
    """

    def __init__(self, message: str, *, result=None):
        super().__init__(message)
        self.result = result


class WorkerError(SimulationError):
    """A parallel worker process died before delivering its results.

    Raised by :func:`~repro.sim.parallel.run_trials_parallel` in place
    of :class:`concurrent.futures.process.BrokenProcessPool`, so callers
    can tell a pool crash (OOM kill, interpreter abort) from a genuine
    simulation error: the batch is a pure function of its seed and is
    safe to run again.
    """


class JobInterrupted(SimulationError):
    """A cooperative stop request interrupted a sweep point mid-flight.

    Raised by the runstore orchestrator between trial chunks when its
    ``should_stop`` hook fires (the simulation service's graceful
    shutdown path).  Every completed chunk is already journaled, so the
    point resumes from the checkpoint on the next attempt — nothing is
    lost, which is what distinguishes this from a failure.
    """


class AnalysisError(ReproError):
    """An analytical computation (Markov chain, ODE, bound) failed."""


class ExperimentError(ReproError):
    """An experiment configuration or run failed."""
