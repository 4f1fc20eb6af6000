"""Simulation engines and the run harness.

See :mod:`repro.sim.engine` for the engine comparison table and
:mod:`repro.sim.run` for the high-level API.
"""

from .agent_engine import AgentEngine
from .count_engine import CountEngine
from .count_ensemble_engine import CountEnsembleEngine
from .engine import DEFAULT_MAX_PARALLEL_TIME, Engine
from .ensemble_engine import EnsembleEngine
from .fenwick import FenwickTree
from .gillespie import ContinuousTimeEngine, NullSkippingEngine
from .kernels.jit_engines import JitCountEngine, JitCountEnsembleEngine
from .observers import ObservingTracker, RuleCensus, avc_rule_classifier
from .parallel import run_trials_parallel
from .record import EventRecorder, TrajectoryRecorder
from .results import RunResult, TrialStats
from .run import (
    ENGINE_NAMES,
    RunSpec,
    make_engine,
    run,
    run_majority,
    run_trials,
    simulate,
)
from .schedule import (
    ClusteredPairSampler,
    CompletePairSampler,
    GraphPairSampler,
    PairSampler,
    StubbornPairSampler,
)

__all__ = [
    "Engine",
    "AgentEngine",
    "CountEngine",
    "CountEnsembleEngine",
    "EnsembleEngine",
    "NullSkippingEngine",
    "ContinuousTimeEngine",
    "JitCountEngine",
    "JitCountEnsembleEngine",
    "FenwickTree",
    "RunResult",
    "TrialStats",
    "TrajectoryRecorder",
    "EventRecorder",
    "PairSampler",
    "CompletePairSampler",
    "GraphPairSampler",
    "StubbornPairSampler",
    "ClusteredPairSampler",
    "RunSpec",
    "simulate",
    "make_engine",
    "run",
    "run_majority",
    "run_trials",
    "run_trials_parallel",
    "ObservingTracker",
    "RuleCensus",
    "avc_rule_classifier",
    "ENGINE_NAMES",
    "DEFAULT_MAX_PARALLEL_TIME",
]
