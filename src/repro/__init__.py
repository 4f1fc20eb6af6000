"""repro — a reproduction of *Fast and Exact Majority in Population
Protocols* (Alistarh, Gelashvili, Vojnovic; PODC 2015).

The package provides:

* :mod:`repro.core` — the AVC (Average-and-Conquer) exact-majority
  protocol, the paper's contribution;
* :mod:`repro.protocols` — the protocol abstraction and the published
  baselines (three-state approximate majority, four-state exact
  majority, the voter model) plus table-driven protocols;
* :mod:`repro.sim` — interchangeable simulation engines for the
  random-pairwise-interaction model (agent-array, count-vector,
  null-skipping/Gillespie, continuous-time, batched-numpy) and the
  run harness;
* :mod:`repro.faults` — declarative fault injection (state
  corruption, population churn, interaction faults, byzantine
  adversaries, adversarial schedulers) composing with every engine
  above;
* :mod:`repro.consensus` — round-based synchronous message-passing
  consensus (Ben-Or, epsilon-agreement) on the same RunSpec rails;
* :mod:`repro.graphs` — interaction-graph builders;
* :mod:`repro.analysis` — closed-form bounds, mean-field ODE limits,
  and exact Markov-chain analysis;
* :mod:`repro.lowerbounds` — computational reproductions of the
  paper's two lower bounds;
* :mod:`repro.experiments` — the harness regenerating every figure.

Quickstart::

    from repro import AVCProtocol, RunSpec, run_majority

    protocol = AVCProtocol.with_num_states(s=64)
    spec = RunSpec(protocol, n=10_001, epsilon=1 / 10_001, seed=0)
    result = run_majority(spec)
    print(result.parallel_time, result.correct)
"""

from .core import AVCParams, AVCProtocol, AVCState
from .errors import (
    AnalysisError,
    ConvergenceTimeout,
    ExperimentError,
    InvalidParameterError,
    InvalidStateError,
    ProtocolError,
    ReproError,
    SimulationError,
)
from .protocols import (
    MAJORITY_A,
    MAJORITY_B,
    UNDECIDED,
    FieldSpec,
    FourStateProtocol,
    IntervalConsensusProtocol,
    LeveledLeaderElection,
    LogStateMajorityProtocol,
    MajorityProtocol,
    PairwiseLeaderElection,
    MajorityTableProtocol,
    PhaseDoublingProtocol,
    PopulationProtocol,
    ProductProtocol,
    StructuredProtocol,
    TableProtocol,
    ThreeStateProtocol,
    VoterProtocol,
    parse_protocol,
    validate_protocol,
)
from .consensus import (
    BenOrConsensus,
    ConsensusProtocol,
    EpsilonAgreementConsensus,
    RoundsEngine,
)
from .faults import FaultSpec, corrupt_counts
from .serialize import (
    protocol_from_dict,
    protocol_to_dict,
    run_result_from_dict,
    run_result_to_dict,
)
from .workloads import (
    MajorityWorkload,
    bernoulli_workload,
    margin_workload,
    worst_case_workload,
)
from .sim import (
    AgentEngine,
    ContinuousTimeEngine,
    CountEngine,
    CountEnsembleEngine,
    EnsembleEngine,
    NullSkippingEngine,
    RunResult,
    RunSpec,
    run,
    run_majority,
    run_trials,
    run_trials_parallel,
    simulate,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "AVCProtocol",
    "AVCParams",
    "AVCState",
    # protocols
    "PopulationProtocol",
    "MajorityProtocol",
    "StructuredProtocol",
    "FieldSpec",
    "PhaseDoublingProtocol",
    "LogStateMajorityProtocol",
    "ThreeStateProtocol",
    "FourStateProtocol",
    "IntervalConsensusProtocol",
    "PairwiseLeaderElection",
    "LeveledLeaderElection",
    "VoterProtocol",
    "TableProtocol",
    "MajorityTableProtocol",
    "validate_protocol",
    "parse_protocol",
    "ProductProtocol",
    "MAJORITY_A",
    "MAJORITY_B",
    "UNDECIDED",
    # round-based consensus
    "ConsensusProtocol",
    "BenOrConsensus",
    "EpsilonAgreementConsensus",
    "RoundsEngine",
    # simulation
    "AgentEngine",
    "CountEngine",
    "CountEnsembleEngine",
    "EnsembleEngine",
    "NullSkippingEngine",
    "ContinuousTimeEngine",
    "RunResult",
    "RunSpec",
    "simulate",
    "run",
    "run_majority",
    "run_trials",
    "run_trials_parallel",
    # fault injection
    "FaultSpec",
    "corrupt_counts",
    "protocol_to_dict",
    "protocol_from_dict",
    "run_result_to_dict",
    "run_result_from_dict",
    "MajorityWorkload",
    "margin_workload",
    "bernoulli_workload",
    "worst_case_workload",
    # errors
    "ReproError",
    "ProtocolError",
    "InvalidParameterError",
    "InvalidStateError",
    "SimulationError",
    "ConvergenceTimeout",
    "AnalysisError",
    "ExperimentError",
]
