"""BayesCrowd: answering skyline queries over incomplete data with crowdsourcing.

Reproduction of Miao et al., ICDE 2020.  The public API re-exports the
pieces a downstream user needs: dataset construction/generation, the
BayesCrowd framework with its task-selection strategies, the c-table
model, probability computation, the simulated crowd, and the CrowdSky
comparison baseline.
"""

from .baselines import CrowdSky, machine_only_skyline
from .bayesnet import BayesianNetwork, MissingValuePosteriors
from .core import (
    BayesCrowd,
    BayesCrowdConfig,
    QueryResult,
    entropy,
    marginal_utility,
    run_bayescrowd,
)
from .crowd import (
    ComparisonTask,
    FaultModel,
    SimulatedCrowdPlatform,
    UnreliableCrowdPlatform,
    WorkerPool,
)
from .ctable import CTable, Condition, Expression, Relation, build_ctable
from .errors import (
    CheckpointError,
    ConflictingBatchError,
    DuplicateTaskError,
    PlatformFatalError,
    PlatformTransientError,
    TaskExpiredError,
)
from .datasets import (
    MISSING,
    IncompleteDataset,
    from_complete,
    generate_nba,
    generate_synthetic,
    sample_dataset,
)
from .metrics import accuracy_report, f1_score
from .obs import EventLog, MetricsRegistry, Tracer
from .persistence import (
    load_dataset,
    load_result,
    save_dataset,
    save_result,
)
from .probability import ADPLL, DistributionStore, ProbabilityEngine
from .skyband import CrowdSkyband, SkybandConfig, skyband
from .skyline import skyline, skyline_layers
from .topk import CrowdTopKDominating, TopKConfig, top_k_dominating

__version__ = "1.0.0"

__all__ = [
    "CrowdSky",
    "machine_only_skyline",
    "BayesianNetwork",
    "MissingValuePosteriors",
    "BayesCrowd",
    "BayesCrowdConfig",
    "QueryResult",
    "entropy",
    "marginal_utility",
    "run_bayescrowd",
    "ComparisonTask",
    "SimulatedCrowdPlatform",
    "WorkerPool",
    "CTable",
    "Condition",
    "Expression",
    "Relation",
    "build_ctable",
    "MISSING",
    "IncompleteDataset",
    "from_complete",
    "generate_nba",
    "generate_synthetic",
    "sample_dataset",
    "accuracy_report",
    "f1_score",
    "EventLog",
    "MetricsRegistry",
    "Tracer",
    "save_dataset",
    "load_dataset",
    "save_result",
    "load_result",
    "FaultModel",
    "UnreliableCrowdPlatform",
    "CheckpointError",
    "ConflictingBatchError",
    "DuplicateTaskError",
    "PlatformFatalError",
    "PlatformTransientError",
    "TaskExpiredError",
    "ADPLL",
    "DistributionStore",
    "ProbabilityEngine",
    "CrowdSkyband",
    "SkybandConfig",
    "skyband",
    "skyline",
    "skyline_layers",
    "CrowdTopKDominating",
    "TopKConfig",
    "top_k_dominating",
    "__version__",
]
