"""Configuration of a BayesCrowd query run."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Optional, Tuple, Union

from ..crowd.quality import DEFAULT_RELIABILITY_PRIOR
from ..crowd.unreliable import FaultModel
from ..ctable.constraints import INFERENCE_MODES
from ..ctable.construction import BACKENDS, INERT_KEYWORDS
from ..ctable.dominators import DOMINATOR_METHODS
from ..probability.engine import DEFAULT_CACHE_SIZE, METHODS
from .utility import UTILITY_MODES
from .utility_engine import DEFAULT_UTILITY_CACHE_SIZE

#: How the per-variable distributions are obtained in preprocessing.
DISTRIBUTION_SOURCES = ("bayesnet", "empirical", "uniform")

#: What happens to tasks the platform never answered: repost them in the
#: next round ("requeue") or just not charge their budget ("refund").
REQUEUE_POLICIES = ("requeue", "refund")


@dataclass
class BayesCrowdConfig:
    """All knobs of Algorithm 1 / Algorithm 4 in one place.

    Defaults follow the paper's NBA settings (Section 7): ``alpha=0.003``
    scaled up to 0.01 for the smaller default datasets, budget 50, latency
    5 rounds, ``m=15``, three workers per task with majority voting,
    answer threshold 0.5.
    """

    #: pruning threshold of Get-CTable (fraction of |O|); >= 1 disables
    alpha: float = 0.01
    #: total number of affordable tasks (B)
    budget: int = 50
    #: latency constraint: max number of task-selection rounds (L)
    latency: int = 5
    #: task selection strategy: "fbs", "ubs" or "hhs"
    strategy: str = "hhs"
    #: HHS early-stop parameter
    m: int = 15
    #: probability computation method: "adpll", "naive" or "approx"
    probability_method: str = "adpll"
    #: forest residue, not a field: drivers.replay_query reads it (ROADMAP item 1)
    probability_backend: ClassVar[str] = INERT_KEYWORDS["backend"]
    #: forest residue, not a field: drivers.replay_query reads it (ROADMAP item 1)
    compile_node_budget: ClassVar[int] = INERT_KEYWORDS["compile_node_budget"]
    #: forest residue, not a field: drivers.replay_query reads it (ROADMAP item 1)
    circuit_cache_size: ClassVar[int] = INERT_KEYWORDS["circuit_cache_size"]
    #: objects with Pr(phi) above this are reported as answers
    answer_threshold: float = 0.5
    #: stop crowdsourcing early once every undecided object's entropy falls
    #: below this (0 disables; saves budget when answers are near-certain)
    entropy_epsilon: float = 0.0
    #: H(o|e) evaluation in the utility function (paper: "syntactic")
    utility_mode: str = "syntactic"
    #: preprocessing distribution source
    distribution_source: str = "bayesnet"
    #: dominator-set derivation of the python backend: "fast" or "baseline"
    #: (the numpy backend's pruning scan derives the sets itself)
    dominator_method: str = "fast"
    #: c-table construction backend: "auto" (numpy unless the baseline
    #: dominator method is requested), "numpy" or "python"
    backend: str = "auto"
    #: prune-mode residue, not a field: drivers.replay_query reads it (ROADMAP item 1)
    ctable_prune: ClassVar[str] = INERT_KEYWORDS["prune"]
    #: pool residue, not a field: drivers.replay_query reads it (ROADMAP item 1)
    n_jobs: ClassVar[int] = INERT_KEYWORDS["n_jobs"]
    #: bound on the engine's condition-probability cache (0 = unbounded)
    cache_size: int = DEFAULT_CACHE_SIZE
    #: score marginal utilities through the batched, cross-round-cached
    #: UtilityEngine (False = the scalar per-candidate path, kept for
    #: ablation and parity testing; both select identical expressions)
    selection_batch: bool = True
    #: bound on the utility gain/residual caches (0 = unbounded)
    utility_cache_size: int = DEFAULT_UTILITY_CACHE_SIZE
    #: answer-propagation level: "direct", "intervals" or "full"
    inference_mode: str = "full"
    #: structure-learning parent cap for the Bayesian network
    bn_max_parents: int = 3
    #: Laplace smoothing for CPT estimation
    bn_smoothing: float = 1.0
    #: workers answering each task (majority voted)
    assignments_per_task: int = 3
    #: answer aggregation: "majority" or "weighted" (gold-task calibrated
    #: log-odds voting; see repro.crowd.quality)
    aggregation: str = "majority"
    #: gold questions per worker for "weighted" calibration
    calibration_questions: int = 20
    #: accuracy of simulated workers (used when no platform is supplied)
    worker_accuracy: float = 1.0
    #: max re-posts of a batch after transient platform errors
    max_retries: int = 3
    #: first backoff delay in seconds (doubled per retry, jittered, capped)
    backoff_base: float = 0.05
    #: upper bound on one backoff delay in seconds
    backoff_cap: float = 2.0
    #: unanswered tasks: "requeue" (repost next round) or "refund" (drop,
    #: budget is only ever charged for answered tasks either way)
    requeue_policy: str = "requeue"
    #: fault injection applied to the auto-constructed simulated platform
    #: (None = reliable oracle platform; see repro.crowd.FaultModel)
    faults: Optional[FaultModel] = None
    #: quarantine answers that contradict the accepted partial order and
    #: re-ask them (reliability-weighted) instead of applying them; off,
    #: the ledger still records every contradiction but applies the answer
    strict_integrity: bool = False
    #: cap on re-ask spend under strict integrity, as a fraction of the
    #: total budget (re-asks are charged like any other answered task)
    reask_budget_frac: float = 0.25
    #: ADPLL branch-node budget per condition before the engine degrades
    #: to adaptive sampling (0 = unlimited)
    adpll_node_budget: int = 0
    #: per-condition wall-clock deadline for exact ADPLL in seconds
    #: (0 = no deadline)
    adpll_deadline_s: float = 0.0
    #: Beta(alpha, beta) prior of the online worker-reliability model
    reliability_prior: Tuple[float, float] = DEFAULT_RELIABILITY_PRIOR
    #: write the run's JSONL trace event log here (CLI: --trace-out);
    #: None keeps the events in memory only (QueryResult.trace)
    trace_path: Optional[Union[str, Path]] = None
    #: write the run's metrics snapshot here (CLI: --metrics-out); a
    #: ``.prom``/``.txt`` suffix selects Prometheus text, anything else
    #: the JSON schema; None keeps it in memory only (QueryResult.metrics)
    metrics_path: Optional[Union[str, Path]] = None
    #: write-ahead answer journal (CLI: --journal): every accepted
    #: answer / quarantine / budget charge is durably appended *before*
    #: engine state mutates, so a crashed run resumes bit-identically
    #: from journal replay; None disables journaling
    journal_path: Optional[Union[str, Path]] = None
    #: fsync every journal append (the durability guarantee); False
    #: trades the last few records for speed in tests/benchmarks
    journal_fsync: bool = True
    #: wall-clock deadline for the whole run in seconds (0 = none); on
    #: expiry the session raises SessionCancelledError at the next phase
    #: boundary -- journaled state survives for resumption
    session_deadline_s: float = 0.0
    #: RNG seed for every stochastic component of the run
    seed: int = 0

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.budget < 0:
            raise ValueError("budget must be non-negative")
        if self.latency < 1:
            raise ValueError("latency must be at least one round")
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.strategy.lower() not in ("fbs", "ubs", "hhs"):
            raise ValueError("unknown strategy %r" % self.strategy)
        if self.probability_method not in METHODS:
            raise ValueError("unknown probability method %r" % self.probability_method)
        if not 0.0 <= self.answer_threshold <= 1.0:
            raise ValueError("answer_threshold must lie in [0, 1]")
        if not 0.0 <= self.entropy_epsilon <= 1.0:
            raise ValueError("entropy_epsilon must lie in [0, 1]")
        if self.utility_mode not in UTILITY_MODES:
            raise ValueError("unknown utility mode %r" % self.utility_mode)
        if self.distribution_source not in DISTRIBUTION_SOURCES:
            raise ValueError("unknown distribution source %r" % self.distribution_source)
        if self.dominator_method not in DOMINATOR_METHODS:
            raise ValueError(
                "unknown dominator method %r; expected one of %r"
                % (self.dominator_method, DOMINATOR_METHODS)
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                "unknown backend %r; expected one of %r" % (self.backend, BACKENDS)
            )
        if self.cache_size < 0:
            raise ValueError("cache_size must be non-negative (0 = unbounded)")
        if self.utility_cache_size < 0:
            raise ValueError("utility_cache_size must be non-negative (0 = unbounded)")
        if self.inference_mode not in INFERENCE_MODES:
            raise ValueError("unknown inference mode %r" % self.inference_mode)
        if not 0.0 <= self.worker_accuracy <= 1.0:
            raise ValueError("worker_accuracy must lie in [0, 1]")
        if self.aggregation not in ("majority", "weighted"):
            raise ValueError("unknown aggregation %r" % self.aggregation)
        if self.calibration_questions < 1:
            raise ValueError("calibration_questions must be positive")
        if self.assignments_per_task < 1:
            raise ValueError("assignments_per_task must be at least 1")
        if self.bn_smoothing < 0.0:
            raise ValueError("bn_smoothing must be non-negative")
        if self.bn_max_parents < 0:
            raise ValueError("bn_max_parents must be non-negative")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base < 0.0:
            raise ValueError("backoff_base must be non-negative")
        if self.backoff_cap < self.backoff_base:
            raise ValueError("backoff_cap must be at least backoff_base")
        if self.requeue_policy not in REQUEUE_POLICIES:
            raise ValueError(
                "unknown requeue policy %r; expected one of %r"
                % (self.requeue_policy, REQUEUE_POLICIES)
            )
        if self.faults is not None and not isinstance(self.faults, FaultModel):
            raise ValueError("faults must be a FaultModel or None")
        # Integrity / resource-guard knobs raise the typed ConfigError
        # (a ValueError subclass, so blanket handlers keep working).
        from ..errors import ConfigError

        if not isinstance(self.strict_integrity, bool):
            raise ConfigError("strict_integrity must be a bool")
        if not 0.0 <= self.reask_budget_frac <= 1.0:
            raise ConfigError(
                "reask_budget_frac must lie in [0, 1], got %r"
                % (self.reask_budget_frac,)
            )
        if not isinstance(self.adpll_node_budget, int) or isinstance(
            self.adpll_node_budget, bool
        ):
            raise ConfigError("adpll_node_budget must be an int (0 = unlimited)")
        if self.adpll_node_budget < 0:
            raise ConfigError("adpll_node_budget must be non-negative")
        if self.adpll_deadline_s < 0:
            raise ConfigError("adpll_deadline_s must be non-negative (0 = none)")
        try:
            prior = tuple(float(x) for x in self.reliability_prior)
        except (TypeError, ValueError):
            raise ConfigError(
                "reliability_prior must be a (alpha, beta) pair of "
                "positive pseudo-counts, got %r" % (self.reliability_prior,)
            )
        if len(prior) != 2 or not all(p > 0 for p in prior):
            raise ConfigError(
                "reliability_prior must be a (alpha, beta) pair of "
                "positive pseudo-counts, got %r" % (self.reliability_prior,)
            )
        self.reliability_prior = prior
        for knob in ("trace_path", "metrics_path", "journal_path"):
            value = getattr(self, knob)
            if value is not None and not isinstance(value, (str, Path)):
                raise ValueError("%s must be a path-like string or None" % knob)
        if not isinstance(self.journal_fsync, bool):
            raise ConfigError("journal_fsync must be a bool")
        if self.session_deadline_s < 0:
            raise ConfigError("session_deadline_s must be non-negative (0 = none)")

    def tasks_per_round(self) -> int:
        """``mu = ceil(B / L)`` (Algorithm 4, line 1)."""
        if self.budget == 0:
            return 0
        return -(-self.budget // self.latency)
