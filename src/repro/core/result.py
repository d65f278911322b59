"""Query results and per-round run history."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..metrics.accuracy import AccuracyReport, accuracy_report


@dataclass
class RoundRecord:
    """What happened in one crowdsourcing iteration."""

    round_index: int
    tasks_posted: int
    #: objects the tasks were selected for
    objects: List[int]
    #: conditions resolved to a constant by this round's answers
    newly_decided: int
    #: remaining symbolic conditions after the round
    open_conditions: int
    seconds: float
    #: tasks that actually came back answered (== tasks_posted on a
    #: reliable platform; only these are charged against the budget)
    tasks_answered: Optional[int] = None
    #: batch re-posts forced by transient platform errors this round
    retries: int = 0
    #: per-round fault accounting, e.g. {"unanswered": 2, "expired": 1,
    #: "transient_retries": 1, "failed_round": 1, "fatal": 1}
    faults: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.tasks_answered is None:
            self.tasks_answered = self.tasks_posted


@dataclass
class QueryResult:
    """Outcome of one BayesCrowd (or baseline) skyline query."""

    #: final answer set: certainly-true objects plus Pr(phi) > threshold ones
    answers: List[int]
    #: objects whose condition ended as the constant true
    certain_answers: List[int]
    #: total tasks posted (the paper's monetary cost)
    tasks_posted: int
    #: number of batches posted (the paper's latency)
    rounds: int
    #: algorithm execution time, excluding (simulated) worker answering
    seconds: float
    #: total tasks answered by the crowd (== budget actually spent;
    #: equals tasks_posted on a fully reliable platform)
    tasks_answered: Optional[int] = None
    #: wall time of the modeling phase (c-table construction)
    modeling_seconds: float = 0.0
    history: List[RoundRecord] = field(default_factory=list)
    #: answer set before any crowdsourcing (machine-only inference)
    initial_answers: Optional[List[int]] = None
    #: final Pr(phi(o)) per undecided-at-the-end object (certain ones are 0/1)
    answer_probabilities: Dict[int, float] = field(default_factory=dict)
    #: perf counters: probability-engine cache/batch activity,
    #: incremental-ranking rescores, and c-table build throughput
    #: (``ctable_*`` keys, e.g. ``ctable_pairs_per_sec``)
    engine_stats: Dict[str, float] = field(default_factory=dict)
    #: unified observability snapshot (repro.obs.MetricsRegistry.snapshot():
    #: counters/gauges/histograms incl. phase_seconds_* wall-time
    #: histograms for the layer spans and run/crowd/round)
    metrics: Dict[str, object] = field(default_factory=dict)
    #: completed tracing spans (repro.obs.Tracer.to_dicts()): name, phase,
    #: parent, depth, start/end offsets, seconds
    trace: List[Dict] = field(default_factory=list)
    #: True when platform faults cost the run information it had budget
    #: for (unanswered/expired tasks, exhausted retries, fatal failure)
    degraded: bool = False
    #: run-level fault totals (sums of the per-round RoundRecord.faults)
    fault_counts: Dict[str, int] = field(default_factory=dict)
    #: True when this run was resumed from its write-ahead journal
    resumed: bool = False
    #: answer-integrity accounting (AnswerLedger.summary()):
    #: answers_aggregated/applied/quarantined/reasked, contradiction
    #: counts by reason
    integrity: Dict[str, int] = field(default_factory=dict)
    #: online per-worker reliability estimates at the end of the run
    #: (posterior-mean accuracy; empty without vote provenance)
    worker_reliability: Dict[int, float] = field(default_factory=dict)
    #: per-object: True when the reported probability came from exact
    #: ADPLL, False when the resource guard degraded it to sampling
    probability_exact: Dict[int, bool] = field(default_factory=dict)
    #: per-object half-width of the estimate's confidence interval
    #: (0.0 for exact probabilities, finite for approximate ones)
    probability_error_bounds: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.tasks_answered is None:
            self.tasks_answered = self.tasks_posted

    def approximate_objects(self) -> List[int]:
        """Objects whose probability was degraded to an approximation."""
        return sorted(o for o, exact in self.probability_exact.items() if not exact)

    def evaluate(self, ground_truth: List[int]) -> AccuracyReport:
        """F1 of the answer set against the complete-data skyline."""
        return accuracy_report(self.answers, ground_truth)

    def f1(self, ground_truth: List[int]) -> float:
        return self.evaluate(ground_truth).f1

    def ranked_answers(self) -> List["tuple[int, float]"]:
        """Answers sorted by membership probability (descending)."""
        return sorted(
            ((obj, self.answer_probabilities.get(obj, 1.0)) for obj in self.answers),
            key=lambda pair: (-pair[1], pair[0]),
        )
