"""Crowd platform protocol and the simulated implementation.

Plays the role of AMT / FigureEight in the paper's architecture: a
requester posts batches of triple-choice tasks; each task is assigned to
``assignments_per_task`` workers drawn from a pool; answers are majority
voted.  Ground truth comes from the dataset's held-out complete matrix,
which the query algorithms themselves never see.

The platform also does the money/latency accounting used throughout the
evaluation: the *monetary cost* is the number of answered tasks and the
*latency* the number of posted batches (rounds).

The :class:`CrowdPlatform` protocol is the integration surface for real
markets.  Its contract is deliberately weaker than the oracle simulator:
``post_batch`` may return **partial** answers (tasks workers never picked
up, or all of whose workers abstained, are simply absent from the
returned dict) and may raise the typed errors of :mod:`repro.errors`
(transient outages, fatal failures, per-task expiry).  Callers must not
assume every posted task comes back answered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..ctable.expression import Relation
from ..datasets.dataset import IncompleteDataset
from ..errors import ConflictingBatchError, DuplicateTaskError
from .aggregation import majority_vote
from .task import ComparisonTask
from .worker import WorkerPool

__all__ = [
    "ConflictingBatchError",
    "DuplicateTaskError",
    "CrowdPlatform",
    "CrowdStats",
    "SimulatedCrowdPlatform",
]

try:  # Protocol is typing-only; keep a graceful path for exotic runtimes
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - Python < 3.8
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


@runtime_checkable
class CrowdPlatform(Protocol):
    """What :class:`repro.core.BayesCrowd` needs from a crowd market.

    Implementations may answer only a subset of the posted tasks (the
    partial-answer contract) and may raise
    :class:`repro.errors.PlatformTransientError`,
    :class:`repro.errors.PlatformFatalError` or
    :class:`repro.errors.TaskExpiredError`; the framework retries,
    degrades or refunds accordingly.
    """

    def post_batch(
        self, tasks: Sequence[ComparisonTask]
    ) -> Dict[ComparisonTask, Relation]:
        """Post one round of tasks; return answers for the answered subset."""
        ...  # pragma: no cover - protocol


@dataclass
class CrowdStats:
    """Running totals of crowd usage and observed faults."""

    tasks_posted: int = 0
    rounds: int = 0
    worker_answers: int = 0
    correct_majorities: int = 0
    #: posted tasks that came back without an answer (no-shows, abstentions)
    tasks_unanswered: int = 0
    #: tasks refused because they exceeded their repost allowance
    tasks_expired: int = 0
    #: batch posts that failed with a transient platform error
    transient_failures: int = 0
    #: answers produced (overwritten) by spamming workers
    spam_answers: int = 0
    #: tasks whose answers arrived only after injected straggler latency
    stragglers: int = 0

    def majority_accuracy(self) -> float:
        answered = self.tasks_posted - self.tasks_unanswered
        if answered <= 0:
            return 1.0
        return self.correct_majorities / answered


class SimulatedCrowdPlatform:
    """Answers comparison tasks from ground truth through noisy workers."""

    def __init__(
        self,
        dataset: IncompleteDataset,
        worker_pool: Optional[WorkerPool] = None,
        worker_accuracy: float = 1.0,
        assignments_per_task: int = 3,
        rng: Optional[np.random.Generator] = None,
        enforce_conflict_free: bool = True,
        aggregator=None,
    ) -> None:
        """``aggregator`` optionally replaces majority voting: a callable
        taking ``[(worker, relation), ...]`` and returning the aggregated
        :class:`Relation` (see :mod:`repro.crowd.quality`)."""
        if not dataset.has_ground_truth():
            raise ValueError("the simulated crowd needs the dataset's ground truth")
        if assignments_per_task < 1:
            raise ValueError("assignments_per_task must be at least 1")
        self._dataset = dataset
        self._rng = rng or np.random.default_rng(0)
        self._pool = worker_pool or WorkerPool(worker_accuracy, rng=self._rng)
        self._assignments = assignments_per_task
        self._enforce_conflict_free = enforce_conflict_free
        self._aggregator = aggregator
        self.stats = CrowdStats()
        #: every task ever posted, in posting order (for post-hoc analysis)
        self.task_log: List["ComparisonTask"] = []
        #: per-task worker votes of the *latest* batch, keyed by task id:
        #: ``{task_id: [(worker_id, Relation), ...]}``.  Overwritten on
        #: every post; the answer-integrity layer reads it to attribute
        #: provenance and run online reliability updates.
        self.last_votes: Dict[int, List] = {}

    # ------------------------------------------------------------------
    def true_relation(self, task: ComparisonTask) -> Relation:
        """Ground-truth relation of a task (what perfect workers answer)."""
        return task.expression.true_relation(self._dataset.complete)

    def post_batch(self, tasks: Sequence[ComparisonTask]) -> Dict[ComparisonTask, Relation]:
        """Post one round of tasks; returns the majority-voted answers.

        An empty batch is a no-op that does not consume a round.  Tasks
        all of whose assigned workers abstained are absent from the
        returned dict (the partial-answer contract).
        """
        tasks = list(tasks)
        if not tasks:
            return {}
        self._check_duplicates(tasks)
        if self._enforce_conflict_free:
            self._check_conflicts(tasks)
        answers: Dict[ComparisonTask, Relation] = {}
        self.last_votes = {}
        for task in tasks:
            truth = self.true_relation(task)
            pairs = [
                (worker, worker.answer(truth))
                for worker in self._pool.draw(self._assignments)
            ]
            voted_pairs = [(w, r) for w, r in pairs if r is not None]
            self.stats.worker_answers += len(voted_pairs)
            if not voted_pairs:
                self.stats.tasks_unanswered += 1
                continue
            self.last_votes[task.task_id] = [
                (worker.worker_id, relation) for worker, relation in voted_pairs
            ]
            if self._aggregator is not None:
                voted = self._aggregator(voted_pairs)
            else:
                voted = majority_vote([r for __, r in voted_pairs], rng=self._rng)
            answers[task] = voted
            if voted is truth:
                self.stats.correct_majorities += 1
        self.stats.tasks_posted += len(tasks)
        self.stats.rounds += 1
        self.task_log.extend(tasks)
        return answers

    @staticmethod
    def _check_duplicates(tasks: Sequence[ComparisonTask]) -> None:
        seen: set = set()
        for task in tasks:
            if task.task_id in seen:
                raise DuplicateTaskError(
                    "task %s appears more than once in one batch" % task
                )
            seen.add(task.task_id)

    @staticmethod
    def _check_conflicts(tasks: Sequence[ComparisonTask]) -> None:
        seen: Dict[tuple, ComparisonTask] = {}
        for task in tasks:
            for variable in task.variables():
                other = seen.get(variable)
                if other is not None and other is not task:
                    raise ConflictingBatchError(
                        "tasks %s and %s share variable %s" % (other, task, variable)
                    )
                seen[variable] = task

    # ------------------------------------------------------------------
    # journal snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot of the platform's evolving state.

        Restoring it replays the RNG stream exactly, so a resumed run
        sees the same worker draws and noise as an uninterrupted one.
        """
        from dataclasses import asdict

        return {"rng": self._rng.bit_generator.state, "stats": asdict(self.stats)}

    def load_state_dict(self, state: dict) -> None:
        self._rng.bit_generator.state = state["rng"]
        for key, value in state.get("stats", {}).items():
            if hasattr(self.stats, key):
                setattr(self.stats, key, value)
