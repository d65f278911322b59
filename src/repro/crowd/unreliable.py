"""Fault injection: make any crowd platform behave like a real one.

The simulated platform is an oracle -- every posted task comes back
answered, synchronously, forever.  Real markets are nothing like that:
workers never pick tasks up, accept and abandon them, spam random
answers, the platform itself rate-limits or goes down, and some answers
arrive hours late.  :class:`UnreliableCrowdPlatform` wraps any
:class:`~repro.crowd.platform.CrowdPlatform` and injects exactly those
faults from a seeded RNG, so resilience behaviour is reproducible and
testable (chaos engineering for the crowdsourcing loop).

All fault knobs live in :class:`FaultModel`; a zero-valued model is a
transparent pass-through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..ctable.expression import Relation
from ..errors import PlatformFatalError, PlatformTransientError, TaskExpiredError
from .platform import CrowdStats
from .task import ComparisonTask

_ALL_RELATIONS = (Relation.LESS, Relation.EQUAL, Relation.GREATER)


@dataclass(frozen=True)
class FaultModel:
    """Seeded, configurable fault rates of an unreliable crowd market."""

    #: per-task probability that nobody picks the task up (no answer)
    drop_rate: float = 0.0
    #: per-task probability that every assigned worker abstains (no answer)
    abstention_rate: float = 0.0
    #: per-task probability the answer comes from a spammer (uniform random)
    spam_fraction: float = 0.0
    #: per-attempt probability that posting the batch fails transiently
    transient_rate: float = 0.0
    #: deterministic schedule: every Nth post attempt fails transiently
    #: (0 disables; ``2`` fails attempts 2, 4, 6, ...)
    transient_every: int = 0
    #: post attempts from this one on fail fatally (0 disables)
    fatal_after: int = 0
    #: per-task probability the answer straggles in late
    straggler_rate: float = 0.0
    #: simulated extra latency charged per straggling task (seconds)
    straggler_seconds: float = 30.0
    #: a task posted more than this many times expires (0 = never)
    max_reposts: int = 0

    def __post_init__(self) -> None:
        for name in (
            "drop_rate",
            "abstention_rate",
            "spam_fraction",
            "transient_rate",
            "straggler_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError("%s must lie in [0, 1], got %r" % (name, value))
        if self.transient_every < 0:
            raise ValueError("transient_every must be non-negative")
        if self.fatal_after < 0:
            raise ValueError("fatal_after must be non-negative")
        if self.straggler_seconds < 0:
            raise ValueError("straggler_seconds must be non-negative")
        if self.max_reposts < 0:
            raise ValueError("max_reposts must be non-negative")

    def any_faults(self) -> bool:
        """True when at least one fault channel is active."""
        return (
            self.drop_rate > 0
            or self.abstention_rate > 0
            or self.spam_fraction > 0
            or self.transient_rate > 0
            or self.transient_every > 0
            or self.fatal_after > 0
            or self.straggler_rate > 0
            or self.max_reposts > 0
        )


class UnreliableCrowdPlatform:
    """Wrap a platform with seeded fault injection.

    Injected faults, in the order they apply to one ``post_batch`` call:

    1. scheduled/random **transient failures** raise
       :class:`PlatformTransientError` before anything is posted;
    2. a configured **fatal horizon** raises :class:`PlatformFatalError`;
    3. tasks over their **repost allowance** raise
       :class:`TaskExpiredError` carrying exactly the expired tasks;
    4. per answered task: **drop** (no-show), **abstention** (omit from
       the result), **spam** (replace with a uniform random relation)
       and **straggling** (charge simulated latency).

    Fault totals are accumulated on :attr:`stats` (the inner platform's
    :class:`CrowdStats` when it has one) so a single object carries both
    usage and fault accounting.
    """

    def __init__(
        self,
        inner,
        faults: Optional[FaultModel] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.inner = inner
        self.faults = faults or FaultModel()
        self._rng = rng or np.random.default_rng(0)
        self.stats: CrowdStats = getattr(inner, "stats", None) or CrowdStats()
        #: injected straggler latency accumulated so far (simulated seconds)
        self.simulated_wait_seconds = 0.0
        self._attempts = 0
        self._post_counts: Dict[int, int] = {}
        #: vote provenance of the latest delivered batch, mirroring the
        #: inner platform's but consistent with the injected faults:
        #: withheld tasks vanish, spammed tasks carry a synthetic spammer
        #: identity (negative worker id) so online reliability tracking
        #: can learn to distrust it.  Shadows the inner attribute.
        self.last_votes: Dict[int, List] = {}

    # ------------------------------------------------------------------
    def post_batch(self, tasks: Sequence[ComparisonTask]) -> Dict[ComparisonTask, Relation]:
        tasks = list(tasks)
        if not tasks:
            return {}
        faults = self.faults
        self._attempts += 1
        if faults.fatal_after and self._attempts >= faults.fatal_after:
            raise PlatformFatalError(
                "platform permanently unavailable (attempt %d)" % self._attempts
            )
        if faults.transient_every and self._attempts % faults.transient_every == 0:
            self.stats.transient_failures += 1
            raise PlatformTransientError(
                "scheduled transient failure (attempt %d)" % self._attempts
            )
        if faults.transient_rate and self._rng.random() < faults.transient_rate:
            self.stats.transient_failures += 1
            raise PlatformTransientError(
                "random transient failure (attempt %d)" % self._attempts
            )
        if faults.max_reposts:
            expired: List[ComparisonTask] = []
            for task in tasks:
                count = self._post_counts.get(task.task_id, 0) + 1
                self._post_counts[task.task_id] = count
                if count > faults.max_reposts:
                    expired.append(task)
            if expired:
                self.stats.tasks_expired += len(expired)
                raise TaskExpiredError(expired)

        answers = self.inner.post_batch(tasks)
        inner_votes = dict(getattr(self.inner, "last_votes", None) or {})
        delivered: Dict[ComparisonTask, Relation] = {}
        votes: Dict[int, List] = {}
        for task in tasks:
            relation = answers.get(task)
            if relation is None:
                continue  # the inner platform already withheld this one
            if faults.drop_rate and self._rng.random() < faults.drop_rate:
                self.stats.tasks_unanswered += 1
                continue
            if faults.abstention_rate and self._rng.random() < faults.abstention_rate:
                self.stats.tasks_unanswered += 1
                continue
            task_votes = inner_votes.get(task.task_id)
            if faults.spam_fraction and self._rng.random() < faults.spam_fraction:
                relation = _ALL_RELATIONS[int(self._rng.integers(3))]
                self.stats.spam_answers += 1
                # The spammer's single overriding vote replaces the honest
                # provenance.  Its identity is derived from the task id
                # (not the rng) so fault streams stay seed-stable.
                task_votes = [(-1 - (task.task_id % 3), relation)]
            if faults.straggler_rate and self._rng.random() < faults.straggler_rate:
                self.stats.stragglers += 1
                self.simulated_wait_seconds += faults.straggler_seconds
            if task_votes is not None:
                votes[task.task_id] = task_votes
            delivered[task] = relation
        self.last_votes = votes
        return delivered

    # ------------------------------------------------------------------
    # journal snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = {
            "rng": self._rng.bit_generator.state,
            "attempts": self._attempts,
            "post_counts": dict(self._post_counts),
            "simulated_wait_seconds": self.simulated_wait_seconds,
        }
        inner_state = getattr(self.inner, "state_dict", None)
        if callable(inner_state):
            state["inner"] = inner_state()
        return state

    def load_state_dict(self, state: dict) -> None:
        self._rng.bit_generator.state = state["rng"]
        self._attempts = int(state.get("attempts", 0))
        self._post_counts = {
            int(k): int(v) for k, v in state.get("post_counts", {}).items()
        }
        self.simulated_wait_seconds = float(state.get("simulated_wait_seconds", 0.0))
        if "inner" in state and hasattr(self.inner, "load_state_dict"):
            self.inner.load_state_dict(state["inner"])

    def __getattr__(self, name: str):
        # Delegate everything else (true_relation, task_log, ...) inward.
        return getattr(self.inner, name)
