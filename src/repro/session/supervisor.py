"""Supervised session runtime: state machine, restarts, backpressure.

A :class:`SupervisedSession` is one hosted BayesCrowd query with its own
:class:`~repro.session.SessionContext` and write-ahead journal, driven
through an explicit lifecycle::

    PENDING -> RUNNING -> DONE
                 |   \\-> DEGRADED          (completed, faults cost info)
                 |-> PAUSED  -> RUNNING     (cooperative cancel; resumable)
                 |-> FAILED                 (restart budget exhausted)
                 \\-> CANCELLED             (also from PAUSED)

:meth:`SupervisedSession.run` absorbs crashes (any exception that is not
a cooperative cancellation) with a bounded restart-with-backoff policy:
it rebuilds the engine and resumes from the session's journal, up to
:data:`MAX_RESTARTS` times with exponentially growing, capped delays.
Because recovery is bit-identical, a restarted session converges to the
same result an undisturbed one would.  A pause or cancel request
(:meth:`SupervisedSession.stop`) is kept on the session, so every
restart attempt's fresh context starts cancelled and no request is lost.

Backpressure: crowd answers may land asynchronously in a per-session
:class:`BoundedAnswerQueue`.  The queue is bounded; overflow either
rejects the submission (:class:`~repro.errors.BackpressureError`) or
sheds the oldest queued answer, per ``overflow_policy``.  A
:class:`QueuedAnswerPlatform` drains the queue at each batch post, so a
session can consume answers that arrived while it was computing.
"""

from __future__ import annotations

import collections
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..crowd.task import ComparisonTask
from ..ctable.expression import Expression, Relation
from ..errors import BackpressureError, SessionCancelledError
from .context import SessionContext

__all__ = [
    "SESSION_STATES",
    "TERMINAL_STATES",
    "BoundedAnswerQueue",
    "QueuedAnswerPlatform",
    "SupervisedSession",
]

#: Session lifecycle states.
SESSION_STATES = (
    "PENDING", "RUNNING", "PAUSED", "DEGRADED", "FAILED", "DONE", "CANCELLED"
)

#: Legal state-machine transitions (from -> allowed targets).
_TRANSITIONS = {
    "PENDING": ("RUNNING",),
    "RUNNING": ("PAUSED", "DEGRADED", "FAILED", "DONE", "RUNNING", "CANCELLED"),
    "PAUSED": ("RUNNING", "CANCELLED"),
    "DEGRADED": (),
    "FAILED": (),
    "DONE": (),
    "CANCELLED": (),
}

#: States a session never leaves.
TERMINAL_STATES = tuple(s for s in SESSION_STATES if not _TRANSITIONS[s])

#: Restart budget of one run and its backoff: restart ``k`` sleeps
#: ``min(cap, base * 2 ** (k - 1))`` seconds before resuming.
MAX_RESTARTS = 2
RESTART_BACKOFF_BASE_S = 0.05
RESTART_BACKOFF_CAP_S = 2.0

#: Queue overflow policies.
OVERFLOW_POLICIES = ("reject", "shed-oldest")


class BoundedAnswerQueue:
    """Thread-safe bounded queue of (expression, relation) submissions."""

    def __init__(self, maxsize: int = 256, policy: str = "reject") -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        if policy not in OVERFLOW_POLICIES:
            raise ValueError(
                "unknown overflow policy %r; expected one of %r"
                % (policy, OVERFLOW_POLICIES)
            )
        self.maxsize = maxsize
        self.policy = policy
        self._items: "collections.deque[Tuple[Expression, Relation]]" = (
            collections.deque()
        )
        self._lock = threading.Lock()
        #: submissions dropped by the shed-oldest policy
        self.shed = 0
        #: submissions refused by the reject policy
        self.rejected = 0
        self.accepted = 0

    def put(self, expression: Expression, relation: Relation) -> None:
        """Enqueue one answer, applying the overflow policy when full."""
        with self._lock:
            if len(self._items) >= self.maxsize:
                if self.policy == "reject":
                    self.rejected += 1
                    raise BackpressureError(
                        "pending-answer queue full (%d); submission rejected"
                        % self.maxsize
                    )
                self._items.popleft()
                self.shed += 1
            self._items.append((expression, relation))
            self.accepted += 1

    def take_for(self, expression: Expression) -> Optional[Relation]:
        """Consume the oldest queued answer for ``expression``, if any."""
        with self._lock:
            for index, (queued, relation) in enumerate(self._items):
                if queued == expression:
                    del self._items[index]
                    return relation
        return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def stats(self) -> Dict[str, int]:
        return {
            "queue_depth": len(self),
            "queue_accepted": self.accepted,
            "queue_shed": self.shed,
            "queue_rejected": self.rejected,
        }


class QueuedAnswerPlatform:
    """Platform adapter that answers tasks from a bounded answer queue.

    Tasks whose expression has a queued submission are answered from the
    queue; the rest are forwarded to the ``fallback`` platform when one
    is given, or simply left unanswered (a *partial* batch -- the
    framework's requeue-or-refund policy already handles that).
    """

    def __init__(
        self,
        queue: BoundedAnswerQueue,
        fallback=None,
    ) -> None:
        self.queue = queue
        self.fallback = fallback
        self.answered_from_queue = 0

    def post_batch(
        self, tasks: Sequence[ComparisonTask]
    ) -> Dict[ComparisonTask, Relation]:
        answers: Dict[ComparisonTask, Relation] = {}
        remaining: List[ComparisonTask] = []
        for task in tasks:
            relation = self.queue.take_for(task.expression)
            if relation is not None:
                answers[task] = relation
                self.answered_from_queue += 1
            else:
                remaining.append(task)
        if remaining and self.fallback is not None:
            answers.update(self.fallback.post_batch(remaining))
        return answers

    def __getattr__(self, name):
        if self.fallback is None:
            raise AttributeError(name)
        return getattr(self.fallback, name)


class SupervisedSession:
    """One hosted session: engine inputs, lifecycle and run loop."""

    def __init__(
        self,
        session_id: str,
        dataset,
        config,
        directory: Path,
        platform=None,
        max_pending_answers: int = 256,
        overflow_policy: str = "reject",
    ) -> None:
        self.session_id = session_id
        self.dataset = dataset
        self.config = config
        self.platform = platform
        self.journal_path = directory / ("%s.journal.jsonl" % session_id)
        self.answer_queue = BoundedAnswerQueue(
            maxsize=max_pending_answers, policy=overflow_policy
        )
        self.state = "PENDING"
        self.error: Optional[BaseException] = None
        self.restarts = 0
        #: (from_state, to_state, reason) triples, in order
        self.transitions: List[Tuple[str, str, str]] = []
        #: the thread running :meth:`run`, set by whoever starts it
        self.thread: Optional[threading.Thread] = None
        #: pending pause/cancel request (reason) and whether it cancels
        self.stop_reason: Optional[str] = None
        self.cancel_requested = False
        #: the current attempt's context (``None`` before the first)
        self.context: Optional[SessionContext] = None
        self._lock = threading.Lock()

    def _transition(self, to: str, reason: str) -> None:
        with self._lock:
            if to not in _TRANSITIONS[self.state]:
                raise RuntimeError(
                    "illegal session transition %s -> %s (%s)"
                    % (self.state, to, reason)
                )
            self.transitions.append((self.state, to, reason))
            self.state = to

    def stop(self, reason: str, cancel: bool = False) -> None:
        """Ask the run to park at its next cancellation check.

        The request stays on the session until a resume clears it, so a
        restart attempt that starts after it still parks.  With
        ``cancel`` the run ends CANCELLED instead of PAUSED.
        """
        with self._lock:
            self.stop_reason = reason
            self.cancel_requested = self.cancel_requested or cancel
            if self.context is not None:
                self.context.cancellation.cancel(reason)

    def cancel_parked(self) -> None:
        """Turn a PAUSED session whose run has returned into CANCELLED."""
        self._transition("CANCELLED", self.stop_reason or "cancelled")

    def _new_context(self) -> SessionContext:
        # A fresh context per attempt: allocator and RNG streams are
        # restored from the journal during recovery.  A pending stop
        # request carries over, so it cannot fall between two attempts.
        with self._lock:
            self.context = SessionContext(
                seed=self.config.seed, session_id=self.session_id
            )
            if self.stop_reason is not None:
                self.context.cancellation.cancel(self.stop_reason)
            return self.context

    def run(self, resume: bool = False):
        """Run the session until it completes, parks or fails.

        Returns the :class:`QueryResult`, or ``None`` when the run was
        cooperatively cancelled: the session is then PAUSED (call ``run``
        again with ``resume=True`` after clearing ``stop_reason``) or,
        after a cancel request, CANCELLED.  Other exceptions trigger
        bounded restart-with-backoff; once the budget is exhausted the
        session is FAILED and the error re-raised.
        """
        from ..core.framework import BayesCrowd

        self._transition("RUNNING", "started")
        while True:
            try:
                engine = BayesCrowd(
                    self.dataset,
                    self.config,
                    platform=self.platform,
                    session=self._new_context(),
                )
                result = engine.run(resume=resume, journal_path=self.journal_path)
            except SessionCancelledError as err:
                self.error = err
                self._transition(
                    "CANCELLED" if self.cancel_requested else "PAUSED", str(err)
                )
                return None
            except Exception as err:  # noqa: BLE001 - supervision boundary
                self.error = err
                self.restarts += 1
                if self.restarts > MAX_RESTARTS:
                    self._transition("FAILED", str(err))
                    raise
                self._transition(
                    "RUNNING",
                    "restart %d/%d after %s" % (self.restarts, MAX_RESTARTS, err),
                )
                time.sleep(
                    min(
                        RESTART_BACKOFF_CAP_S,
                        RESTART_BACKOFF_BASE_S * 2 ** (self.restarts - 1),
                    )
                )
                resume = True  # recover from the journal
                continue
            self.error = None
            if self.cancel_requested:
                outcome = "CANCELLED"
            else:
                outcome = "DEGRADED" if result.degraded else "DONE"
            self._transition(outcome, "completed")
            return result
