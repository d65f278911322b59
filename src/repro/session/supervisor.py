"""Supervised session runtime: state machine, restarts, backpressure.

The layer ROADMAP item 1's HTTP service mounts directly: a
:class:`SessionSupervisor` hosts many named BayesCrowd sessions in one
process, each fully isolated (own :class:`~repro.session.SessionContext`,
own write-ahead journal) and each driven through an explicit
lifecycle::

    PENDING -> RUNNING -> DONE
                 |   \\-> DEGRADED          (completed, faults cost info)
                 |-> PAUSED  -> RUNNING     (cooperative cancel; resumable)
                 \\-> FAILED                (restart budget exhausted)

Crashes inside a session (any exception that is not a cooperative
cancellation) are absorbed by a bounded restart-with-backoff policy:
the supervisor rebuilds the engine and resumes from the session's
journal, up to ``max_restarts`` times with exponentially
growing, capped delays.  Because recovery is bit-identical, a restarted
session converges to the same result an undisturbed one would.

Backpressure: crowd answers may land asynchronously via
:meth:`SessionSupervisor.submit_answer` into a per-session
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
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..crowd.task import ComparisonTask
from ..ctable.expression import Expression, Relation
from ..errors import BackpressureError, SessionCancelledError
from .context import SessionContext

__all__ = [
    "SESSION_STATES",
    "BoundedAnswerQueue",
    "QueuedAnswerPlatform",
    "SupervisedSession",
    "SessionSupervisor",
]

#: Session lifecycle states.
SESSION_STATES = ("PENDING", "RUNNING", "PAUSED", "DEGRADED", "FAILED", "DONE")

#: Legal state-machine transitions (from -> allowed targets).
_TRANSITIONS = {
    "PENDING": ("RUNNING",),
    "RUNNING": ("PAUSED", "DEGRADED", "FAILED", "DONE", "RUNNING"),
    "PAUSED": ("RUNNING",),
    "DEGRADED": (),
    "FAILED": (),
    "DONE": (),
}

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
    """One hosted session: engine factory inputs + lifecycle bookkeeping."""

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
        self.context = SessionContext(seed=config.seed, session_id=session_id)
        self.answer_queue = BoundedAnswerQueue(
            maxsize=max_pending_answers, policy=overflow_policy
        )
        self.state = "PENDING"
        self.result = None
        self.error: Optional[BaseException] = None
        self.restarts = 0
        #: (from_state, to_state, reason) triples, in order
        self.transitions: List[Tuple[str, str, str]] = []


class SessionSupervisor:
    """Hosts, supervises and recovers many sessions in one process."""

    def __init__(
        self,
        directory: Union[str, Path],
        max_restarts: int = 2,
        restart_backoff_base: float = 0.05,
        restart_backoff_cap: float = 2.0,
        max_pending_answers: int = 256,
        overflow_policy: str = "reject",
    ) -> None:
        if max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if restart_backoff_base < 0:
            raise ValueError("restart_backoff_base must be non-negative")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_restarts = max_restarts
        self.restart_backoff_base = restart_backoff_base
        self.restart_backoff_cap = restart_backoff_cap
        self.max_pending_answers = max_pending_answers
        self.overflow_policy = overflow_policy
        self._sessions: Dict[str, SupervisedSession] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------
    def create(self, session_id: str, dataset, config, platform=None) -> SupervisedSession:
        """Register a session (its files live under the supervisor dir)."""
        with self._lock:
            if session_id in self._sessions:
                raise ValueError("session %r already exists" % session_id)
            session = SupervisedSession(
                session_id,
                dataset,
                config,
                self.directory,
                platform=platform,
                max_pending_answers=self.max_pending_answers,
                overflow_policy=self.overflow_policy,
            )
            self._sessions[session_id] = session
            return session

    def get(self, session_id: str) -> SupervisedSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise KeyError("unknown session %r" % session_id) from None

    def sessions(self) -> List[SupervisedSession]:
        with self._lock:
            return list(self._sessions.values())

    # ------------------------------------------------------------------
    # state machine
    # ------------------------------------------------------------------
    def _transition(self, session: SupervisedSession, to: str, reason: str) -> None:
        with self._lock:
            allowed = _TRANSITIONS.get(session.state, ())
            if to not in allowed:
                raise RuntimeError(
                    "illegal session transition %s -> %s (%s)"
                    % (session.state, to, reason)
                )
            session.transitions.append((session.state, to, reason))
            session.state = to
            if not _TRANSITIONS[to]:
                # A terminal session never runs again: drop the engine's
                # inputs so a long-lived host does not keep one dataset
                # copy per finished session.
                session.dataset = session.platform = None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, session_id: str, resume: bool = False):
        """Run one session to completion under supervision.

        Returns the :class:`QueryResult`, or ``None`` when the session
        was cooperatively cancelled (state ``PAUSED`` -- call ``run``
        again with ``resume=True`` to continue it).  Non-cancellation
        exceptions trigger bounded restart-with-backoff; once the budget
        is exhausted the session is ``FAILED`` and the error re-raised.
        """
        from ..core.framework import BayesCrowd

        session = self.get(session_id)
        self._transition(session, "RUNNING", "started")
        attempt_resume = resume
        while True:
            # A fresh context per attempt: allocator and RNG streams are
            # restored from the journal during recovery, and a
            # possibly-tripped cancellation token must not leak into the
            # retry.  Deadlines re-arm from the config each attempt.
            session.context = SessionContext(
                seed=session.config.seed, session_id=session.session_id
            )
            deadline = getattr(session.config, "session_deadline_s", 0.0)
            if deadline:
                session.context.cancellation.set_deadline(deadline)
            try:
                engine = BayesCrowd(
                    session.dataset,
                    session.config,
                    platform=session.platform,
                    session=session.context,
                )
                result = engine.run(
                    resume=attempt_resume,
                    journal_path=session.journal_path,
                )
            except SessionCancelledError as err:
                session.error = err
                self._transition(session, "PAUSED", str(err))
                return None
            except Exception as err:  # noqa: BLE001 - supervision boundary
                session.error = err
                session.restarts += 1
                if session.restarts > self.max_restarts:
                    self._transition(session, "FAILED", str(err))
                    raise
                delay = min(
                    self.restart_backoff_cap,
                    self.restart_backoff_base * (2 ** (session.restarts - 1)),
                )
                self._transition(
                    session,
                    "RUNNING",
                    "restart %d/%d after %s"
                    % (session.restarts, self.max_restarts, err),
                )
                if delay > 0:
                    time.sleep(delay)
                attempt_resume = True  # recover from the journal
                continue
            session.result = result
            session.error = None
            self._transition(
                session,
                "DEGRADED" if result.degraded else "DONE",
                "completed",
            )
            return result

    def run_all(self, parallel: bool = True) -> Dict[str, object]:
        """Run every PENDING session; with ``parallel`` each gets a thread.

        Running sessions concurrently is safe because the engine is
        re-entrant: each session's RNG streams, caches and task ids are
        context-local.  Returns ``{session_id: result-or-None}``.
        """
        pending = [s for s in self.sessions() if s.state == "PENDING"]
        results: Dict[str, object] = {}
        if not parallel:
            for session in pending:
                results[session.session_id] = self.run(session.session_id)
            return results
        errors: Dict[str, BaseException] = {}

        def _target(sid: str) -> None:
            try:
                results[sid] = self.run(sid)
            except BaseException as err:  # noqa: BLE001 - collected below
                errors[sid] = err

        threads = [
            threading.Thread(target=_target, args=(s.session_id,), daemon=True)
            for s in pending
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for sid, err in errors.items():
            results.setdefault(sid, None)
        return results

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def pause(self, session_id: str, reason: str = "paused by supervisor") -> None:
        """Cooperatively cancel a running session (it becomes PAUSED)."""
        self.get(session_id).context.cancellation.cancel(reason)

    def submit_answer(
        self, session_id: str, expression: Expression, relation: Relation
    ) -> None:
        """Queue an asynchronously arriving crowd answer (backpressured)."""
        self.get(session_id).answer_queue.put(expression, relation)

    def state(self, session_id: str) -> str:
        return self.get(session_id).state

    def stats(self) -> Dict[str, Dict[str, object]]:
        """Per-session supervision counters (for the obs layer)."""
        out: Dict[str, Dict[str, object]] = {}
        for session in self.sessions():
            entry: Dict[str, object] = {
                "state": session.state,
                "restarts": session.restarts,
            }
            entry.update(session.answer_queue.stats())
            out[session.session_id] = entry
        return out
