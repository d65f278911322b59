"""Crash-safe session runtime.

Layers, bottom up:

* :mod:`~repro.session.cancellation` -- cooperative cancel tokens with
  deadline propagation;
* :mod:`~repro.session.context` -- per-session RNG streams, task-id
  allocation and the ambient-session ContextVar (re-entrancy);
* :mod:`~repro.session.journal` -- durable write-ahead answer journal
  (append-only JSONL, fsync + per-record checksums);
* :mod:`~repro.session.recovery` -- journal replay to bit-identical
  run state;
* :mod:`~repro.session.supervisor` -- per-session state machine,
  bounded restart-with-backoff, backpressured answer intake.
"""

from .cancellation import CancellationToken
from .context import SessionContext, TaskIdAllocator, current_session, session_rng
from .journal import (
    JOURNAL_VERSION,
    RECORD_KINDS,
    AnswerJournal,
    JournalRecord,
    journal_problems,
    read_journal,
)
from .recovery import (
    InterruptedRound,
    RecoveredState,
    recover_run_state,
    task_from_payload,
    task_to_payload,
)
from .supervisor import (
    SESSION_STATES,
    BoundedAnswerQueue,
    QueuedAnswerPlatform,
    SessionSupervisor,
    SupervisedSession,
)

__all__ = [
    "CancellationToken",
    "SessionContext",
    "TaskIdAllocator",
    "current_session",
    "session_rng",
    "JOURNAL_VERSION",
    "RECORD_KINDS",
    "AnswerJournal",
    "JournalRecord",
    "journal_problems",
    "read_journal",
    "InterruptedRound",
    "RecoveredState",
    "recover_run_state",
    "task_from_payload",
    "task_to_payload",
    "SESSION_STATES",
    "BoundedAnswerQueue",
    "QueuedAnswerPlatform",
    "SessionSupervisor",
    "SupervisedSession",
]
