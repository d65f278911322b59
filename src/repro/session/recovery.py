"""Crash recovery: replay the write-ahead journal into live state.

Recovery contract (the crash-matrix tests assert it literally): for a
seeded run, replaying the journal reproduces the uninterrupted run's
state bit-identically, no matter where between two journal appends the
process died.  The journal is the only durable run state: its
``round_commit`` records carry the budget, carried-over pending tasks
and RNG/platform/allocator snapshots of every completed round, so the
whole run replays from record 1.

Replay is idempotent per record: an ``answer`` whose task id the ledger
already holds is skipped (applied once, charged once), and a
``round_commit`` whose round the history already covers appends no
second history entry.

If the journal ends inside a round (a ``round_begin`` without its
``round_commit``), replay additionally returns an
:class:`InterruptedRound`: the journaled task batch plus the
round-start RNG/platform/allocator snapshots.  The framework finishes
that round by restoring the snapshots and re-posting the *same* tasks --
the simulated platform then reproduces the same answers, and answers
already journaled are recognised by task id and skipped (idempotent
re-application), so the recovered run rejoins the uninterrupted run's
trajectory exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..crowd.integrity import AnswerLedger
from ..crowd.quality import WorkerReliability
from ..crowd.task import ComparisonTask
from ..ctable.ctable import CTable
from ..ctable.expression import Relation
from ..errors import CheckpointError
from .journal import JournalRecord

__all__ = [
    "InterruptedRound",
    "RecoveredState",
    "task_to_payload",
    "task_from_payload",
    "recover_run_state",
]


def task_to_payload(task: ComparisonTask) -> dict:
    """JSON view of a task, preserving its id and re-ask lineage."""
    from ..persistence import expression_to_json

    return {
        "task_id": task.task_id,
        "expression": expression_to_json(task.expression),
        "for_object": task.for_object,
        "reask_of": task.reask_of,
    }


def task_from_payload(payload: dict) -> ComparisonTask:
    """Inverse of :func:`task_to_payload` (explicit id, no allocation)."""
    from ..persistence import expression_from_json

    return ComparisonTask(
        expression_from_json(payload["expression"]),
        for_object=payload.get("for_object"),
        task_id=int(payload["task_id"]),
        reask_of=payload.get("reask_of"),
    )


@dataclass
class InterruptedRound:
    """A journaled round the crash cut short, ready to re-execute."""

    round_index: int
    #: open conditions before any of the round's answers (journaled, so
    #: the recovered RoundRecord matches the uninterrupted one)
    open_before: int
    tasks: List[ComparisonTask]
    leftover_pending: List[ComparisonTask]
    #: framework RNG state captured just before the batch was posted
    rng_state: Optional[dict]
    platform_state: Optional[dict]
    task_ids_state: Optional[dict]
    #: task id -> journaled ``answer`` payload (already replayed)
    journaled: Dict[int, dict] = field(default_factory=dict)
    #: quarantined task id -> journaled ``reask`` payload
    reasks: Dict[int, dict] = field(default_factory=dict)


@dataclass
class RecoveredState:
    """Everything the crowdsourcing loop needs to continue a run."""

    budget_left: int
    history: List
    pending: List[ComparisonTask]
    fault_totals: Dict[str, int]
    degraded: bool
    resumed: bool
    #: post-commit snapshots (None = nothing to restore)
    rng_state: Optional[dict] = None
    platform_state: Optional[dict] = None
    task_ids_state: Optional[dict] = None
    interrupted: Optional[InterruptedRound] = None
    #: suffix answers folded into the c-table/ledger during replay
    replayed_answers: int = 0
    #: suffix answers skipped because their task id was already in the
    #: ledger (the idempotent re-application guarantee)
    deduped_answers: int = 0


def recover_run_state(
    ctable: CTable,
    ledger: AnswerLedger,
    reliability: WorkerReliability,
    fingerprint: Dict[str, object],
    initial_budget: int,
    journal_records: Optional[Sequence[JournalRecord]] = None,
) -> RecoveredState:
    """Replay a journal into a freshly built c-table and ledger.

    Mutates ``ctable``/``ledger``/``reliability`` in place (exactly the
    way the live loop would have) and returns the loop state.  Raises
    :class:`CheckpointError` when the journal belongs to a different
    query than ``fingerprint``.
    """
    from ..persistence import _round_from_dict, expression_from_json

    state = RecoveredState(
        budget_left=initial_budget,
        history=[],
        pending=[],
        fault_totals={},
        degraded=False,
        resumed=False,
    )
    interrupted: Optional[InterruptedRound] = None
    for record in journal_records or ():
        if record.kind == "open":
            recorded = record.payload.get("fingerprint")
            if recorded != fingerprint:
                raise CheckpointError(
                    "journal belongs to a different query: %r != %r"
                    % (recorded, fingerprint)
                )
            continue
        state.resumed = True
        payload = record.payload
        if record.kind == "round_begin":
            interrupted = InterruptedRound(
                round_index=int(payload["round"]),
                open_before=int(payload["open_before"]),
                tasks=[task_from_payload(t) for t in payload["tasks"]],
                leftover_pending=[
                    task_from_payload(t) for t in payload.get("leftover_pending", [])
                ],
                rng_state=payload.get("rng_state"),
                platform_state=payload.get("platform_state"),
                task_ids_state=payload.get("task_ids"),
            )
        elif record.kind == "answer":
            task_id = payload.get("task_id")
            if task_id is not None and ledger.has_task(task_id):
                # Idempotent re-application: an answer already in the
                # ledger (a repeated record) is a no-op.
                state.deduped_answers += 1
                if interrupted is not None:
                    interrupted.journaled[task_id] = payload
                continue
            expression = expression_from_json(payload["expression"])
            relation = Relation(payload["relation"])
            votes = tuple(
                (int(wid), Relation(rel)) for wid, rel in payload.get("votes", [])
            )
            ledger.record(
                expression,
                relation,
                status=payload["status"],
                reason=payload.get("reason"),
                round_index=int(payload.get("round", 0)),
                task_id=task_id,
                votes=votes,
                reask_of=payload.get("reask_of"),
            )
            if payload["status"] == "applied":
                ctable.apply_answer(expression, relation)
                reliability.observe_votes(votes, relation)
            state.budget_left -= int(payload.get("charge", 1))
            state.replayed_answers += 1
            if interrupted is not None and task_id is not None:
                interrupted.journaled[task_id] = payload
        elif record.kind == "reask":
            task_id = payload.get("task_id")
            if task_id is not None and ledger.has_task(int(task_id)):
                # A repeated record: the re-ask's answer is already in
                # the ledger, so this attempt was counted.
                continue
            expression = expression_from_json(payload["expression"])
            ledger.note_reask(expression)
            if interrupted is not None:
                interrupted.reasks[int(payload["of_task"])] = payload
        elif record.kind == "round_commit":
            # Idempotent like answers: a repeated commit whose round the
            # history already covers must not append a duplicate entry
            # (its snapshots still supersede below).
            round_index = int(payload.get("round", len(state.history) + 1))
            if round_index > len(state.history):
                state.history.append(_round_from_dict(payload["record"]))
            state.budget_left = int(payload["budget_left"])
            state.pending = [task_from_payload(t) for t in payload.get("pending", [])]
            state.fault_totals = {
                k: int(v) for k, v in payload.get("fault_totals", {}).items()
            }
            state.degraded = bool(payload.get("degraded", False))
            state.rng_state = payload.get("rng_state")
            state.platform_state = payload.get("platform_state")
            state.task_ids_state = payload.get("task_ids")
            interrupted = None
    state.interrupted = interrupted
    return state

