"""Answer-integrity ledger: provenance, contradiction detection, quarantine.

The fault-tolerance layer (PR 1) made the crowd *platform* survivable,
but the pipeline still trusted every aggregated answer: a spam or
adversarial majority can write a contradictory resolution -- ``a < b``
and ``b < a`` through transitivity, or a re-answer that flips a decided
variable -- straight into the c-table, silently corrupting every
downstream ``Pr(phi(o))``.  Noisy-comparison skyline theory
(Mallmann-Trenn et al.) shows re-asking under learned error rates is the
principled fix; this module supplies the bookkeeping:

* :class:`AnswerLedger` -- an append-only ledger of every aggregated
  answer with per-variable provenance (round, task, worker votes);
* **contradiction detection** before an answer is applied: direct
  conflicts on the same variable and transitivity-cycle detection over
  the partial order implied by accepted ``<``/``=``/``>`` answers,
  delegated to :meth:`repro.ctable.constraints.VariableConstraints.conflict`
  (which already maintains the transitive closure of accepted answers);
* **quarantine** -- a conflicting answer is recorded charged-but-flagged
  and never applied; the framework's bounded re-ask policy re-posts the
  expression, weighting the new votes by the online
  :class:`~repro.crowd.quality.WorkerReliability` estimates.

The ledger maintains the accounting invariant checked by
``python -m repro.obs --integrity``::

    answers_quarantined + answers_applied == answers_aggregated
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..ctable.constraints import VariableConstraints
from ..ctable.expression import Expression, Relation

__all__ = ["LedgerEntry", "AnswerLedger", "CONFLICT_REASONS"]

#: Conflict taxonomy reported by the detector (see
#: :meth:`VariableConstraints.conflict` for the semantics of each).
CONFLICT_REASONS = ("direct", "cycle", "empty-domain", "bounds")

#: Ledger entry statuses.
STATUSES = ("applied", "quarantined")


@dataclass(frozen=True)
class LedgerEntry:
    """One aggregated crowd answer with its provenance and verdict."""

    #: position in the ledger (0-based, append order)
    seq: int
    expression: Expression
    relation: Relation
    #: ``"applied"`` (folded into the c-table) or ``"quarantined"``
    #: (charged-but-flagged, never applied)
    status: str
    #: conflict reason when the detector flagged this answer (an applied
    #: entry may carry a reason too: non-strict runs apply-but-flag)
    reason: Optional[str] = None
    #: crowdsourcing round the answer arrived in (0 = unknown)
    round_index: int = 0
    #: platform task id the answer came from
    task_id: Optional[int] = None
    #: raw worker votes ``(worker_id, Relation)`` behind the aggregation
    votes: Tuple = ()
    #: task id of the quarantined original, when this answer is a re-ask
    reask_of: Optional[int] = None

    def is_conflict(self) -> bool:
        return self.reason is not None


class AnswerLedger:
    """Append-only ledger of aggregated answers with integrity checks.

    Two usage modes:

    * **attached** (the framework): constructed with the c-table's own
      :class:`VariableConstraints`, so :meth:`check` sees exactly the
      accepted answers -- the framework applies accepted answers through
      :meth:`CTable.apply_answer` itself;
    * **standalone** (tests, offline audits): constructed with
      ``domain_sizes``; :meth:`observe` then also applies accepted
      answers to the ledger's private constraint store.
    """

    def __init__(
        self,
        constraints: Optional[VariableConstraints] = None,
        domain_sizes: Optional[Sequence[int]] = None,
        inference_mode: str = "full",
    ) -> None:
        if constraints is None:
            if domain_sizes is None:
                raise ValueError(
                    "an AnswerLedger needs either a constraints store or "
                    "domain_sizes to build its own"
                )
            constraints = VariableConstraints(domain_sizes, mode=inference_mode)
            self._owns_constraints = True
        else:
            self._owns_constraints = False
        self.constraints = constraints
        self._entries: List[LedgerEntry] = []
        #: task ids already recorded (journal-replay dedupe)
        self._task_ids: set = set()
        #: re-ask attempts per expression (the bounded-re-ask bookkeeping)
        self._reask_attempts: Dict[Expression, int] = {}
        self.answers_applied = 0
        self.answers_quarantined = 0
        self.answers_reasked = 0
        self.contradictions_detected = 0
        self._conflicts_by_reason: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # core API
    # ------------------------------------------------------------------
    @property
    def answers_aggregated(self) -> int:
        """Every answer ever recorded (applied + quarantined)."""
        return len(self._entries)

    def check(self, expression: Expression, relation: Relation) -> Optional[str]:
        """Conflict reason against the accepted answers, or ``None``.

        Detects direct conflicts (the answer flips a variable the
        accepted answers already decide, directly or transitively) and
        transitivity cycles / emptied domains over the partial order of
        accepted ``<``/``=``/``>`` answers per attribute.
        """
        return self.constraints.conflict(expression, relation)

    def has_task(self, task_id: int) -> bool:
        """Is an answer for this task id already in the ledger?

        Journal replay uses this to make re-application idempotent: an
        answer whose task id is already recorded (a repeated journal
        record, or a resumed round reproducing it) is a no-op.
        """
        return task_id in self._task_ids

    def observe(
        self,
        expression: Expression,
        relation: Relation,
        strict: bool = True,
        round_index: int = 0,
        task_id: Optional[int] = None,
        votes: Sequence[Tuple[int, Relation]] = (),
        reask_of: Optional[int] = None,
    ) -> LedgerEntry:
        """Check one aggregated answer and append its ledger entry.

        With ``strict=True`` a conflicting answer is quarantined (never
        applied); otherwise it is applied-but-flagged, preserving the
        historical trust-everything behaviour while still recording the
        contradiction.  In standalone mode accepted answers are folded
        into the ledger's own constraint store so later checks see them.
        """
        reason = self.check(expression, relation)
        status = "quarantined" if (reason is not None and strict) else "applied"
        entry = self.record(
            expression,
            relation,
            status=status,
            reason=reason,
            round_index=round_index,
            task_id=task_id,
            votes=votes,
            reask_of=reask_of,
        )
        if status == "applied" and self._owns_constraints:
            self.constraints.apply_answer(expression, relation)
        return entry

    def record(
        self,
        expression: Expression,
        relation: Relation,
        status: str,
        reason: Optional[str] = None,
        round_index: int = 0,
        task_id: Optional[int] = None,
        votes: Sequence[Tuple[int, Relation]] = (),
        reask_of: Optional[int] = None,
    ) -> LedgerEntry:
        """Append one entry (no checking, no application) and count it."""
        if status not in STATUSES:
            raise ValueError(
                "unknown ledger status %r; expected one of %r" % (status, STATUSES)
            )
        entry = LedgerEntry(
            seq=len(self._entries),
            expression=expression,
            relation=relation,
            status=status,
            reason=reason,
            round_index=round_index,
            task_id=task_id,
            votes=tuple(votes),
            reask_of=reask_of,
        )
        self._entries.append(entry)
        if task_id is not None:
            self._task_ids.add(task_id)
        if status == "applied":
            self.answers_applied += 1
        else:
            self.answers_quarantined += 1
        if reason is not None:
            self.contradictions_detected += 1
            self._conflicts_by_reason[reason] = (
                self._conflicts_by_reason.get(reason, 0) + 1
            )
        return entry

    # ------------------------------------------------------------------
    # re-ask bookkeeping
    # ------------------------------------------------------------------
    def reask_attempts(self, expression: Expression) -> int:
        return self._reask_attempts.get(expression, 0)

    def note_reask(self, expression: Expression) -> int:
        """Count one re-ask of an expression; returns the attempt number."""
        attempts = self._reask_attempts.get(expression, 0) + 1
        self._reask_attempts[expression] = attempts
        self.answers_reasked += 1
        return attempts

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def entries(self) -> List[LedgerEntry]:
        return list(self._entries)

    def quarantined(self) -> List[LedgerEntry]:
        return [e for e in self._entries if e.status == "quarantined"]

    def applied(self) -> List[LedgerEntry]:
        return [e for e in self._entries if e.status == "applied"]

    def accounting_ok(self) -> bool:
        """The invariant the obs verifier checks."""
        return (
            self.answers_quarantined + self.answers_applied
            == self.answers_aggregated
        )

    def summary(self) -> Dict[str, int]:
        """Flat integer counters (absorbable into a MetricsRegistry)."""
        out = {
            "answers_aggregated": self.answers_aggregated,
            "answers_applied": self.answers_applied,
            "answers_quarantined": self.answers_quarantined,
            "answers_reasked": self.answers_reasked,
            "contradictions_detected": self.contradictions_detected,
        }
        for reason in CONFLICT_REASONS:
            out["conflict_%s" % reason.replace("-", "_")] = (
                self._conflicts_by_reason.get(reason, 0)
            )
        return out

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LedgerEntry]:
        return iter(self._entries)
