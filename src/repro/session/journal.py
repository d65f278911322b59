"""Durable write-ahead answer journal (append-only JSONL + checksums).

The journal is a run's only durable state.  The paper charges every
crowd answer against the budget, so a resumed run must never pay for an
answer twice -- not even one from the round a crash cut short.  Every
irrevocable event of the crowdsourcing loop -- an accepted answer, a
quarantine decision, a re-ask issue, a round boundary -- is appended and
``fsync``-ed *before* the corresponding engine state mutates, so after a
crash at any instant the journal contains exactly the decisions that
were (or were about to be) applied, and recovery replays them to a
bit-identical state.

Wire format: one JSON object per line::

    {"seq": 7, "kind": "answer", "payload": {...}, "crc": "9f3a0c11"}

* ``seq`` increases by exactly 1 from 1; a gap means a lost record and
  the file is rejected;
* ``crc`` is the CRC-32 of the canonical JSON of the record without the
  ``crc`` field, so bit rot anywhere in a line is detected;
* a *torn tail* -- the final line a crash interrupted mid-write -- is
  expected and silently dropped by :func:`read_journal`; its record was
  by construction never applied (journal-before-mutate).  Corruption
  anywhere before the tail raises
  :class:`~repro.errors.JournalCorruptError`.

Record kinds (see :mod:`repro.session.recovery` for replay semantics):

``open``
    file header: fingerprint of the owning query + format version;
``round_begin``
    the round's issued tasks plus the RNG/platform/allocator snapshots
    needed to re-execute the round deterministically after a crash;
``answer``
    one aggregated crowd answer with its integrity verdict and budget
    charge -- appended before the c-table/ledger mutate;
``reask``
    a bounded re-ask issued for a quarantined answer;
``round_commit``
    the completed round: its :class:`RoundRecord` fields, remaining
    budget, carried-over pending tasks and post-round state snapshots
    (so the journal alone recovers the whole run; it is never compacted).
"""

from __future__ import annotations

import json
import os
import signal
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..errors import JournalCorruptError, JournalError

__all__ = [
    "JOURNAL_VERSION",
    "RECORD_KINDS",
    "JournalRecord",
    "AnswerJournal",
    "read_journal",
    "journal_problems",
]

#: format version written into the ``open`` record
JOURNAL_VERSION = 1

#: every record kind the replayer understands
RECORD_KINDS = ("open", "round_begin", "answer", "reask", "round_commit")


def _canonical(seq: int, kind: str, payload: dict) -> str:
    return json.dumps(
        {"seq": seq, "kind": kind, "payload": payload},
        sort_keys=True,
        separators=(",", ":"),
    )


def _crc(seq: int, kind: str, payload: dict) -> str:
    return "%08x" % (zlib.crc32(_canonical(seq, kind, payload).encode("utf-8")))


@dataclass(frozen=True)
class JournalRecord:
    """One verified journal record."""

    seq: int
    kind: str
    payload: Dict


class AnswerJournal:
    """Append-only, fsync-per-record JSONL journal.

    Opening an existing file resumes its sequence: the journal reads and
    verifies what is already there (dropping a torn tail) and appends
    after the last intact record.  ``fsync=False`` trades durability of
    the last few records for speed (tests, benchmarks); the write-ahead
    ordering guarantee is unaffected.

    ``crash_after`` is a test hook for the crash-injection matrix: after
    the N-th successful append *of this process* the journal delivers
    ``SIGKILL`` to its own process, simulating a crash exactly on a
    journal-append boundary.  Production code never sets it.
    """

    def __init__(
        self,
        path: Union[str, Path],
        fsync: bool = True,
        crash_after: Optional[int] = None,
    ) -> None:
        self.path = Path(path)
        self.fsync = bool(fsync)
        self.crash_after = crash_after
        self.appends = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        existing: List[JournalRecord] = []
        if self.path.exists():
            existing = read_journal(self.path)
            # Drop any torn tail bytes so the next append starts on a
            # clean line boundary.
            self._rewrite_if_torn(existing)
        self._last_seq = existing[-1].seq if existing else 0
        self._file = open(self.path, "a", encoding="utf-8")

    def _rewrite_if_torn(self, records: List[JournalRecord]) -> None:
        """Truncate a torn final line left by a crash mid-write."""
        intact = sum(
            len(
                json.dumps(
                    {
                        "seq": r.seq,
                        "kind": r.kind,
                        "payload": r.payload,
                        "crc": _crc(r.seq, r.kind, r.payload),
                    },
                    sort_keys=True,
                    separators=(",", ":"),
                )
                + "\n"
            )
            for r in records
        )
        size = self.path.stat().st_size
        if size > intact:
            with open(self.path, "r+", encoding="utf-8") as handle:
                handle.truncate(intact)

    # ------------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Sequence number of the last durable record (0 = empty)."""
        return self._last_seq

    def append(self, kind: str, payload: dict) -> int:
        """Durably append one record; returns its sequence number.

        The record is written, flushed and (by default) fsync-ed before
        this method returns -- callers mutate state only afterwards,
        which is the write-ahead contract recovery relies on.
        """
        if kind not in RECORD_KINDS:
            raise JournalError("unknown journal record kind %r" % kind)
        if self._file is None:
            raise JournalError("journal at %s is closed" % self.path)
        seq = self._last_seq + 1
        record = {
            "seq": seq,
            "kind": kind,
            "payload": payload,
            "crc": _crc(seq, kind, payload),
        }
        self._file.write(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        )
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
        self._last_seq = seq
        self.appends += 1
        if self.crash_after is not None and self.appends >= self.crash_after:
            # Crash-injection matrix: die *after* the append is durable,
            # i.e. exactly on the boundary between two appends.
            os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover
        return seq

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "AnswerJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> Dict[str, int]:
        return {"journal_appends": self.appends, "journal_last_seq": self._last_seq}


def read_journal(path: Union[str, Path]) -> List[JournalRecord]:
    """Read and verify a journal; a torn final line is dropped.

    Raises :class:`JournalCorruptError` on a checksum or sequence failure
    anywhere before the final line -- under the append-with-fsync
    discipline only the very last record can legitimately be damaged.
    """
    path = Path(path)
    try:
        raw_lines = path.read_text(encoding="utf-8").split("\n")
    except OSError as err:
        raise JournalError("unreadable journal at %s: %s" % (path, err)) from err
    # split("\n") leaves a trailing "" for a file ending in a newline; a
    # non-empty final element is a line the crash cut short of "\n".
    lines = [line for line in raw_lines if line != ""]
    records: List[JournalRecord] = []
    for index, line in enumerate(lines):
        is_tail = index == len(lines) - 1
        try:
            data = json.loads(line)
            seq = int(data["seq"])
            kind = str(data["kind"])
            payload = data["payload"]
            crc = str(data["crc"])
        except (ValueError, KeyError, TypeError) as err:
            if is_tail:
                break  # torn tail: record never applied, drop it
            raise JournalCorruptError(
                "journal %s record %d is unparseable: %s" % (path, index + 1, err)
            ) from err
        if crc != _crc(seq, kind, payload):
            if is_tail:
                break
            raise JournalCorruptError(
                "journal %s record %d failed its checksum" % (path, index + 1)
            )
        if seq != len(records) + 1:
            raise JournalCorruptError(
                "journal %s record %d has sequence %d (expected %d)"
                % (path, index + 1, seq, len(records) + 1)
            )
        records.append(JournalRecord(seq=seq, kind=kind, payload=payload))
    return records


def journal_problems(path: Union[str, Path]) -> List[str]:
    """Structural problems with a journal file (empty list = consistent).

    Beyond the per-record checksum/sequence verification of
    :func:`read_journal`, checks the replay invariants the recovery path
    relies on: the first record is an ``open`` header, every ``answer``
    and ``reask`` falls inside a ``round_begin``-ed round, rounds commit
    in order, and no task id is journaled as answered twice.
    """
    try:
        records = read_journal(path)
    except (JournalError, JournalCorruptError) as err:
        return [str(err)]
    problems: List[str] = []
    if not records:
        return ["journal is empty"]
    if records[0].kind != "open":
        problems.append("first record is %r, expected 'open'" % records[0].kind)
    open_round: Optional[int] = None
    committed = 0
    answered_ids = set()
    for record in records:
        if record.kind == "round_begin":
            if open_round is not None:
                problems.append(
                    "round %d began before round %d committed"
                    % (record.payload.get("round"), open_round)
                )
            open_round = record.payload.get("round")
            if open_round != committed + 1:
                problems.append(
                    "round_begin %r out of order (expected %d)"
                    % (open_round, committed + 1)
                )
        elif record.kind in ("answer", "reask"):
            if open_round is None:
                problems.append(
                    "%s record %d outside any round" % (record.kind, record.seq)
                )
            if record.kind == "answer":
                task_id = record.payload.get("task_id")
                if task_id is not None:
                    if task_id in answered_ids:
                        problems.append(
                            "task %r answered twice (record %d)"
                            % (task_id, record.seq)
                        )
                    answered_ids.add(task_id)
        elif record.kind == "round_commit":
            if record.payload.get("round") != open_round:
                problems.append(
                    "round_commit %r does not match open round %r"
                    % (record.payload.get("round"), open_round)
                )
            open_round = None
            committed += 1
    return problems
