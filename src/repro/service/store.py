"""Persistent on-disk dataset/session store of the query service.

Layout under one root directory::

    root/
      index.json                   # store index (ids + kinds), atomic
      datasets/<id>.npz            # dataset payload (save_dataset)
      datasets/<id>.meta.json      # creation metadata
      sessions/<sid>.meta.json     # session record: dataset, config, state
      sessions/<sid>.journal.jsonl # write-ahead answer journal (engine)
      sessions/<sid>.trace.jsonl   # EventLog JSONL (the wire format)
      sessions/<sid>.metrics.json  # final metrics snapshot
      sessions/<sid>.result.json   # final QueryResult (save_result)
      sessions/<sid>.answers.jsonl # durable queued-answer submissions

Every whole-file write goes through :func:`repro.persistence.atomic_write`
(temp + fsync + rename), so a crash at any instant leaves each artifact
either absent, old, or new -- never torn.  The journal and the answers
log are append-only JSONL by design (their durability model is
fsync-per-record, not whole-file replacement).

The store is the source of truth for every session state a route
reports, and the only record of a finished session: the service holds
live sessions in memory and drops each one once its terminal meta is
written (after ``result.json``).  :meth:`recoverable_sessions` returns
every session whose last persisted state is non-terminal, which is
exactly the set the service re-opens through journal recovery at
startup.  The journal is a session's only durable
run state: the engine resumes from it alone, and a file not listed
above (such as the per-round state file an older release wrote beside
the journal) is never read.
"""

from __future__ import annotations

import json
import os
import re
import threading
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..datasets.dataset import IncompleteDataset
from ..errors import DataValidationError
from ..persistence import atomic_write, load_dataset, save_dataset
from ..session.supervisor import TERMINAL_STATES
from .http import HTTPError

__all__ = ["ServiceStore", "DurableAnswerLog", "valid_identifier"]

_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def valid_identifier(value: str) -> str:
    """Validate a client-supplied dataset/session id (path-safety)."""
    if not isinstance(value, str) or not _ID_RE.match(value):
        raise HTTPError(
            400,
            "invalid identifier %r: expected 1-64 chars of [A-Za-z0-9._-] "
            "not starting with a dot or dash" % (value,),
        )
    return value


class DurableAnswerLog:
    """Append-only fsynced JSONL of accepted crowd-answer submissions.

    Queued answers live in memory until the engine consumes them; this
    sidecar makes the *acceptance* durable, so a SIGKILL between "202
    accepted" and consumption does not silently lose the submission.
    On recovery the service re-enqueues every logged submission that the
    engine journal has not already consumed (at-least-once redelivery;
    consumption is matched per expression+relation occurrence count).
    """

    def __init__(self, path: Union[str, Path], fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._lock = threading.Lock()

    def append(self, expression_json: dict, relation_value: int) -> None:
        record = json.dumps(
            {"expression": expression_json, "relation": relation_value},
            sort_keys=True,
        )
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(record + "\n")
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())

    def load(self) -> List[dict]:
        """Every logged submission, in order (torn tail lines dropped)."""
        if not self.path.exists():
            return []
        records = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    break  # torn tail from a crash mid-append
        return records


class ServiceStore:
    """Filesystem-backed registry of datasets and sessions."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.datasets_dir = self.root / "datasets"
        self.sessions_dir = self.root / "sessions"
        for directory in (self.root, self.datasets_dir, self.sessions_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # index
    # ------------------------------------------------------------------
    def _write_index(self) -> None:
        index = {
            "datasets": self.dataset_ids(),
            "sessions": self.session_ids(),
        }
        atomic_write(
            self.root / "index.json",
            lambda handle: json.dump(index, handle, indent=2, sort_keys=True),
        )

    def dataset_ids(self) -> List[str]:
        return sorted(
            p.name[: -len(".meta.json")]
            for p in self.datasets_dir.glob("*.meta.json")
        )

    def session_ids(self) -> List[str]:
        return sorted(
            p.name[: -len(".meta.json")]
            for p in self.sessions_dir.glob("*.meta.json")
        )

    # ------------------------------------------------------------------
    # datasets
    # ------------------------------------------------------------------
    def dataset_path(self, dataset_id: str) -> Path:
        return self.datasets_dir / ("%s.npz" % dataset_id)

    def save_dataset(
        self, dataset_id: str, dataset: IncompleteDataset, meta: dict
    ) -> dict:
        with self._lock:
            if self.dataset_path(dataset_id).exists():
                raise HTTPError(409, "dataset %r already exists" % dataset_id)
            save_dataset(dataset, self.dataset_path(dataset_id))
            record = dict(meta)
            record.update(
                dataset_id=dataset_id,
                n_objects=dataset.n_objects,
                n_attributes=dataset.n_attributes,
                missing_rate=dataset.missing_rate,
                has_ground_truth=bool(dataset.has_ground_truth()),
            )
            atomic_write(
                self.datasets_dir / ("%s.meta.json" % dataset_id),
                lambda handle: json.dump(record, handle, indent=2, sort_keys=True),
            )
            self._write_index()
            return record

    def load_dataset(self, dataset_id: str) -> IncompleteDataset:
        path = self.dataset_path(dataset_id)
        if not path.exists():
            raise HTTPError(404, "unknown dataset %r" % dataset_id)
        try:
            return load_dataset(path)
        except (OSError, ValueError, DataValidationError) as err:
            raise HTTPError(500, "unreadable dataset %r: %s" % (dataset_id, err))

    def dataset_meta(self, dataset_id: str) -> dict:
        path = self.datasets_dir / ("%s.meta.json" % dataset_id)
        if not path.exists():
            raise HTTPError(404, "unknown dataset %r" % dataset_id)
        return json.loads(path.read_text())

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def session_file(self, session_id: str, suffix: str) -> Path:
        return self.sessions_dir / ("%s.%s" % (session_id, suffix))

    def create_session(self, session_id: str, meta: dict) -> dict:
        with self._lock:
            path = self.session_file(session_id, "meta.json")
            if path.exists():
                raise HTTPError(409, "session %r already exists" % session_id)
            record = dict(meta)
            record.setdefault("state", "PENDING")
            record["session_id"] = session_id
            atomic_write(
                path,
                lambda handle: json.dump(record, handle, indent=2, sort_keys=True),
            )
            self._write_index()
            return record

    def update_session(self, session_id: str, **updates) -> dict:
        with self._lock:
            meta = self._session_meta_unlocked(session_id)
            meta.update(updates)
            atomic_write(
                self.session_file(session_id, "meta.json"),
                lambda handle: json.dump(meta, handle, indent=2, sort_keys=True),
            )
            return meta

    def _session_meta_unlocked(self, session_id: str) -> dict:
        path = self.session_file(session_id, "meta.json")
        if not path.exists():
            raise HTTPError(404, "unknown session %r" % session_id)
        return json.loads(path.read_text())

    def session_meta(self, session_id: str) -> dict:
        with self._lock:
            return self._session_meta_unlocked(session_id)

    def session_metas(self) -> List[dict]:
        return [self.session_meta(sid) for sid in self.session_ids()]

    def recoverable_sessions(self) -> List[dict]:
        """Metas of sessions whose persisted state is non-terminal."""
        return [
            meta
            for meta in self.session_metas()
            if meta.get("state") not in TERMINAL_STATES
        ]

    def answer_log(self, session_id: str, fsync: bool = True) -> DurableAnswerLog:
        return DurableAnswerLog(
            self.session_file(session_id, "answers.jsonl"), fsync=fsync
        )

    def read_session_artifact(self, session_id: str, suffix: str) -> Optional[str]:
        """Raw text of one per-session artifact, or ``None`` if absent."""
        path = self.session_file(session_id, suffix)
        if not path.exists():
            return None
        return path.read_text()

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, int]:
        return {
            "datasets": len(self.dataset_ids()),
            "sessions": len(self.session_ids()),
        }
