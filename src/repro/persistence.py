"""Saving and loading datasets and query results.

A library users adopt needs durable artifacts: datasets round-trip
through ``.npz`` (values + mask + ground truth + metadata) and query
results through JSON, so experiment pipelines can snapshot inputs and
outcomes without pickling live objects.  In-flight runs are made
durable by the write-ahead answer journal (:mod:`repro.session.journal`),
which borrows this module's expression and round-record JSON forms.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Union

import numpy as np

from .core.result import QueryResult, RoundRecord
from .ctable.expression import Const, Expression, Var
from .datasets.dataset import IncompleteDataset

PathLike = Union[str, Path]

#: file-format version written into every artifact
FORMAT_VERSION = 1


def _fsync_directory(path: Path) -> None:
    """Persist a directory entry (rename durability on POSIX)."""
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. directories on some FS
        pass
    finally:
        os.close(fd)


#: test/fault-injection hook observed by :func:`atomic_write`; installed
#: via :func:`set_write_fault_hook`.  Called as ``hook(stage, path,
#: handle)`` at stage ``"payload"`` (temp file open, nothing written yet)
#: and ``"commit"`` (payload written + fsynced, rename not yet issued).
#: A hook that raises simulates disk-full / torn-write / crash-before-
#: rename faults; the helper guarantees the destination file is never
#: observable in a partial state regardless of where the hook fires.
_WRITE_FAULT_HOOK = None


def set_write_fault_hook(hook):
    """Install (or clear, with ``None``) the atomic-write fault hook.

    Returns the previously installed hook so tests can restore it.
    """
    global _WRITE_FAULT_HOOK
    previous = _WRITE_FAULT_HOOK
    _WRITE_FAULT_HOOK = hook
    return previous


def atomic_write(path: PathLike, write_payload, mode: str = "w") -> None:
    """Write a file atomically: temp file + fsync + ``os.replace``.

    ``write_payload`` receives the open temp-file handle.  A crash at any
    instant leaves either the old file or the new one, never a torn mix;
    the fsync-before-rename (plus a directory fsync after) makes the
    rename itself durable.  Every durable artifact in the library --
    datasets, results, metrics, the service store's metadata and
    index -- goes through this one helper, so the torn-write/disk-full
    fault suite covers them all at once.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent) or ".", prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode) as handle:
            if _WRITE_FAULT_HOOK is not None:
                _WRITE_FAULT_HOOK("payload", path, handle)
            write_payload(handle)
            handle.flush()
            os.fsync(handle.fileno())
            if _WRITE_FAULT_HOOK is not None:
                _WRITE_FAULT_HOOK("commit", path, handle)
        os.replace(tmp, path)
        _fsync_directory(path.parent)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ----------------------------------------------------------------------
# datasets
# ----------------------------------------------------------------------
def save_dataset(dataset: IncompleteDataset, path: PathLike) -> None:
    """Write a dataset (with its hidden ground truth, if any) to ``.npz``."""
    path = Path(path)
    payload = {
        "format_version": np.array([FORMAT_VERSION]),
        "values": dataset.values,
        "domain_sizes": np.asarray(dataset.domain_sizes, dtype=np.int64),
        "attribute_names": np.array(dataset.attribute_names, dtype=object),
        "object_names": np.array(dataset.object_names, dtype=object),
        "name": np.array([dataset.name], dtype=object),
    }
    if dataset.complete is not None:
        payload["complete"] = dataset.complete
    # numpy appends ".npz" to bare string paths; mirror that before the
    # atomic rename so the final name matches the historical behaviour.
    if not path.name.endswith(".npz"):
        path = path.with_name(path.name + ".npz")
    atomic_write(
        path,
        lambda handle: np.savez_compressed(handle, **payload, allow_pickle=True),
        mode="wb",
    )


def load_dataset(path: PathLike) -> IncompleteDataset:
    """Read a dataset written by :func:`save_dataset`."""
    path = Path(path)
    with np.load(path, allow_pickle=True) as archive:
        version = int(archive["format_version"][0])
        if version != FORMAT_VERSION:
            raise ValueError(
                "unsupported dataset format version %d (expected %d)"
                % (version, FORMAT_VERSION)
            )
        return IncompleteDataset(
            values=archive["values"],
            domain_sizes=archive["domain_sizes"].tolist(),
            complete=archive["complete"] if "complete" in archive else None,
            attribute_names=[str(s) for s in archive["attribute_names"]],
            object_names=[str(s) for s in archive["object_names"]],
            name=str(archive["name"][0]),
        )


# ----------------------------------------------------------------------
# query results
# ----------------------------------------------------------------------
def _round_to_dict(record: RoundRecord) -> dict:
    return {
        "round_index": record.round_index,
        "tasks_posted": record.tasks_posted,
        "objects": list(record.objects),
        "newly_decided": record.newly_decided,
        "open_conditions": record.open_conditions,
        "seconds": record.seconds,
        "tasks_answered": record.tasks_answered,
        "retries": record.retries,
        "faults": dict(record.faults),
    }


def _round_from_dict(entry: dict) -> RoundRecord:
    return RoundRecord(
        round_index=entry["round_index"],
        tasks_posted=entry["tasks_posted"],
        objects=list(entry["objects"]),
        newly_decided=entry["newly_decided"],
        open_conditions=entry["open_conditions"],
        seconds=entry["seconds"],
        tasks_answered=entry.get("tasks_answered", entry["tasks_posted"]),
        retries=entry.get("retries", 0),
        faults=dict(entry.get("faults", {})),
    )


def result_to_dict(result: QueryResult) -> dict:
    """JSON-serializable view of a query result."""
    return {
        "format_version": FORMAT_VERSION,
        "answers": list(result.answers),
        "certain_answers": list(result.certain_answers),
        "tasks_posted": result.tasks_posted,
        "rounds": result.rounds,
        "seconds": result.seconds,
        "tasks_answered": result.tasks_answered,
        "modeling_seconds": result.modeling_seconds,
        "degraded": result.degraded,
        "fault_counts": dict(result.fault_counts),
        "resumed": result.resumed,
        "initial_answers": (
            list(result.initial_answers) if result.initial_answers is not None else None
        ),
        "history": [_round_to_dict(record) for record in result.history],
    }


def save_result(result: QueryResult, path: PathLike) -> None:
    """Write a query result to JSON (atomically: temp file + rename)."""
    text = json.dumps(result_to_dict(result), indent=2)
    atomic_write(Path(path), lambda handle: handle.write(text))


def load_result(path: PathLike) -> QueryResult:
    """Read a query result written by :func:`save_result`."""
    data = json.loads(Path(path).read_text())
    version = int(data.get("format_version", -1))
    if version != FORMAT_VERSION:
        raise ValueError(
            "unsupported result format version %d (expected %d)"
            % (version, FORMAT_VERSION)
        )
    history = [_round_from_dict(entry) for entry in data.get("history", [])]
    return QueryResult(
        answers=list(data["answers"]),
        certain_answers=list(data["certain_answers"]),
        tasks_posted=int(data["tasks_posted"]),
        rounds=int(data["rounds"]),
        seconds=float(data["seconds"]),
        tasks_answered=(
            int(data["tasks_answered"])
            if data.get("tasks_answered") is not None
            else None
        ),
        modeling_seconds=float(data.get("modeling_seconds", 0.0)),
        degraded=bool(data.get("degraded", False)),
        fault_counts={k: int(v) for k, v in data.get("fault_counts", {}).items()},
        resumed=bool(data.get("resumed", False)),
        history=history,
        initial_answers=(
            list(data["initial_answers"])
            if data.get("initial_answers") is not None
            else None
        ),
    )


# ----------------------------------------------------------------------
# c-table expressions (the journal's wire form)
# ----------------------------------------------------------------------
def _operand_to_json(operand) -> dict:
    if isinstance(operand, Const):
        return {"const": operand.value}
    return {"var": [operand.obj, operand.attr]}


def _operand_from_json(data: dict):
    if "const" in data:
        return Const(int(data["const"]))
    obj, attr = data["var"]
    return Var(int(obj), int(attr))


def expression_to_json(expression: Expression) -> dict:
    """JSON view of one c-table expression (``left > right``)."""
    return {
        "left": _operand_to_json(expression.left),
        "right": _operand_to_json(expression.right),
    }


def expression_from_json(data: dict) -> Expression:
    """Inverse of :func:`expression_to_json`."""
    return Expression(_operand_from_json(data["left"]), _operand_from_json(data["right"]))
