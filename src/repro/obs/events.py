"""Structured JSONL event log of per-round pipeline decisions.

The crowdsourcing loop makes auditable decisions every round -- which
objects were selected, which tasks were issued, which answers came back,
which objects got decided.  :class:`EventLog` records each as one JSON
object, kept in memory and (when a path is given) appended to a JSONL
file as it happens, so a crashed run still leaves a readable trail.

Events are plain dicts with three standard keys -- ``seq`` (a
monotonically increasing sequence number), ``ts`` (Unix timestamp) and
``event`` (the kind) -- plus whatever fields the emitter passes.  Values
that are not JSON-native (numpy scalars, expressions) are coerced.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = ["EventLog", "read_events"]


def _jsonable(value):
    """Best-effort coercion for non-JSON-native payload values."""
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalars
        return item()
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return str(value)


class EventLog:
    """Append-only event sink: in-memory list plus optional JSONL file."""

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        self.events: List[Dict] = []
        self._seq = 0
        self._file = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "w", encoding="utf-8")

    def emit(self, event: str, **fields) -> Dict:
        """Record one event; returns the event dict."""
        self._seq += 1
        record = {"seq": self._seq, "ts": time.time(), "event": event}
        record.update(fields)
        self.events.append(record)
        if self._file is not None:
            self._file.write(json.dumps(record, default=_jsonable) + "\n")
            self._file.flush()
        return record

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def of_kind(self, event: str) -> List[Dict]:
        """All recorded events of one kind, in emission order."""
        return [e for e in self.events if e["event"] == event]


def read_events(path: Union[str, Path]) -> List[Dict]:
    """Parse a JSONL event log back into event dicts."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
