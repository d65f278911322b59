"""Phase-scoped tracing spans with wall-time histograms.

A :class:`Tracer` measures named spans (``ctable.build``,
``probability.initial``, ``round[i]``, ...) the way streaming engines
instrument per-window latency: each span records its start and end on
the tracer's clock, its parent (spans nest via a stack) and arbitrary
attributes.  Every completed span

* lands in :attr:`Tracer.spans` (and :meth:`Tracer.to_dicts` for
  serialization),
* observes its duration into the registry histogram
  ``phase_seconds_<phase>`` (``phase`` defaults to the span name, so
  per-round spans named ``round[3]`` aggregate under ``round``),
* emits a ``span`` event into the event log, when one is attached.

The histogram observations and events of nested spans wait until the
outermost span closes, so the tracer's own bookkeeping (histograms,
event serialisation) falls outside the spans it measures.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from .events import EventLog
from .metrics import MetricsRegistry

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One completed (or active) traced phase."""

    name: str
    #: histogram key; ``round[i]`` spans share phase ``round``
    phase: str
    #: start offset in seconds since the tracer's epoch
    start: float
    end: Optional[float] = None
    parent: Optional[str] = None
    depth: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        record = {
            "name": self.name,
            "phase": self.phase,
            "start": self.start,
            "end": self.end,
            "seconds": self.seconds,
            "parent": self.parent,
            "depth": self.depth,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record


class Tracer:
    """Nested span measurement feeding a registry and an event log."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        event_log: Optional[EventLog] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.event_log = event_log
        self._epoch = time.perf_counter()
        self._stack: List[Span] = []
        #: completed spans, in completion order; the first ``_reported``
        #: are observed and emitted
        self.spans: List[Span] = []
        self._reported = 0
        #: pending per-name sums of :meth:`summing` blocks, and the time of
        #: the spans and blocks nested in each open block
        self._sums: Dict[str, float] = {}
        self._nested: List[float] = []

    def fork(self, registry: MetricsRegistry, event_log: Optional[EventLog]) -> Tracer:
        """A tracer on this clock that starts with this one's spans.

        Work timed before a run's registry existed (learning) joins its trace.
        """
        forked = Tracer(registry=registry, event_log=event_log)
        forked._epoch = self._epoch
        for span in self.spans:
            forked._finish(span)
        return forked

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def _open(self, name: str, phase: Optional[str], start: float, attrs) -> Span:
        """A span starting at ``start`` under the active span."""
        return Span(
            name=name,
            phase=phase or name,
            start=start,
            parent=self._stack[-1].name if self._stack else None,
            depth=len(self._stack),
            attrs=dict(attrs),
        )

    @contextmanager
    def span(self, name: str, phase: Optional[str] = None, **attrs) -> Iterator[Span]:
        """Measure the block as one span nested under the active span."""
        record = self._open(name, phase, self._now(), attrs)
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self._now()
            if self._nested:
                self._nested[-1] += record.seconds
            self._finish(record)

    def record(
        self, name: str, seconds: float, phase: Optional[str] = None, **attrs
    ) -> Span:
        """Register an externally timed span (work measured elsewhere).

        The span nests under the currently active span; its end is "now"
        and its start back-dated by ``seconds``, so ordering stays sane.
        """
        end = self._now()
        record = self._open(name, phase, end - max(0.0, seconds), attrs)
        record.end = end
        self._finish(record)
        return record

    @contextmanager
    def summing(self, name: str) -> Iterator[None]:
        """Add the block's time to ``name``'s sum, for :meth:`record_sums`.

        For work that interleaves with other work; time in a span or
        ``summing`` block nested inside counts only towards the inner one.
        """
        start = self._now()
        self._nested.append(0.0)
        try:
            yield
        finally:
            elapsed = self._now() - start
            own = elapsed - self._nested.pop()
            self._sums[name] = self._sums.get(name, 0.0) + own
            if self._nested:
                self._nested[-1] += elapsed

    def record_sums(self, *names: str) -> None:
        """Record each name's pending sum (0 when none) as one span."""
        for name in names:
            self.record(name, self._sums.pop(name, 0.0))

    def elapsed(self, span: Span) -> float:
        """Seconds since ``span`` started, or its length once it ended."""
        end = span.end if span.end is not None else self._now()
        return end - span.start

    def _finish(self, record: Span) -> None:
        self.spans.append(record)
        if self._stack:
            return
        for span in self.spans[self._reported:]:
            self.registry.histogram("phase_seconds_%s" % span.phase).observe(
                span.seconds
            )
            if self.event_log is not None:
                self.event_log.emit("span", **span.to_dict())
        self._reported = len(self.spans)

    def find(self, name: str) -> List[Span]:
        """All completed spans with the given name."""
        return [span for span in self.spans if span.name == name]

    def total(self, phase: str) -> float:
        """Summed seconds of the completed spans of one phase."""
        return sum(span.seconds for span in self.spans if span.phase == phase)

    def to_dicts(self) -> List[Dict[str, object]]:
        return [span.to_dict() for span in self.spans]
