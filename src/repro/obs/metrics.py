"""Structured metrics: one registry of counters, gauges and histograms.

The paper's evaluation reports per-phase cost -- c-table construction
time, probability-computation time, rounds to convergence, crowd
accuracy (Sections 7-8).  Before this module those numbers lived in
ad-hoc dicts scattered over :meth:`ProbabilityEngine.stats`,
:attr:`CTable.build_stats`, :class:`IncrementalRanker` attributes and
the fault totals of :meth:`BayesCrowd.run`.  The
:class:`MetricsRegistry` unifies them behind three familiar instrument
types and two exporters:

* :meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.to_json` --
  a plain-dict schema that round-trips through
  :meth:`MetricsRegistry.from_snapshot`;
* :meth:`MetricsRegistry.to_prometheus` -- Prometheus text exposition
  format, for scraping a long-running service.

Everything is dependency-free and cheap: instruments are plain Python
objects, histograms use fixed cumulative buckets tuned for wall-clock
seconds, and the registry is per-run (so absorbed cumulative counters
never need deltas).
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "check_phases",
    "PIPELINE_PHASES",
]

#: Cumulative histogram bucket upper bounds, tuned for span wall times in
#: seconds (sub-millisecond c-table builds through minute-long runs).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: The layer spans of a :meth:`BayesCrowd.run` trace, in pipeline order;
#: the schema verifier (``python -m repro.obs``) checks their histograms.
PIPELINE_PHASES: Tuple[str, ...] = (
    "bayesnet.learn", "ctable.build", "probability.initial",
    "core.rank", "core.select", "crowd.ask", "crowd.integrity", "ctable.apply",
    "probability.final",
)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """A Prometheus-legal metric name (invalid characters become ``_``)."""
    return _NAME_RE.sub("_", name)


class Counter:
    """A monotonically increasing count (tasks posted, cache hits, ...)."""

    kind = "counter"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; got %r" % amount)
        self.value += amount


class Gauge:
    """A value that can go anywhere (budget left, cache hit rate, ...)."""

    kind = "gauge"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A distribution of observations over fixed cumulative buckets."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.description = description
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, Prometheus-style."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, self.count))
        return out


class MetricsRegistry:
    """Get-or-create registry of named instruments with two exporters."""

    def __init__(self) -> None:
        self._metrics: "Dict[str, object]" = {}
        #: string-valued metadata (backend names, method labels, ...)
        self._info: Dict[str, str] = {}

    # -- instrument accessors ------------------------------------------
    def _get(self, name: str, cls, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                "metric %r already registered as a %s" % (name, metric.kind)
            )
        return metric

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get(name, Counter, description=description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get(name, Gauge, description=description)

    def histogram(
        self,
        name: str,
        description: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._get(name, Histogram, description=description, buckets=buckets)

    def info(self, name: str, value: str) -> None:
        self._info[name] = str(value)

    def get(self, name: str):
        """The registered instrument, or ``None``."""
        return self._metrics.get(name)

    def value(self, name: str, default: float = 0.0) -> float:
        """Scalar value of a counter/gauge (histograms: their mean)."""
        metric = self._metrics.get(name)
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            return metric.mean()
        return metric.value

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # -- absorbing legacy flat counter dicts ---------------------------
    def absorb(self, stats: Mapping[str, object], prefix: str = "") -> None:
        """Fold a flat perf-counter dict into the registry.

        Integers (monotone run totals like ``computations``) become
        counters, floats (rates, seconds) become gauges, strings
        (``backend`` names) become info entries; anything else is
        ignored.  Used to unify the PR-2 counters from
        ``ProbabilityEngine.stats()``, ``CTable.build_stats`` and the
        crowd fault accounting under one schema.
        """
        for key, value in stats.items():
            name = prefix + str(key)
            if isinstance(value, bool):
                self.gauge(name).set(1.0 if value else 0.0)
            elif isinstance(value, int):
                self.counter(name).inc(value)
            elif isinstance(value, float):
                self.gauge(name).set(value)
            elif isinstance(value, str):
                self.info(name, value)
            elif hasattr(value, "item"):  # numpy scalars
                self.gauge(name).set(float(value.item()))

    # -- exporters ------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """The full registry as plain dicts (the JSON schema)."""
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, object] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = {
                    "count": metric.count,
                    "sum": metric.sum,
                    "min": metric.min if metric.count else None,
                    "max": metric.max if metric.count else None,
                    "bounds": list(metric.bounds),
                    "bucket_counts": list(metric.bucket_counts),
                }
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
            "info": dict(sorted(self._info.items())),
        }

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, object]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output (round-trip)."""
        registry = cls()
        for name, value in snapshot.get("counters", {}).items():
            registry.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            registry.gauge(name).set(value)
        for name, data in snapshot.get("histograms", {}).items():
            histogram = registry.histogram(name, buckets=data["bounds"])
            histogram.count = data["count"]
            histogram.sum = data["sum"]
            histogram.min = data["min"] if data["min"] is not None else math.inf
            histogram.max = data["max"] if data["max"] is not None else -math.inf
            histogram.bucket_counts = list(data["bucket_counts"])
        for name, value in snapshot.get("info", {}).items():
            registry.info(name, value)
        return registry

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (counters, gauges, histograms)."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            pname = _prom_name(name)
            if metric.description:
                lines.append("# HELP %s %s" % (pname, metric.description))
            lines.append("# TYPE %s %s" % (pname, metric.kind))
            if isinstance(metric, (Counter, Gauge)):
                lines.append("%s %s" % (pname, _format_value(metric.value)))
                continue
            for bound, cumulative in metric.cumulative_buckets():
                le = "+Inf" if math.isinf(bound) else _format_value(bound)
                lines.append('%s_bucket{le="%s"} %d' % (pname, le, cumulative))
            lines.append("%s_sum %s" % (pname, _format_value(metric.sum)))
            lines.append("%s_count %d" % (pname, metric.count))
        for name, value in sorted(self._info.items()):
            lines.append('# INFO %s "%s"' % (_prom_name(name), value))
        return "\n".join(lines) + "\n"


def _format_value(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def check_phases(snapshot: Mapping[str, object]) -> List[str]:
    """Layers whose ``phase_seconds_*`` histogram a snapshot lacks.

    An empty return value means the metrics schema covers every layer of
    :data:`PIPELINE_PHASES` (the CI bench-smoke gate).
    """
    histograms = snapshot.get("histograms", {})
    return [p for p in PIPELINE_PHASES if "phase_seconds_%s" % p not in histograms]
