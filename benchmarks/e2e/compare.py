#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs.

Usage::

    python3 benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is a ``run.py --out`` record file.  Set A is the parent (the
baseline), set B the change.  Metric names, directions and bounds come
from ``BENCHMARK.json`` at the repository root.  One row per workload and
end-to-end metric gives each side's median and quartiles and a verdict:

* ``regressed`` -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- either side's spread (interquartile range over
  median) is wider than the bound, and not every B run beats every A run;
* ``ok`` -- otherwise.

One more row per workload, ``failed``, counts failed operations and
runs that failed the correctness gate.  It reads ``regressed`` when any
B run failed the gate or B failed a larger share of its operations than
A, since the metric rows of a run that broke its queries are not
comparable.

Exits 1 when any row regressed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@dataclass
class WorkloadRuns:
    """The untraced runs of one workload in one set."""

    metrics: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: runs whose ``correct`` is false
    incorrect: int = 0

    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def load_set(paths: Sequence[str]) -> Tuple[Dict[str, WorkloadRuns], int]:
    """Untraced runs per workload, and the noisy-run count."""
    workloads: Dict[str, WorkloadRuns] = {}
    noisy = 0
    for path in paths:
        for run in json.loads(Path(path).read_text())["runs"]:
            if run["trace"]:
                continue
            noisy += bool(run["host"].get("noisy"))
            runs = workloads.setdefault(run["workload"], WorkloadRuns())
            result = run["result"]
            runs.attempted += result["attempted"]
            runs.failed += result["failed"]
            runs.incorrect += not result["correct"]
            for name, metric in result["metrics"].items():
                runs.metrics.setdefault(name, []).append(metric["value"])
    return workloads, noisy


def summary(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: List[float], b: List[float], lower_better: bool, bound: float) -> str:
    a1, a_med, a3 = summary(a)
    b1, b_med, b3 = summary(b)
    worse = (b_med - a_med) / a_med if lower_better else (a_med - b_med) / a_med
    spread = max((a3 - a1) / a_med, (b3 - b1) / b_med)
    if spread > bound:
        if lower_better:
            all_better = max(b) < min(a)
        else:
            all_better = min(b) > max(a)
        return "ok" if all_better else "unresolved"
    return "regressed" if worse > bound else "ok"


def failure_verdict(a: WorkloadRuns, b: WorkloadRuns) -> str:
    if b.incorrect or b.failed_frac() > a.failed_frac():
        return "regressed"
    return "ok"


def compare(set_a: Sequence[str], set_b: Sequence[str]) -> List[dict]:
    spec = json.loads(BENCHMARK.read_text())
    a_runs, _ = load_set(set_a)
    b_runs, _ = load_set(set_b)
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in a_runs or name not in b_runs:
            continue
        a_side, b_side = a_runs[name], b_runs[name]
        rows.append(
            {
                "workload": name,
                "metric": "failed",
                "unit": "ops",
                "a": a_side,
                "b": b_side,
                "verdict": failure_verdict(a_side, b_side),
            }
        )
        for metric in spec["end_to_end"]:
            a = a_side.metrics.get(metric["name"])
            b = b_side.metrics.get(metric["name"])
            if not a or not b:
                continue
            rows.append(
                {
                    "workload": name,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "a": summary(a),
                    "b": summary(b),
                    "verdict": verdict(
                        a, b, metric["better"] == "lower", metric["bound"]
                    ),
                }
            )
    return rows


def _cells(row: dict) -> Tuple[str, str, str]:
    """The A, B and change columns of one printed row."""
    if row["metric"] == "failed":
        a, b = row["a"], row["b"]
        return tuple(
            "%d of %d, %d bad run(s)" % (side.failed, side.attempted, side.incorrect)
            for side in (a, b)
        ) + ("%+6.1f%%" % (100.0 * (b.failed_frac() - a.failed_frac())),)
    a1, a_med, a3 = row["a"]
    b1, b_med, b3 = row["b"]
    return (
        "%.4g [%.4g, %.4g] %s" % (a_med, a1, a3, row["unit"]),
        "%.4g [%.4g, %.4g] %s" % (b_med, b1, b3, row["unit"]),
        "%+6.1f%%" % (100.0 * (b_med - a_med) / a_med),
    )


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    split = argv.index("--")
    set_a, set_b = argv[:split], argv[split + 1 :]
    if not set_a or not set_b:
        print("both sets need at least one file", file=sys.stderr)
        return 2
    for label, paths in (("A", set_a), ("B", set_b)):
        _, noisy = load_set(paths)
        if noisy:
            print("warning: set %s has %d noisy run(s)" % (label, noisy))
    rows = compare(set_a, set_b)
    print(
        "%-13s %-14s %-30s %-30s %7s  %s"
        % ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "verdict")
    )
    for row in rows:
        a_cell, b_cell, change = _cells(row)
        print(
            "%-13s %-14s %-30s %-30s %7s  %s"
            % (row["workload"], row["metric"], a_cell, b_cell, change, row["verdict"])
        )
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
