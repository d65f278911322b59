"""Summarize pytest-benchmark JSON output, including ``extra_info``.

pytest-benchmark's console table shows timings but hides the
``benchmark.extra_info`` payload where our benchmarks record the
non-timing series (F1, tasks, rounds).  This tool folds both into one
compact table per benchmark group:

    pytest benchmarks/ --benchmark-only --benchmark-json=bench.json
    python -m repro.benchreport bench.json
    python -m repro.benchreport bench.json --markdown > BENCH.md

The standalone perf runners (``python benchmarks/bench_fig02_ctable.py``,
``python benchmarks/bench_fig03_probability.py``) emit the same JSON
shape with their perf counters (pairs/sec, probabilities/sec) in
``extra_info``, so their ``BENCH_*.json`` files render here too.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional


def load_benchmarks(path) -> List[Dict]:
    """The ``benchmarks`` array of a pytest-benchmark JSON file."""
    data = json.loads(Path(path).read_text())
    if "benchmarks" not in data:
        raise ValueError("%s is not a pytest-benchmark JSON file" % path)
    return data["benchmarks"]


def _group_key(bench: Dict) -> str:
    """Group by source file (one paper figure per benchmark module)."""
    fullname = bench.get("fullname", bench.get("name", ""))
    return fullname.split("::")[0]


def _format(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) < 0.01 or abs(value) >= 100_000:
            return "%.3g" % value
        return "%.3f" % value
    return str(value)


def summarize(benchmarks: List[Dict]) -> "OrderedDict[str, List[Dict]]":
    """Rows per group: name, seconds, plus flattened extra_info."""
    groups: "OrderedDict[str, List[Dict]]" = OrderedDict()
    for bench in benchmarks:
        row = {"benchmark": bench["name"], "seconds": bench["stats"]["mean"]}
        for key, value in sorted(bench.get("extra_info", {}).items()):
            row[key] = value
        groups.setdefault(_group_key(bench), []).append(row)
    for rows in groups.values():
        rows.sort(key=lambda r: r["benchmark"])
    return groups


def render_text(groups) -> str:
    lines: List[str] = []
    for group, rows in groups.items():
        columns = []
        for row in rows:
            for column in row:
                if column not in columns:
                    columns.append(column)
        widths = {
            c: max(len(c), *(len(_format(r.get(c, ""))) for r in rows))
            for c in columns
        }
        lines.append(group)
        header = "  ".join(c.ljust(widths[c]) for c in columns)
        lines.append(header)
        lines.append("-" * len(header))
        for row in rows:
            lines.append(
                "  ".join(_format(row.get(c, "")).ljust(widths[c]) for c in columns)
            )
        lines.append("")
    return "\n".join(lines).rstrip()


def render_markdown(groups) -> str:
    lines: List[str] = []
    for group, rows in groups.items():
        columns = []
        for row in rows:
            for column in row:
                if column not in columns:
                    columns.append(column)
        lines.append("### %s" % group)
        lines.append("")
        lines.append("| " + " | ".join(columns) + " |")
        lines.append("|" + "|".join("---" for __ in columns) + "|")
        for row in rows:
            lines.append(
                "| " + " | ".join(_format(row.get(c, "")) for c in columns) + " |"
            )
        lines.append("")
    return "\n".join(lines).rstrip()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.benchreport",
        description="Summarize pytest-benchmark JSON (timings + extra_info).",
    )
    parser.add_argument("json_file", type=Path)
    parser.add_argument(
        "--markdown", action="store_true", help="emit markdown instead of text"
    )
    args = parser.parse_args(argv)
    groups = summarize(load_benchmarks(args.json_file))
    print(render_markdown(groups) if args.markdown else render_text(groups))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
