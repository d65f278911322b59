"""Bench-regression guard: fresh BENCH_*.json vs committed baselines.

Compares every benchmark row (by its ``name``) of each freshly generated
``BENCH_*.json`` against the committed baseline of the same file name and
fails when a row's mean time regressed by more than ``--threshold`` (2x
by default -- generous enough for shared-runner noise, tight enough to
catch an accidentally de-vectorized hot path).  Rows present on only one
side are skipped, as are rows whose baseline mean is below
``--min-seconds`` (micro-rows are all noise), and baseline files with no
fresh counterpart::

    python benchmarks/bench_guard.py --baseline-dir bench_baselines --fresh-dir .

Beyond timings, every fresh row carrying the c-table pair-accounting
fields is checked for the pruning invariant ``pairs_tested +
pairs_pruned == pair_universe`` (and a pruned variant must actually
prune: ``pairs_tested < pair_universe``), so a broken pruning pre-pass
fails the guard even when its timing looks fine.  Probability rows are
held to their parity contract the same way: drift within 1e-9.

Exit status: 0 when nothing regressed (or nothing was comparable),
1 on regression, 2 on unreadable input.
"""

import argparse
import json
import sys
from pathlib import Path


def load_rows(path):
    """``name -> mean seconds`` for one pytest-benchmark-shaped JSON."""
    data = json.loads(Path(path).read_text())
    rows = {}
    for row in data.get("benchmarks", []):
        mean = row.get("stats", {}).get("mean")
        if row.get("name") and isinstance(mean, (int, float)):
            rows[row["name"]] = float(mean)
    return rows


def pair_accounting_problems(path):
    """Violations of the pair-accounting invariant in one fresh JSON."""
    data = json.loads(Path(path).read_text())
    problems = []
    for row in data.get("benchmarks", []):
        extra = row.get("extra_info", {})
        if "pair_universe" not in extra:
            continue  # row predates the pruning counters
        name = row.get("name", "?")
        tested = extra.get("pairs_tested", 0)
        pruned = extra.get("pairs_pruned", 0)
        universe = extra["pair_universe"]
        if tested + pruned != universe:
            problems.append(
                "%s: pairs_tested %r + pairs_pruned %r != pair_universe %r"
                % (name, tested, pruned, universe)
            )
        if "pruned" in extra.get("method", "") and not tested < universe:
            problems.append(
                "%s: pruned variant tested the full pair universe (%r)"
                % (name, universe)
            )
    return problems


def probability_problems(path):
    """Violations of the probability-row invariant in one fresh JSON.

    The contract is carried by the ``extra_info`` field the probability
    benchmark emits: exact-parity rows must agree with the sequential
    baseline to 1e-9.
    """
    data = json.loads(Path(path).read_text())
    problems = []
    for row in data.get("benchmarks", []):
        extra = row.get("extra_info", {})
        name = row.get("name", "?")
        drift = extra.get("parity_max_drift")
        if drift is not None and not drift <= 1e-9:
            problems.append(
                "%s: parity_max_drift %g exceeds 1e-9" % (name, drift)
            )
    return problems


def compare(baseline_path, fresh_path, threshold, min_seconds):
    """(regressions, compared, skipped) for one baseline/fresh file pair."""
    baseline = load_rows(baseline_path)
    fresh = load_rows(fresh_path)
    regressions = []
    compared = 0
    skipped = 0
    for name, base_mean in sorted(baseline.items()):
        fresh_mean = fresh.get(name)
        if fresh_mean is None or base_mean < min_seconds:
            skipped += 1
            continue
        compared += 1
        ratio = fresh_mean / base_mean if base_mean else float("inf")
        if ratio > threshold:
            regressions.append((name, base_mean, fresh_mean, ratio))
    return regressions, compared, skipped


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Fail CI when a benchmark regressed vs its committed baseline."
    )
    parser.add_argument(
        "--baseline-dir", default="bench_baselines",
        help="directory holding the committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--fresh-dir", default=".", help="directory holding freshly generated JSON"
    )
    parser.add_argument(
        "--threshold", type=float, default=2.0,
        help="maximum tolerated fresh/baseline mean-time ratio",
    )
    parser.add_argument(
        "--min-seconds", type=float, default=0.05,
        help="ignore rows whose baseline mean is below this (noise floor)",
    )
    args = parser.parse_args(argv)

    baseline_dir = Path(args.baseline_dir)
    if not baseline_dir.is_dir():
        print("no baseline directory %s; nothing to guard" % baseline_dir)
        return 0
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print("no BENCH_*.json baselines under %s; nothing to guard" % baseline_dir)
        return 0

    failed = False
    for baseline_path in baselines:
        fresh_path = Path(args.fresh_dir) / baseline_path.name
        if not fresh_path.is_file():
            print("skip %s: no fresh run" % baseline_path.name)
            continue
        try:
            regressions, compared, skipped = compare(
                baseline_path, fresh_path, args.threshold, args.min_seconds
            )
        except (OSError, json.JSONDecodeError, ValueError) as err:
            print("cannot compare %s: %s" % (baseline_path.name, err), file=sys.stderr)
            return 2
        print(
            "%s: %d row(s) compared, %d skipped"
            % (baseline_path.name, compared, skipped)
        )
        for name, base_mean, fresh_mean, ratio in regressions:
            failed = True
            print(
                "  REGRESSION %s: %.3fs -> %.3fs (%.2fx > %.2fx)"
                % (name, base_mean, fresh_mean, ratio, args.threshold),
                file=sys.stderr,
            )
        for problem in pair_accounting_problems(fresh_path):
            failed = True
            print("  ACCOUNTING %s" % problem, file=sys.stderr)
        for problem in probability_problems(fresh_path):
            failed = True
            print("  PROBABILITY %s" % problem, file=sys.stderr)
    if failed:
        return 1
    print("bench guard ok: no row regressed beyond %.2fx" % args.threshold)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
