"""Verify exported observability artifacts (the CI bench-smoke gate).

Usage::

    python -m repro.obs metrics.json [--trace trace.jsonl] [--journal PATH] \
        [--selection] [--integrity] [--ctable]

Exit status 0 means the metrics snapshot registers a ``phase_seconds_*``
histogram for every layer and (with ``--trace``) the JSONL event log
parses, accounts for every applied answer by an issued task, and holds
a whole span tree (see :func:`verify_spans`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from .events import read_events
from .metrics import PIPELINE_PHASES, check_phases

#: Share of each ``run`` span its layer spans must account for.
MIN_LAYER_COVERAGE = 0.95

#: Selection-phase counters every BayesCrowd run exports (batched or not).
SELECTION_COUNTERS = (
    "utility_candidates_total",
    "utility_evals_total",
    "residual_cache_hits",
    "utility_skipped_total",
)

#: Answer-integrity counters the ledger exports on every run.
INTEGRITY_COUNTERS = (
    "answers_aggregated",
    "answers_applied",
    "answers_quarantined",
)

#: Pair-accounting counters of c-table construction.
CTABLE_COUNTERS = (
    "ctable_pairs_tested",
    "ctable_pairs_pruned",
    "ctable_pair_universe",
)

def _absent(
    snapshot: dict, names: Tuple[str, ...], label: str, require: bool
) -> Optional[List[str]]:
    """None when every named counter is present, else the verdict.

    Snapshots that predate a counter family (or come from non-query
    runs) pass vacuously; ``require`` makes the absence an error.
    """
    missing = [name for name in names if name not in snapshot.get("counters", {})]
    if not missing:
        return None
    if not require:
        return []
    return ["%s counter(s) missing: %s" % (label, ", ".join(missing))]


def verify_ctable(snapshot: dict, require: bool = False) -> List[str]:
    """Problems with the c-table pair accounting (empty = consistent).

    Checks the pruning pre-pass invariant: every ordered object pair is
    either dominance-tested or pruned in bulk, i.e. ``pairs_tested +
    pairs_pruned == pair_universe == n * (n - 1)``.
    """
    absent = _absent(snapshot, CTABLE_COUNTERS, "ctable", require)
    if absent is not None:
        return absent
    counters = snapshot["counters"]
    problems: List[str] = []
    tested = counters["ctable_pairs_tested"]
    pruned = counters["ctable_pairs_pruned"]
    universe = counters["ctable_pair_universe"]
    if tested + pruned != universe:
        problems.append(
            "ctable_pairs_tested %r + ctable_pairs_pruned %r != "
            "ctable_pair_universe %r" % (tested, pruned, universe)
        )
    if tested < 0 or pruned < 0 or universe < 0:
        problems.append("ctable pair counters must be non-negative")
    # The n*(n-1) cross-check is only well-defined for a registry holding
    # exactly one build; multi-build registries (benches) sum counters,
    # for which only the additive invariant above holds.
    n_objects = counters.get("ctable_n_objects")
    if (
        counters.get("ctable_builds") == 1
        and n_objects is not None
        and universe != n_objects * (n_objects - 1)
    ):
        problems.append(
            "ctable_pair_universe %r != n * (n - 1) for n_objects %r"
            % (universe, n_objects)
        )
    return problems


def verify_integrity(snapshot: dict, require: bool = False) -> List[str]:
    """Problems with the answer-integrity counters (empty = consistent).

    Checks the ledger's accounting invariant: every aggregated answer is
    either applied to the c-table or quarantined, i.e.
    ``answers_quarantined + answers_applied == answers_aggregated``.
    """
    absent = _absent(snapshot, INTEGRITY_COUNTERS, "integrity", require)
    if absent is not None:
        return absent
    counters = snapshot["counters"]
    problems: List[str] = []
    aggregated = counters["answers_aggregated"]
    applied = counters["answers_applied"]
    quarantined = counters["answers_quarantined"]
    if quarantined + applied != aggregated:
        problems.append(
            "answers_quarantined %r + answers_applied %r != "
            "answers_aggregated %r" % (quarantined, applied, aggregated)
        )
    reasked = counters.get("answers_reasked", 0)
    if reasked > aggregated and aggregated > 0:
        problems.append(
            "answers_reasked %r exceeds answers_aggregated %r"
            % (reasked, aggregated)
        )
    if quarantined < 0 or applied < 0 or aggregated < 0:
        problems.append("integrity counters must be non-negative")
    return problems


def verify_selection(snapshot: dict, require: bool = False) -> List[str]:
    """Problems with the selection-phase counters (empty = consistent).

    Checks the accounting invariant of the batched utility scorer: every
    candidate gain request is either freshly evaluated, served by the
    dedup/cross-round cache, or skipped at zero entropy, so
    ``utility_evals_total == utility_candidates_total -
    residual_cache_hits - utility_skipped_total``.
    """
    absent = _absent(snapshot, SELECTION_COUNTERS, "selection", require)
    if absent is not None:
        return absent
    counters = snapshot["counters"]
    problems: List[str] = []
    expected = (
        counters["utility_candidates_total"]
        - counters["residual_cache_hits"]
        - counters["utility_skipped_total"]
    )
    if counters["utility_evals_total"] != expected:
        problems.append(
            "utility_evals_total %r != candidates %r - cache hits %r - skipped %r"
            % (
                counters["utility_evals_total"],
                counters["utility_candidates_total"],
                counters["residual_cache_hits"],
                counters["utility_skipped_total"],
            )
        )
    ratio = snapshot.get("gauges", {}).get("utility_batch_dedup_ratio")
    if ratio is None:
        if require:
            problems.append("gauge utility_batch_dedup_ratio missing")
    elif not 0.0 <= ratio <= 1.0:
        problems.append("utility_batch_dedup_ratio %r outside [0, 1]" % ratio)
    return problems


def verify_spans(events: List[dict]) -> List[str]:
    """Problems with a trace's span tree (empty = whole).

    Span events arrive in completion order, so a span's parent is the
    first later span with the parent's name one level up; a parent that
    never arrives was left open.  A child must lie within its parent,
    and under each ``run`` span the layer spans (:data:`PIPELINE_PHASES`)
    must sum to :data:`MIN_LAYER_COVERAGE` of it.
    """
    spans = [event for event in events if event.get("event") == "span"]
    if any(span.get("start") is None or span.get("end") is None for span in spans):
        return ["span events lack start/end offsets"]
    parent_of: Dict[int, int] = {}
    waiting: Dict[Tuple[str, int], List[int]] = {}
    for index, span in enumerate(spans):
        for child in waiting.pop((span["name"], span["depth"]), ()):
            parent_of[child] = index
        if span["parent"] is not None:
            waiting.setdefault((span["parent"], span["depth"] - 1), []).append(index)
    problems = ["span %r never closed" % name for name, _ in waiting]
    for child, parent in parent_of.items():
        inner, outer = spans[child], spans[parent]
        if inner["start"] < outer["start"] or inner["end"] > outer["end"]:
            problems.append(
                "span %r is not inside its parent %r" % (inner["name"], outer["name"])
            )
    covered = {i: 0.0 for i, span in enumerate(spans) if span["name"] == "run"}
    if not covered:
        problems.append("trace has no closed 'run' span")
    for index, span in enumerate(spans):
        ancestor = parent_of.get(index)
        while ancestor is not None and ancestor not in covered:
            ancestor = parent_of.get(ancestor)
        if ancestor is not None and span["name"] in PIPELINE_PHASES:
            covered[ancestor] += span["end"] - span["start"]
    for index, layers in covered.items():
        total = spans[index]["end"] - spans[index]["start"]
        if layers < MIN_LAYER_COVERAGE * total:
            problems.append(
                "layer spans cover %.3f of the run span (at least %.2f required)"
                % (layers / total, MIN_LAYER_COVERAGE)
            )
    return problems


#: (flag, verifier, invariant) of each counter family
COUNTER_CHECKS = (
    ("selection", verify_selection, "evals == candidates - cache hits - skipped"),
    ("integrity", verify_integrity, "quarantined + applied == aggregated"),
    ("ctable", verify_ctable, "pairs_tested + pairs_pruned == pair_universe"),
)


def verify_trace(path: str) -> List[str]:
    """Problems found in a JSONL trace (empty = consistent)."""
    problems: List[str] = []
    try:
        events = read_events(path)
    except (OSError, json.JSONDecodeError) as err:
        return ["trace unreadable: %s" % err]
    if not events:
        return ["trace is empty"]
    kinds = {event.get("event") for event in events}
    for required in ("run_start", "run_end"):
        if required not in kinds:
            problems.append("trace has no %r event" % required)
    issued_ids, answered_ids = set(), set()
    issued_count = 0
    for event in events:
        if event.get("event") == "tasks_issued":
            tasks = event.get("tasks", [])
            issued_count += len(tasks)
            issued_ids.update(task["task_id"] for task in tasks)
            if event.get("count") != len(tasks):
                problems.append(
                    "tasks_issued event %s count %r != %d listed tasks"
                    % (event.get("seq"), event.get("count"), len(tasks))
                )
        elif event.get("event") == "answers_applied":
            answered_ids.update(event.get("task_ids", []))
    unaccounted = answered_ids - issued_ids
    if unaccounted:
        problems.append(
            "%d answered task(s) were never issued: %s"
            % (len(unaccounted), sorted(unaccounted)[:5])
        )
    for event in events:
        if event.get("event") == "run_end":
            posted = event.get("tasks_posted")
            if posted is not None and posted != issued_count:
                problems.append(
                    "run_end reports %r tasks posted but %d were issued"
                    % (posted, issued_count)
                )
    problems.extend(verify_spans(events))
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs",
        description="Verify a metrics snapshot (and optional JSONL trace). "
        "Each counter invariant is checked whenever its counters are "
        "present; its flag makes them required.",
    )
    parser.add_argument("metrics", help="metrics snapshot JSON path")
    parser.add_argument(
        "--trace", default=None, help="JSONL event log to cross-check"
    )
    for label, _, invariant in COUNTER_CHECKS:
        parser.add_argument(
            "--" + label, action="store_true",
            help="require the %s counters (%s)" % (label, invariant),
        )
    parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="verify a write-ahead answer journal: per-record checksums "
        "and sequence, plus replay invariants (open header first, "
        "answers inside rounds, rounds commit in order, no task "
        "answered twice)",
    )
    args = parser.parse_args(argv)

    try:
        with open(args.metrics, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        print("cannot read metrics snapshot: %s" % err, file=sys.stderr)
        return 2
    missing = check_phases(snapshot)
    if missing:
        print(
            "metrics schema is missing phase histogram(s): %s"
            % ", ".join("phase_seconds_%s" % phase for phase in missing),
            file=sys.stderr,
        )
        return 2
    for label, verify, _ in COUNTER_CHECKS:
        if _report(label, verify(snapshot, require=getattr(args, label))):
            return 2
    print(
        "metrics ok: %d counters, %d gauges, %d histograms (phases: %s)"
        % (
            len(snapshot.get("counters", {})),
            len(snapshot.get("gauges", {})),
            len(snapshot.get("histograms", {})),
            ", ".join(PIPELINE_PHASES),
        )
    )
    for label, _, invariant in COUNTER_CHECKS:
        if getattr(args, label):
            print("%s ok: %s" % (label, invariant))
    if args.trace is not None:
        if _report("trace", verify_trace(args.trace)):
            return 2
        print(
            "trace ok: %s parses, accounts for every issued task, and its "
            "span tree is whole" % args.trace
        )
    if args.journal is not None:
        from ..session.journal import journal_problems

        if _report("journal", journal_problems(args.journal)):
            return 2
        print("journal ok: %s verifies and replays consistently" % args.journal)
    return 0


def _report(label: str, problems: List[str]) -> bool:
    """Print each problem to stderr; True when there were any."""
    for problem in problems:
        print("%s problem: %s" % (label, problem), file=sys.stderr)
    return bool(problems)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
