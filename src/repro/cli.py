"""Top-level demo CLI: run one crowd-assisted skyline query.

Usage::

    python -m repro --dataset nba --n 500 --budget 50 --strategy hhs
    python -m repro --dataset movies            # the paper's Table 1 example

Generates (or loads) a dataset with hidden ground truth, runs BayesCrowd
against the simulated crowd, and prints cost, latency and F1 against the
complete-data skyline.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
from typing import List, Optional

from .core import BayesCrowd, BayesCrowdConfig
from .crowd.unreliable import FaultModel
from .errors import CheckpointError, JournalError, SessionCancelledError
from .datasets import (
    example_distributions,
    generate_nba,
    generate_synthetic,
    sample_dataset,
)
from .metrics.accuracy import accuracy_report
from .session.context import SessionContext
from .skyline.algorithms import skyline


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Crowd-assisted skyline query over incomplete data (BayesCrowd).",
    )
    parser.add_argument(
        "--dataset", choices=["nba", "synthetic", "movies"], default="nba"
    )
    parser.add_argument("--n", type=int, default=500, help="dataset cardinality")
    parser.add_argument(
        "--missing-rate", type=float, default=0.1, help="fraction of hidden cells"
    )
    parser.add_argument("--budget", type=int, default=50, help="crowd task budget B")
    parser.add_argument("--latency", type=int, default=5, help="max rounds L")
    parser.add_argument(
        "--strategy", choices=["fbs", "ubs", "hhs"], default="hhs"
    )
    parser.add_argument("--m", type=int, default=15, help="HHS early-stop parameter")
    parser.add_argument("--alpha", type=float, default=0.05, help="pruning threshold")
    parser.add_argument(
        "--worker-accuracy", type=float, default=1.0, help="simulated worker accuracy"
    )
    parser.add_argument("--seed", type=int, default=0)
    perf = parser.add_argument_group("performance")
    perf.add_argument(
        "--backend", choices=["auto", "numpy", "python"], default="auto",
        help="c-table construction backend (auto = numpy unless the "
        "baseline dominator method is selected)",
    )
    perf.add_argument(
        "--selection", choices=["batched", "scalar"], default="batched",
        help="utility scoring path: 'batched' dedups each round's "
        "candidates into one probability batch with a cross-round gain "
        "cache; 'scalar' is the per-candidate loop (identical selections)",
    )
    perf.add_argument(
        "--utility-cache-size", type=int, default=None, metavar="N",
        help="bound on the utility gain/residual caches "
        "(0 = unbounded; default %d)" % BayesCrowdConfig.utility_cache_size,
    )
    perf.add_argument(
        "--perf", action="store_true",
        help="print engine/c-table perf counters after the run",
    )
    fault = parser.add_argument_group("fault injection (unreliable crowd)")
    fault.add_argument(
        "--drop-rate", type=float, default=0.0,
        help="per-task probability that no worker answers it",
    )
    fault.add_argument(
        "--spam-fraction", type=float, default=0.0,
        help="per-task probability the answer comes from a random spammer",
    )
    fault.add_argument(
        "--transient-every", type=int, default=0,
        help="every Nth batch post fails transiently (0 disables)",
    )
    integrity = parser.add_argument_group("answer integrity & resource guards")
    integrity.add_argument(
        "--strict-integrity", action="store_true",
        help="quarantine answers that contradict the accepted partial "
        "order and re-ask them (reliability-weighted) instead of "
        "applying them",
    )
    integrity.add_argument(
        "--reask-budget-frac", type=float, default=None, metavar="F",
        help="cap on re-ask spend as a fraction of the budget "
        "(default %.2f)" % BayesCrowdConfig.reask_budget_frac,
    )
    integrity.add_argument(
        "--adpll-node-budget", type=int, default=None, metavar="N",
        help="ADPLL branch-node budget per condition before degrading "
        "to sampling (0 = unlimited)",
    )
    integrity.add_argument(
        "--adpll-deadline-s", type=float, default=None, metavar="S",
        help="per-condition wall-clock deadline for exact ADPLL in "
        "seconds (0 = none)",
    )
    integrity.add_argument(
        "--reliability-prior", type=float, nargs=2, default=None,
        metavar=("ALPHA", "BETA"),
        help="Beta prior pseudo-counts of the online worker-reliability "
        "model (default %.1f %.1f)" % BayesCrowdConfig.reliability_prior,
    )
    resilience = parser.add_argument_group("resilience")
    resilience.add_argument(
        "--max-retries", type=int, default=3,
        help="batch re-posts after transient platform errors",
    )
    resilience.add_argument(
        "--requeue-policy", choices=["requeue", "refund"], default="requeue",
        help="what happens to unanswered tasks",
    )
    resilience.add_argument(
        "--resume", action="store_true",
        help="resume from the --journal PATH, if the file exists",
    )
    resilience.add_argument(
        "--journal", metavar="PATH", default=None,
        help="write-ahead answer journal (append-only JSONL, fsync + "
        "CRC): every accepted answer and budget charge is durable before "
        "engine state mutates, so a killed run resumes bit-identically "
        "with --resume",
    )
    resilience.add_argument(
        "--no-journal-fsync", action="store_true",
        help="skip the per-record fsync (faster, but a power loss may "
        "drop the last few journal records)",
    )
    resilience.add_argument(
        "--session-deadline-s", type=float, default=None, metavar="S",
        help="cooperative wall-clock deadline for the whole run; on "
        "expiry the run stops at the next phase boundary with a "
        "SessionCancelledError (journaled state stays resumable)",
    )
    obs = parser.add_argument_group("observability")
    obs.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write a JSONL event log of per-round decisions (tasks "
        "issued, answers applied, objects decided) and phase spans",
    )
    obs.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the unified metrics snapshot (JSON schema; a "
        ".prom/.txt suffix selects Prometheus text format)",
    )
    return parser


def _fault_model(args) -> "FaultModel | None":
    if args.drop_rate == 0.0 and args.spam_fraction == 0.0 and args.transient_every == 0:
        return None
    return FaultModel(
        drop_rate=args.drop_rate,
        spam_fraction=args.spam_fraction,
        transient_every=args.transient_every,
    )


@contextlib.contextmanager
def _cancel_on_signals(session: SessionContext):
    """Route SIGTERM/SIGINT to the session's cooperative cancellation.

    Batch runs park at the next phase boundary with the journal
    intact (exit 3, resumable with ``--resume``) instead of dying
    mid-mutation.  No-op outside the main thread (signal module rules)
    and handlers are always restored.
    """

    def _handler(signum, frame):  # noqa: ARG001 - signal signature
        session.cancellation.cancel(
            "received %s" % signal.Signals(signum).name
        )

    previous = {}
    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, _handler)
    except ValueError:  # not the main thread; run uncancellable
        pass
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def main(argv: Optional[List[str]] = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] == "serve":
        from .service.server import main as serve_main

        return serve_main(raw[1:])
    args = build_parser().parse_args(raw)
    if args.resume and not args.journal:
        print("--resume needs --journal PATH", file=sys.stderr)
        return 2
    try:
        faults = _fault_model(args)
    except ValueError as err:
        print("invalid fault rate: %s" % err, file=sys.stderr)
        return 2

    if args.dataset == "movies":
        dataset = sample_dataset()
        distributions = example_distributions()
        overrides = dict(alpha=1.0, distribution_source="uniform")
    else:
        distributions = None
        overrides = dict(alpha=args.alpha)
        if args.dataset == "nba":
            dataset = generate_nba(
                n_objects=args.n, missing_rate=args.missing_rate, seed=args.seed + 7
            )
        else:
            dataset = generate_synthetic(
                n_objects=args.n, missing_rate=args.missing_rate, seed=args.seed + 13
            )
    try:
        config = BayesCrowdConfig(
            budget=args.budget,
            latency=args.latency,
            strategy=args.strategy,
            m=args.m,
            worker_accuracy=args.worker_accuracy,
            backend=args.backend,
            selection_batch=(args.selection == "batched"),
            **(
                {"utility_cache_size": args.utility_cache_size}
                if args.utility_cache_size is not None
                else {}
            ),
            max_retries=args.max_retries,
            requeue_policy=args.requeue_policy,
            strict_integrity=args.strict_integrity,
            **(
                {"reask_budget_frac": args.reask_budget_frac}
                if args.reask_budget_frac is not None
                else {}
            ),
            **(
                {"adpll_node_budget": args.adpll_node_budget}
                if args.adpll_node_budget is not None
                else {}
            ),
            **(
                {"adpll_deadline_s": args.adpll_deadline_s}
                if args.adpll_deadline_s is not None
                else {}
            ),
            **(
                {"reliability_prior": tuple(args.reliability_prior)}
                if args.reliability_prior is not None
                else {}
            ),
            faults=faults,
            trace_path=args.trace_out,
            metrics_path=args.metrics_out,
            journal_path=args.journal,
            journal_fsync=not args.no_journal_fsync,
            **(
                {"session_deadline_s": args.session_deadline_s}
                if args.session_deadline_s is not None
                else {}
            ),
            seed=args.seed,
            **overrides,
        )
    except ValueError as err:
        print("invalid configuration: %s" % err, file=sys.stderr)
        return 2
    session = SessionContext(seed=args.seed, session_id="cli")
    query = BayesCrowd(
        dataset, config, distributions=distributions, session=session
    )

    try:
        with _cancel_on_signals(session):
            # The banner prints only once signal handlers are armed, so
            # anyone synchronizing on it (tests, wrappers) can deliver
            # SIGTERM immediately and still get the cooperative path.
            print(
                "dataset %s: %d objects x %d attributes, missing rate %.2f"
                % (dataset.name, dataset.n_objects, dataset.n_attributes,
                   dataset.missing_rate),
                flush=True,
            )
            result = query.run(resume=args.resume)
    except (CheckpointError, JournalError) as err:
        print("cannot resume: %s" % err, file=sys.stderr)
        return 2
    except SessionCancelledError as err:
        print(
            "run cancelled: %s (journal state remains; "
            "re-run with --resume to continue)" % err,
            file=sys.stderr,
        )
        return 3
    truth = skyline(dataset.complete)
    report = accuracy_report(result.answers, truth)
    initial = accuracy_report(result.initial_answers, truth)

    print("strategy %s | budget %d | latency %d" % (args.strategy, args.budget, args.latency))
    print(
        "posted %d tasks (%d answered) in %d rounds; algorithm time %.2fs "
        "(modeling %.2fs)"
        % (
            result.tasks_posted,
            result.tasks_answered,
            result.rounds,
            result.seconds,
            result.modeling_seconds,
        )
    )
    if result.resumed:
        print("resumed from journal %s" % args.journal)
    if result.degraded:
        faults_text = ", ".join(
            "%s=%d" % (key, value) for key, value in sorted(result.fault_counts.items())
        )
        print("DEGRADED run: platform faults cost information (%s)" % faults_text)
    if result.integrity.get("contradictions_detected"):
        print(
            "integrity: %d/%d answers contradictory (%d quarantined, "
            "%d re-asks issued)"
            % (
                result.integrity.get("contradictions_detected", 0),
                result.integrity.get("answers_aggregated", 0),
                result.integrity.get("answers_quarantined", 0),
                result.integrity.get("answers_reasked", 0),
            )
        )
    approx_objects = result.approximate_objects()
    if approx_objects:
        print(
            "resource guard: %d answer probabilit%s approximate "
            "(max error bound %.3f)"
            % (
                len(approx_objects),
                "y" if len(approx_objects) == 1 else "ies",
                max(
                    result.probability_error_bounds.get(obj, 0.0)
                    for obj in approx_objects
                ),
            )
        )
    print("machine-only F1 %.3f -> crowd-assisted F1 %.3f (%s)" % (
        initial.f1, report.f1, report))
    print("answers: %d objects (%d certain)" % (
        len(result.answers), len(result.certain_answers)))
    if args.trace_out:
        print("trace: wrote JSONL event log to %s" % args.trace_out)
    if args.metrics_out:
        print("metrics: wrote snapshot to %s" % args.metrics_out)
    if args.journal:
        print("journal: write-ahead answer journal at %s" % args.journal)
    if args.perf:
        stats = result.engine_stats
        print(
            "perf: ctable %s backend, %.0f pairs/s | engine %.0f probs/s, "
            "cache hit rate %.1f%%, %d rescored and %d bounded across %d rankings"
            % (
                stats.get("ctable_backend", "?"),
                stats.get("ctable_pairs_per_sec", 0.0),
                stats.get("probabilities_per_sec", 0.0),
                100.0 * stats.get("cache_hit_rate", 0.0),
                stats.get("objects_rescored", 0),
                stats.get("objects_bounded", 0),
                stats.get("rankings", 0),
            )
        )
        candidates = stats.get("utility_candidates_total", 0)
        evals = stats.get("utility_evals_total", 0)
        print(
            "selection (%s): %d gain requests -> %d fresh evaluations "
            "(%.1fx via dedup + cache), %.3fs"
            % (
                args.selection,
                candidates,
                evals,
                candidates / evals if evals else 0.0,
                stats.get("selection_seconds", 0.0),
            )
        )
        for key in sorted(stats):
            print("  %s = %s" % (key, stats[key]))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
