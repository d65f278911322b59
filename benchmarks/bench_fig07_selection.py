"""Selection-phase benchmark: batched vs scalar utility scoring.

The crowdsourcing loop's task selection (UBS/HHS) is the paper's
probability-heavy inner phase: every round scores ``G(o, e)`` for each
candidate expression of the top-k objects.  The scalar path issues
serial probability evaluations per candidate (the base condition plus
both residuals); the :class:`repro.core.utility_engine.UtilityEngine`
collects each round's candidates into one batch backed by a cross-round
gain cache, and scores the pairs ADPLL's one-pass branch kernel covers
without solving any residual condition.

The rows' times are the phase's cost.  The **utility-evaluation
reduction** (probability evaluations the scalar path issues, divided by
the fresh solves the batched path performs) is a proxy: with every pair
kernel-scored the batched path performs none and the ratio reads
``inf``.  The run fails loudly if the two paths ever disagree on a
round's selected objects or the final answer set, or if the reduction
drops below 2x on the reference workload.

Standalone mode emits ``BENCH_fig07_selection.json`` in pytest-benchmark
shape (render with ``python -m repro.benchreport``)::

    python benchmarks/bench_fig07_selection.py
"""

import argparse
import json
import sys
from pathlib import Path

import pytest

from repro.core import BayesCrowdConfig, run_bayescrowd
from repro.datasets import generate_synthetic
from repro.obs import MetricsRegistry, Tracer

STRATEGIES = ("hhs", "ubs")

#: Reference workload (n=1200, k=10, 10 rounds) must stay above this.
MIN_REDUCTION = 2.0


def _run(dataset, strategy, batched, budget, latency, alpha, seed):
    config = BayesCrowdConfig(
        budget=budget,
        latency=latency,
        strategy=strategy,
        alpha=alpha,
        selection_batch=batched,
        seed=seed,
    )
    return run_bayescrowd(dataset, config)


def _assert_identical_selections(batched, scalar, strategy):
    """Both paths must pick the same objects every round and agree on answers."""
    assert len(batched.history) == len(scalar.history), (
        "%s: batched ran %d rounds, scalar %d"
        % (strategy, len(batched.history), len(scalar.history))
    )
    for round_b, round_s in zip(batched.history, scalar.history):
        assert round_b.objects == round_s.objects, (
            "%s round %d: batched selected %r, scalar %r"
            % (strategy, round_b.round_index, round_b.objects, round_s.objects)
        )
    assert set(batched.answers) == set(scalar.answers), (
        "%s: answer sets diverged" % strategy
    )


def _selection_extra(result, budget, latency):
    stats = result.engine_stats
    return {
        "rounds": result.rounds,
        "k": -(-budget // latency),
        "tasks_posted": result.tasks_posted,
        "utility_candidates_total": stats["utility_candidates_total"],
        "utility_evals_total": stats["utility_evals_total"],
        "residual_cache_hits": stats["residual_cache_hits"],
        "utility_skipped_total": stats["utility_skipped_total"],
        "utility_probability_requests": stats["utility_probability_requests"],
        "utility_probability_submitted": stats["utility_probability_submitted"],
        "utility_probability_computed": stats["utility_probability_computed"],
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry points (small n; CI's benchmark-only sweep)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_selection_parity_and_reduction(benchmark, once, strategy):
    dataset = generate_synthetic(n_objects=300, missing_rate=0.1, seed=13)
    scalar = _run(dataset, strategy, False, 40, 8, 0.05, 0)

    batched = once(
        benchmark, lambda: _run(dataset, strategy, True, 40, 8, 0.05, 0)
    )
    _assert_identical_selections(batched, scalar, strategy)
    extra = _selection_extra(batched, 40, 8)
    extra["scalar_probability_requests"] = (
        scalar.engine_stats["utility_probability_requests"]
    )
    computed = extra["utility_probability_computed"]
    extra["evaluation_reduction"] = (
        round(extra["scalar_probability_requests"] / computed, 2) if computed else 0.0
    )
    benchmark.extra_info.update(extra)


# ----------------------------------------------------------------------
# standalone run (the committed reference numbers)
# ----------------------------------------------------------------------
def run_standalone(n, missing_rate, alpha, budget, latency, seed, out_path, check=True):
    """Batched vs scalar selection for each strategy, parity-checked."""
    dataset = generate_synthetic(
        n_objects=n, missing_rate=missing_rate, seed=seed + 13
    )
    k = -(-budget // latency)
    print(
        "synthetic n=%d missing=%.2f alpha=%.3f budget=%d latency=%d (k=%d)"
        % (n, missing_rate, alpha, budget, latency, k)
    )
    registry = MetricsRegistry()
    tracer = Tracer(registry=registry)
    rows = []
    reference_scale = n == 1200 and k == 10
    for strategy in STRATEGIES:
        results = {}
        for batched in (False, True):
            variant = "batched" if batched else "scalar"
            with tracer.span(
                "selection[%s,%s]" % (strategy, variant), phase="round"
            ):
                results[batched] = _run(
                    dataset, strategy, batched, budget, latency, alpha, seed
                )
        scalar, batched = results[False], results[True]
        _assert_identical_selections(batched, scalar, strategy)

        scalar_requests = scalar.engine_stats["utility_probability_requests"]
        computed = batched.engine_stats["utility_probability_computed"]
        reduction = scalar_requests / computed if computed else float("inf")
        candidates = batched.engine_stats["utility_candidates_total"]
        evals = batched.engine_stats["utility_evals_total"]
        gain_reduction = candidates / evals if evals else float("inf")

        for variant, result in (("scalar", scalar), ("batched", batched)):
            extra = _selection_extra(result, budget, latency)
            extra.update(
                variant=variant,
                strategy=strategy,
                identical_selections=True,
                evaluation_reduction=round(reduction, 2),
                gain_request_reduction=round(gain_reduction, 2),
            )
            rows.append(
                {
                    "name": "selection[synthetic,n=%d,%s,%s]" % (n, strategy, variant),
                    "fullname": "bench_fig07_selection.py::standalone",
                    "stats": {"mean": result.engine_stats["selection_seconds"]},
                    "extra_info": extra,
                }
            )
            registry.absorb(
                {
                    key: value
                    for key, value in result.engine_stats.items()
                    if key.startswith(("utility_", "residual_", "selection_"))
                },
                prefix="%s_%s_" % (strategy, variant),
            )
        print(
            "%-3s rounds=%d  scalar: %d prob evals in %.3fs | batched: %d fresh "
            "solves in %.3fs -> %.2fx evaluation reduction (%.2fx at gain level)"
            % (
                strategy,
                batched.rounds,
                scalar_requests,
                scalar.engine_stats["selection_seconds"],
                computed,
                batched.engine_stats["selection_seconds"],
                reduction,
                gain_reduction,
            )
        )
        if check and reference_scale:
            assert batched.rounds >= 10, (
                "%s: reference workload ran only %d rounds" % (strategy, batched.rounds)
            )
            assert reduction >= MIN_REDUCTION, (
                "%s: evaluation reduction %.2fx below the %.1fx floor"
                % (strategy, reduction, MIN_REDUCTION)
            )
    Path(out_path).write_text(
        json.dumps({"benchmarks": rows, "metrics": registry.snapshot()}, indent=2)
    )
    print("wrote %s" % out_path)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Standalone batched vs scalar selection benchmark."
    )
    parser.add_argument("--n", type=int, default=1200, help="dataset cardinality")
    parser.add_argument("--missing-rate", type=float, default=0.1)
    parser.add_argument("--alpha", type=float, default=0.03)
    parser.add_argument("--budget", type=int, default=100, help="crowd task budget B")
    parser.add_argument("--latency", type=int, default=10, help="max rounds L")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--no-check",
        action="store_true",
        help="skip the >=2x reduction assertion (off-reference workloads)",
    )
    parser.add_argument(
        "--out", default="BENCH_fig07_selection.json", help="output JSON path"
    )
    args = parser.parse_args(argv)
    run_standalone(
        args.n,
        args.missing_rate,
        args.alpha,
        args.budget,
        args.latency,
        args.seed,
        args.out,
        check=not args.no_check,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
