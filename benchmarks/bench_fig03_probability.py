"""Figure 3 benchmark: probability computation, ADPLL vs Naive vs batch.

Series: total time over the initial c-table's conditions per
(dataset, missing rate, method).  Conditions whose assignment space
exceeds the enumeration cap are excluded for both methods (their count is
in ``extra_info``).  Expected shape: ADPLL faster than Naive everywhere,
the gap widening with the missing rate; ``batch`` (the engine's
``probability_many``, deduplicated and cache-served) at or below plain
ADPLL.

Standalone mode times the engine per condition and batched, and emits
``BENCH_fig03_probability.json`` in pytest-benchmark shape (render with
``python -m repro.benchreport``)::

    python benchmarks/bench_fig03_probability.py
"""

import argparse
import json
import os
import sys
from pathlib import Path

import pytest

from repro.bayesnet.posteriors import empirical_distributions
from repro.ctable import build_ctable
from repro.experiments.data import nba_dataset, synthetic_dataset
from repro.obs import MetricsRegistry, Tracer
from repro.probability import (
    ADPLL,
    DistributionStore,
    ProbabilityEngine,
    naive_probability,
)

MISSING_RATES = (0.05, 0.10, 0.15, 0.20)
SIZES = {"nba": 200, "synthetic": 400}
ENUMERATION_CAP = 300_000


def _feasible_conditions(kind, missing_rate, n=None, alpha=0.02, cap=ENUMERATION_CAP):
    if kind == "nba":
        dataset = nba_dataset(n or SIZES[kind], missing_rate)
    else:
        dataset = synthetic_dataset(n or SIZES[kind], missing_rate)
    ctable = build_ctable(dataset, alpha=alpha)
    store = DistributionStore(empirical_distributions(dataset), ctable.constraints)
    feasible = []
    skipped = 0
    for obj in ctable.undecided():
        condition = ctable.condition(obj)
        if cap is None:
            feasible.append(condition)
            continue
        space = 1
        for variable in condition.variables():
            space *= dataset.domain_sizes[variable[1]]
            if space > cap:
                break
        if space > cap:
            skipped += 1
        else:
            feasible.append(condition)
    return feasible, store, skipped


@pytest.mark.parametrize("kind", sorted(SIZES))
@pytest.mark.parametrize("missing_rate", MISSING_RATES)
@pytest.mark.parametrize("method", ["adpll", "naive", "batch"])
def test_probability_computation(benchmark, once, kind, missing_rate, method):
    conditions, store, skipped = _feasible_conditions(kind, missing_rate)

    if method == "adpll":
        def compute():
            solver = ADPLL(store)
            return [solver.probability(c) for c in conditions]
    elif method == "naive":
        def compute():
            return [
                naive_probability(c, store, max_assignments=None) for c in conditions
            ]
    else:
        def compute():
            return ProbabilityEngine(store).probability_many(conditions)

    values = once(benchmark, compute)
    benchmark.extra_info["conditions"] = len(conditions)
    benchmark.extra_info["skipped_too_large"] = skipped
    benchmark.extra_info["mean_probability"] = (
        sum(values) / len(values) if values else 0.0
    )


# ----------------------------------------------------------------------
# standalone batch run
# ----------------------------------------------------------------------
def run_standalone(kind, n, missing_rate, alpha, out_path):
    """Time per-condition vs batched probability computation."""
    # No enumeration cap here: every variant runs ADPLL, which does not
    # need naive-enumeration feasibility.
    conditions, store, skipped = _feasible_conditions(
        kind, missing_rate, n=n, alpha=alpha, cap=None
    )
    print("%d conditions" % len(conditions))
    registry = MetricsRegistry()
    tracer = Tracer(registry=registry)
    rows = []
    reference = None
    baseline_values = None
    for name, batched in (("sequential", False), ("batch", True)):
        # Fresh store per variant: expression caches live on the store, so
        # sharing one would hand later variants a warm start.
        engine = ProbabilityEngine(
            DistributionStore({v: store.pmf(v) for v in store.variables()})
        )
        with tracer.span(
            "probability[%s]" % name, phase="probability"
        ) as span:
            if batched:
                values = engine.probability_many(conditions)
            else:
                values = [engine.probability(c) for c in conditions]
        seconds = span.seconds
        drift = 0.0
        if baseline_values is None:
            baseline_values = values
        else:
            drift = max(
                (abs(a - b) for a, b in zip(baseline_values, values)), default=0.0
            )
            assert drift < 1e-9, "variant %s drifted by %g" % (name, drift)
        if reference is None:
            reference = seconds
        stats = engine.stats()
        registry.absorb(stats, prefix="engine_%s_" % name)
        extra = {
            "variant": name,
            "cpu_count": os.cpu_count(),
            "conditions": len(conditions),
            "probabilities_per_sec": round(
                len(conditions) / seconds if seconds else 0.0
            ),
            "speedup_vs_sequential": round(reference / seconds, 2) if seconds else 0.0,
        }
        if name != "sequential":
            extra["parity_max_drift"] = drift
        rows.append(
            {
                "name": "probability[%s,n=%d,%s]" % (kind, n, name),
                "fullname": "bench_fig03_probability.py::standalone",
                "stats": {"mean": seconds},
                "extra_info": extra,
            }
        )
        print(
            "%-11s %8.3fs  %8s probs/s  (%.2fx vs sequential)"
            % (
                name,
                seconds,
                extra["probabilities_per_sec"],
                extra["speedup_vs_sequential"],
            )
        )
    Path(out_path).write_text(
        json.dumps(
            {"benchmarks": rows, "metrics": registry.snapshot()}, indent=2
        )
    )
    print("wrote %s" % out_path)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Standalone batched probability computation benchmark."
    )
    parser.add_argument("--kind", choices=sorted(SIZES), default="synthetic")
    parser.add_argument("--n", type=int, default=1200, help="dataset cardinality")
    parser.add_argument("--missing-rate", type=float, default=0.15)
    parser.add_argument("--alpha", type=float, default=0.03)
    parser.add_argument(
        "--out", default="BENCH_fig03_probability.json", help="output JSON path"
    )
    args = parser.parse_args(argv)
    run_standalone(args.kind, args.n, args.missing_rate, args.alpha, args.out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
