"""Figure 2 benchmark: c-table construction across backends.

Series: construction time per (dataset, missing rate, method).  The
``method`` axis covers both scalar paths (``fast`` = selectivity-sorted
filters, ``baseline`` = pure-Python pairwise Get-CTable) and the numpy
backend, whose sub-quadratic pruning scan derives the dominator sets
(``pruned``).  Expected shape: ``pruned`` beats ``fast`` beats
``baseline`` at every point and all rise with the missing rate; the
pruned build tests a small fraction of the pair universe while building
the identical c-table (asserted in standalone mode).

Standalone mode benchmarks scaling directly (no pytest needed) and emits
``BENCH_fig02_ctable.json`` in pytest-benchmark shape, so
``python -m repro.benchreport BENCH_fig02_ctable.json`` renders it::

    python benchmarks/bench_fig02_ctable.py --n 10000
"""

import argparse
import gc
import json
import sys
from pathlib import Path

import pytest

from repro.ctable import build_ctable
from repro.experiments.data import nba_dataset, synthetic_dataset
from repro.obs import MetricsRegistry, Tracer

MISSING_RATES = (0.05, 0.10, 0.15, 0.20)
SIZES = {"nba": 300, "synthetic": 600}

#: method axis -> (backend, dominator_method) of :func:`build_ctable`
METHOD_CONFIGS = {
    "fast": ("python", "fast"),
    "baseline": ("python", "baseline"),
    "pruned": ("numpy", "fast"),
}


def _build(dataset, method, alpha=0.05):
    backend, dominator_method = METHOD_CONFIGS[method]
    return build_ctable(
        dataset, alpha=alpha, dominator_method=dominator_method, backend=backend
    )


@pytest.mark.parametrize("kind", sorted(SIZES))
@pytest.mark.parametrize("missing_rate", MISSING_RATES)
@pytest.mark.parametrize("method", sorted(METHOD_CONFIGS))
def test_ctable_construction(benchmark, once, kind, missing_rate, method):
    if kind == "nba":
        dataset = nba_dataset(SIZES[kind], missing_rate)
    else:
        dataset = synthetic_dataset(SIZES[kind], missing_rate)
    ctable = once(benchmark, lambda: _build(dataset, method))
    benchmark.extra_info["certain_answers"] = len(ctable.certain_answers())
    benchmark.extra_info["open_conditions"] = len(ctable.undecided())
    benchmark.extra_info["backend"] = ctable.build_stats["backend"]
    benchmark.extra_info["pairs_per_sec"] = round(
        ctable.build_stats["pairs_per_sec"]
    )


# ----------------------------------------------------------------------
# standalone scaling run
# ----------------------------------------------------------------------
def run_standalone(
    n, missing_rate, methods, alpha, out_path, repeats=1, append=False,
    verify=True,
):
    """Time each method at cardinality ``n``; write benchreport JSON.

    With ``repeats > 1`` the best (minimum) wall time is reported -- the
    standard low-noise estimator on shared machines.  All methods build
    the *same* c-table by construction; with ``verify`` the run asserts
    it (conditions and pruned sets identical to the first method's), so
    a pruning bug fails the bench rather than skewing it.
    ``append`` folds the rows into an existing report (e.g. adding an
    n=100k row to the n=10k file).  The output carries a ``metrics`` key
    in the unified observability schema: every timed build lands in the
    ``phase_seconds_ctable`` histogram and the winning build's counters
    are absorbed per method.
    """
    dataset = synthetic_dataset(n, missing_rate)
    registry = MetricsRegistry()
    tracer = Tracer(registry=registry)
    rows = []
    reference = None
    reference_ctable = None
    try:
        for method in methods:
            seconds = None
            for __ in range(max(1, repeats)):
                # Release the previous build first: the collector would scan
                # its objects during this timed build.
                ctable = None
                with tracer.span("ctable[%s]" % method, phase="ctable") as span:
                    ctable = _build(dataset, method, alpha=alpha)
                elapsed = span.seconds
                if seconds is None or elapsed < seconds:
                    seconds = elapsed
            if reference is None:
                reference = seconds
            parity_ok = None
            if verify:
                if reference_ctable is None:
                    reference_ctable = ctable
                    parity_ok = True
                    # Move the kept reference out of the collector's reach,
                    # so it skews no later timed build.
                    gc.collect()
                    gc.freeze()
                else:
                    parity_ok = (
                        ctable.conditions == reference_ctable.conditions
                        and ctable.pruned == reference_ctable.pruned
                    )
                    if not parity_ok:
                        raise AssertionError(
                            "method %r built a different c-table than %r"
                            % (method, methods[0])
                        )
            stats = ctable.build_stats
            registry.absorb(stats, prefix="ctable_%s_" % method)
            extra = {
                "method": method,
                "backend": stats["backend"],
                "n_objects": n,
                "missing_rate": missing_rate,
                "alpha": alpha,
                "pairs_tested": stats["pairs_tested"],
                "pairs_pruned": stats["pairs_pruned"],
                "pair_universe": stats["pair_universe"],
                "pairs_reduction": (
                    round(stats["pair_universe"] / stats["pairs_tested"], 2)
                    if stats["pairs_tested"]
                    else 0.0
                ),
                "pairs_per_sec": round(stats["pairs_tested"] / seconds) if seconds else 0,
                "open_conditions": stats["open_conditions"],
                "repeats": max(1, repeats),
                "speedup_vs_first": round(reference / seconds, 2) if seconds else 0.0,
            }
            if parity_ok is not None:
                extra["parity_vs_first"] = parity_ok
            if stats.get("prune_enabled"):
                extra["scan_seconds"] = round(stats["scan_seconds"], 3)
            rows.append(
                {
                    "name": "ctable[n=%d,%s]" % (n, method),
                    "fullname": "bench_fig02_ctable.py::standalone",
                    "stats": {"mean": seconds},
                    "extra_info": extra,
                }
            )
            print(
                "%-16s %8.3fs  %12s pairs/s  %6.2fx pairs pruned  (%.2fx vs %s)"
                % (
                    method,
                    seconds,
                    extra["pairs_per_sec"],
                    extra["pairs_reduction"],
                    extra["speedup_vs_first"],
                    methods[0],
                )
            )
    finally:
        gc.unfreeze()
    payload = {"benchmarks": rows, "metrics": registry.snapshot()}
    path = Path(out_path)
    if append and path.exists():
        previous = json.loads(path.read_text())
        fresh_names = {row["name"] for row in rows}
        payload["benchmarks"] = [
            row
            for row in previous.get("benchmarks", [])
            if row["name"] not in fresh_names
        ] + rows
        # keep the newest run's metrics: counters are additive and mixing
        # registries across runs would break the pair-accounting invariant
        payload["metrics"] = registry.snapshot()
    path.write_text(json.dumps(payload, indent=2))
    print("wrote %s" % out_path)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Standalone c-table construction scaling benchmark."
    )
    parser.add_argument("--n", type=int, default=10_000, help="dataset cardinality")
    parser.add_argument("--missing-rate", type=float, default=0.10)
    parser.add_argument("--alpha", type=float, default=0.01)
    parser.add_argument(
        "--methods", nargs="+", default=["fast", "pruned"],
        choices=sorted(METHOD_CONFIGS),
        help="methods to compare, first is the speedup reference",
    )
    parser.add_argument(
        "--out", default="BENCH_fig02_ctable.json", help="output JSON path"
    )
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="timing repeats per method; the best run is reported",
    )
    parser.add_argument(
        "--append", action="store_true",
        help="merge rows into an existing --out file (replacing rows of "
        "the same name) instead of overwriting it",
    )
    parser.add_argument(
        "--no-verify", action="store_true",
        help="skip the cross-method c-table parity assertion",
    )
    args = parser.parse_args(argv)
    run_standalone(
        args.n, args.missing_rate, args.methods, args.alpha, args.out,
        repeats=args.repeats, append=args.append, verify=not args.no_verify,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
