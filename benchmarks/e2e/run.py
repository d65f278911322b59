#!/usr/bin/env python3
"""End-to-end benchmark of skyline queries over incomplete data.

One workload, measured::

    python3 benchmarks/e2e/run.py --workload syn3k-hhs --seed 0 \
        --seconds 20 --trace 0 [--out FILE]

Every workload, each in its own fresh process, untraced then traced::

    python3 benchmarks/e2e/run.py --seed 0 [--out FILE]

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run that gives the per-layer
metrics: it replays queries through the layers' public functions, and
drives the service with the workload's query shape.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it are for
people.  ``--out`` also writes the full record, host facts and the
first replayed query's spans included, as ``{"runs": [...]}``, the
format ``compare.py`` reads.  Workloads, metric names, units and bounds
are listed in ``BENCHMARK.json`` at the repository root.

The exit code is 0 when every check passed, 1 when a check failed, and
2 when the repository's ``src/repro`` package is missing.
"""

from __future__ import annotations

import time

#: the set-up clock starts before any heavy import
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: in-process set-ups per run; ``setup_s`` adds their median to the imports
SETUP_REPEATS = 3
#: ``f1`` is the mean F1 over datasets ``--seed`` to ``--seed + DATASETS
#: - 1``: library workloads run at least this many queries, and service
#: sessions cycle over this many uploaded datasets.  One dataset's F1
#: varies by 10-13% (interquartile range over median) with its seed; the
#: mean over 20 spread 0.2-1.0% over seeds 0-9.  A count set by the clock
#: would make ``f1`` depend on the host's speed.
DATASETS = 20
#: the traced run's minimum median layer coverage
MIN_COVERAGE = 0.95
#: host reference loop drift beyond which a run is marked noisy
NOISY_DRIFT = 0.10


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    n: int
    alpha: float
    strategy: str
    budget: int = 50
    latency: int = 5
    #: 0 = sequential library calls; K = K service clients
    clients: int = 0


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("syn3k-hhs", "synthetic", 3000, 0.01, "hhs"),
        Workload("nba3k-fbs", "nba", 3000, 0.003, "fbs"),
        Workload("syn600-long", "synthetic", 600, 0.1, "ubs", budget=200, latency=20),
        # alpha * n = 12, as for alpha 0.01 at n=1200
        Workload("service-k2", "synthetic", 600, 0.02, "hhs", clients=2),
    )
}

#: smoke mode: tiny datasets, one query, three seconds of service load
SMOKE_N = 300
SMOKE_SERVICE_S = 3.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the run record(s) here")
    parser.add_argument(
        "--smoke", action="store_true", help="n=300, one query, 3 s of service load"
    )
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# host facts and the noise sentinel
# ----------------------------------------------------------------------
def host_sentinel_s() -> float:
    """Best of five host reference timings (see ``drivers.host_ref_s``)."""
    from drivers import host_ref_s

    return min(host_ref_s() for _ in range(5))


def host_facts(seed: int) -> Dict[str, object]:
    import numpy as np

    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
        except OSError:
            pass  # no git binary
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit or "unknown",
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# one workload in this process
# ----------------------------------------------------------------------
class Bench:
    """Set-up, load and metrics of one workload run."""

    def __init__(self, workload: Workload, args: argparse.Namespace) -> None:
        import drivers

        #: interpreter-to-here seconds: the imports of the program
        self.import_s = time.perf_counter() - _STARTED
        self.drivers = drivers
        self.workload = workload
        self.args = args
        self.seed = args.seed
        n, alpha = workload.n, workload.alpha
        if args.smoke:
            # Keep alpha * n, the dominator count Get-CTable tolerates,
            # so a tiny dataset still leaves conditions open for the crowd.
            n, alpha = SMOKE_N, alpha * workload.n / SMOKE_N
        self.shape = drivers.Shape(
            workload.kind,
            n,
            alpha,
            workload.strategy,
            budget=workload.budget,
            latency=workload.latency,
        )
        # Scratch stays inside the checkout, which is all a run may write.
        self.work_dir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
        self.server = None
        self.details: Dict[str, object] = {}
        self.spans: List[dict] = []

    # -- set-up ---------------------------------------------------------
    def setup(self) -> float:
        """Warm up, and start and fill the service for service workloads.

        Sets up :data:`SETUP_REPEATS` times, stopping the service again
        between repeats, and returns the seconds of the program's imports,
        which happen once a process, plus the median set-up.
        """
        drivers = self.drivers
        warm = dataclasses.replace(self.shape, n=200, budget=5, latency=1)
        samples = []
        for _ in range(SETUP_REPEATS):
            self.stop_service()
            start = time.perf_counter()
            drivers.BayesCrowd(warm.dataset(self.seed), warm.config(self.seed)).run()
            if self.workload.clients:
                self.start_service()
            samples.append(time.perf_counter() - start)
        self.details["setup_samples_s"] = samples
        return self.import_s + statistics.median(samples)

    def dataset_seeds(self) -> List[int]:
        return [self.seed + i for i in range(DATASETS)]

    def start_service(self) -> None:
        drivers = self.drivers
        self.server = drivers.ServiceThread(Path(tempfile.mkdtemp(dir=self.work_dir)))
        client = drivers.Client(self.server.port, [])
        try:
            status, _ = client.call("ready", "GET", "/readyz")
            if status != 200:
                raise RuntimeError("service not ready: HTTP %d" % status)
            drivers.upload_datasets(client, self.shape, self.dataset_seeds())
        finally:
            client.close()

    def stop_service(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def close(self) -> None:
        try:
            self.stop_service()
        finally:
            shutil.rmtree(self.work_dir, ignore_errors=True)

    # -- untraced run: end-to-end metrics -----------------------------
    def measure(self) -> dict:
        setup_s = self.setup()
        if self.workload.clients:
            run = self.service_load(self.workload.clients, self.args.seconds)
            rss = peak_rss_mb()
            f1s = list(self.check_sessions(run).values())
            ops = run.sessions
            done = [s for s in ops if s.error is None]
            wall, wall_ref = run.wall_s, run.wall_ref
        else:
            ops = self.drivers.engine_load(
                self.shape,
                self.seed,
                self.args.seconds,
                min_queries=1 if self.args.smoke else DATASETS,
                max_queries=self.max_queries(),
            )
            rss = peak_rss_mb()
            done = [r for r in ops if r.error is None]
            f1s = [r.f1 for r in ops[:DATASETS] if r.error is None]
            wall = sum(r.seconds for r in ops)
            wall_ref = sum(r.seconds / r.ref_s for r in ops)
        timed = done or ops
        errors = [op.error for op in ops if op.error]
        self.details.update(
            queries=len(ops),
            errors=errors[:10],
            query_s=statistics.median(op.seconds for op in timed),
            queries_per_s=len(done) / wall,
            host_ref_s=statistics.median(op.ref_s for op in ops),
            import_s=self.import_s,
            ops=[[op.seed, op.seconds, op.ref_s] for op in ops],
        )
        metrics = {
            "query_cost": statistics.median(op.seconds / op.ref_s for op in timed),
            "query_rate": len(done) / wall_ref,
            "f1": statistics.mean(f1s) if f1s else 0.0,
            "peak_rss_mb": rss,
            "setup_s": setup_s,
        }
        return self.result(not errors, len(ops), len(errors), metrics)

    def max_queries(self) -> int:
        return 1 if self.args.smoke else 0

    def service_load(self, clients: int, seconds: float):
        if self.args.smoke:
            seconds = SMOKE_SERVICE_S
        return self.drivers.service_load(
            self.server, self.shape, self.dataset_seeds(), clients, seconds
        )

    def check_sessions(self, run) -> Dict[int, float]:
        """Stop the service, then check every session against the library."""
        self.stop_service()
        return self.drivers.check_sessions(self.shape, run.sessions)

    # -- traced run: per-layer metrics ----------------------------------
    def trace(self) -> dict:
        drivers = self.drivers
        self.setup()
        half = self.args.seconds / 2.0
        per_query: List[Dict[str, float]] = []
        mismatches: List[str] = []
        deadline = time.perf_counter() + half
        while True:
            seed = self.seed + len(per_query)
            config = self.shape.config(seed)
            # Each of the pair gets its own dataset object, and the pair
            # alternates which runs first, so nothing one run leaves warm
            # biases the tracing-overhead estimate.
            if len(per_query) % 2:
                replay = drivers.replay_query(self.shape.dataset(seed), config)
                reference_s, result = self.timed_run(self.shape.dataset(seed), config)
            else:
                reference_s, result = self.timed_run(self.shape.dataset(seed), config)
                replay = drivers.replay_query(self.shape.dataset(seed), config)
            mismatch = drivers.replay_mismatch(replay, result)
            if mismatch:
                mismatches.append("seed %d: %s" % (seed, mismatch))
            if not self.spans:
                self.spans = replay.tracer.to_dicts()
            total = replay.total_seconds()
            layers = replay.layer_seconds()
            row = {"%s_s" % name: seconds for name, seconds in layers.items()}
            row.update(replay.counts)
            row["obs.layer_coverage"] = sum(layers.values()) / total
            row["obs.trace_overhead_frac"] = total / reference_s - 1.0
            per_query.append(row)
            if self.max_queries() and len(per_query) >= self.max_queries():
                break
            if time.perf_counter() + 2 * total > deadline:
                break
        if self.server is None:
            self.start_service()
        run = self.service_load(max(1, self.workload.clients), half)
        self.check_sessions(run)
        sessions = [s for s in run.sessions if s.error is None]
        failed = len(mismatches) + len(run.sessions) - len(sessions)
        self.details.update(
            replayed=len(per_query),
            sessions=len(run.sessions),
            errors=(mismatches + [s.error for s in run.sessions if s.error])[:10],
        )
        metrics = {
            name: statistics.median(row[name] for row in per_query)
            for name in per_query[0]
        }
        metrics.update(self.service_metrics(run, sessions))
        correct = failed == 0 and metrics["obs.layer_coverage"] >= MIN_COVERAGE
        return self.result(
            correct, len(per_query) + len(run.sessions), failed, metrics
        )

    def timed_run(self, dataset, config):
        start = time.perf_counter()
        result = self.drivers.BayesCrowd(dataset, config).run()
        return time.perf_counter() - start, result

    def service_metrics(self, run, sessions) -> Dict[str, float]:
        percentile = self.drivers.percentile

        def latencies(route: Optional[str]) -> List[float]:
            return [
                seconds * 1000.0
                for r, status, seconds in run.requests
                if route is None or r == route
            ] or [0.0]

        return {
            "service.open_ms_p50": percentile(latencies("open"), 50),
            "service.view_ms_p50": percentile(latencies("view"), 50),
            "service.view_ms_p99": percentile(latencies("view"), 99),
            "service.result_ms_p50": percentile(latencies("result"), 50),
            "service.request_ms_p50": percentile(latencies(None), 50),
            "service.request_ms_p99": percentile(latencies(None), 99),
            "service.requests": len(run.requests),
            "session.engine_s": (
                statistics.median(s.engine_s for s in sessions) if sessions else 0.0
            ),
            "session.overhead_s": (
                statistics.median(s.seconds - s.engine_s for s in sessions)
                if sessions
                else 0.0
            ),
            "session.store_bytes": run.store_bytes / max(1, len(run.sessions)),
        }

    # -- output ----------------------------------------------------------
    def result(
        self, correct: bool, attempted: int, failed: int, values: Dict[str, float]
    ) -> dict:
        """The result object, metrics in ``BENCHMARK.json`` order and units."""
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        specs = spec["per_layer" if self.args.trace else "end_to_end"]
        names = {s["name"] for s in specs}
        if set(values) != names:
            raise RuntimeError(
                "metrics differ from BENCHMARK.json: %s" % sorted(names ^ set(values))
            )
        return {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                s["name"]: {"value": float(values[s["name"]]), "unit": s["unit"]}
                for s in specs
            },
        }


def run_workload(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print("error: no repro package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    bench = Bench(workload, args)
    try:
        host = host_facts(args.seed)
        host["host_ref_before_s"] = host_sentinel_s()
        result = bench.trace() if args.trace else bench.measure()
        host["host_ref_after_s"] = host_sentinel_s()
    finally:
        bench.close()
    before, after = host["host_ref_before_s"], host["host_ref_after_s"]
    host["noisy"] = abs(after - before) / min(before, after) > NOISY_DRIFT
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "host": host,
        "result": result,
        "details": bench.details,
        "spans": bench.spans,
    }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"runs": [record]}, indent=1))
    print("# %s trace=%d host %s" % (workload.name, args.trace, json.dumps(host)))
    print("# details %s" % json.dumps(bench.details))
    for name, metric in result["metrics"].items():
        print("#   %-28s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    records = []
    status = 0
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        for name in WORKLOADS:
            for trace in (0, 1):
                out = Path(tmp) / ("%s-%d.json" % (name, trace))
                command = [
                    sys.executable,
                    str(Path(__file__).resolve()),
                    "--workload",
                    name,
                    "--seed",
                    str(args.seed),
                    "--seconds",
                    str(args.seconds),
                    "--trace",
                    str(trace),
                    "--out",
                    str(out),
                ] + (["--smoke"] if args.smoke else [])
                code = subprocess.run(command, cwd=ROOT).returncode
                status = status or code
                if out.exists():
                    records.extend(json.loads(out.read_text())["runs"])
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"runs": records}, indent=1))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM as on an error, so the service stops and the
    # scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
