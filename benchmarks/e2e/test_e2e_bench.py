"""Tests of the end-to-end benchmark itself (``pytest benchmarks/e2e``).

They drive ``run.py --smoke`` (n=300, one query, 3 s of service load)
in fresh processes, exactly as a user would, and exercise ``compare.py``
on hand-made run sets.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, timeout=600):
    return subprocess.run(
        [sys.executable, *map(str, args)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Every workload, untraced and traced, in smoke mode."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = _run(RUN, "--seed", 0, "--seconds", 3, "--smoke", "--out", out)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(out.read_text())["runs"]


def test_every_workload_runs_untraced_and_traced(smoke_runs):
    seen = {(run["workload"], run["trace"]) for run in smoke_runs}
    names = [w["name"] for w in SPEC["workloads"]]
    assert seen == {(name, trace) for name in names for trace in (0, 1)}


def test_every_metric_appears_with_its_unit(smoke_runs):
    for run in smoke_runs:
        expected = SPEC["per_layer"] if run["trace"] else SPEC["end_to_end"]
        metrics = run["result"]["metrics"]
        assert list(metrics) == [m["name"] for m in expected], run["workload"]
        for spec in expected:
            assert metrics[spec["name"]]["unit"] == spec["unit"], spec["name"]


def test_untraced_runs_pass_the_correctness_gate(smoke_runs):
    for run in smoke_runs:
        if run["trace"]:
            continue
        result = run["result"]
        assert result["correct"] and result["failed"] == 0, run["details"]
        assert result["attempted"] >= 1
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, (run["workload"], name)


def test_replay_matches_and_covers_the_query(smoke_runs):
    for run in smoke_runs:
        if not run["trace"]:
            continue
        result = run["result"]
        assert result["correct"] and result["failed"] == 0, run["details"]
        assert result["metrics"]["obs.layer_coverage"]["value"] >= 0.95
        assert run["spans"], "the traced run writes its spans"


def test_last_stdout_line_is_the_result_object():
    done = _run(
        RUN, "--workload", "syn600-long", "--seed", 1, "--seconds", 1, "--trace", 0,
        "--smoke",
    )
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_fails_without_the_program(tmp_path):
    """In a tree holding only the benchmark, the run must fail loudly."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
    done = _run(
        *SPEC["command"][1:],
        "--workload", "syn3k-hhs", "--seed", 0, "--seconds", 1, "--trace", 0,
        cwd=tmp_path, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def _write_set(directory: Path, scale=1.0, correct=True, failed=0):
    """Five runs of one workload with about 1% spread per metric."""
    directory.mkdir()
    workload = SPEC["workloads"][0]["name"]
    paths = []
    for i in range(5):
        jitter = 1.0 + 0.005 * (i - 2)
        metrics = {
            m["name"]: {"value": 2.0 * jitter, "unit": m["unit"]}
            for m in SPEC["end_to_end"]
        }
        metrics["query_cost"]["value"] *= scale
        run = {
            "workload": workload,
            "trace": 0,
            "host": {"noisy": False},
            "result": {
                "correct": correct,
                "attempted": 20,
                "failed": failed,
                "metrics": metrics,
            },
        }
        path = directory / ("run-%d.json" % i)
        path.write_text(json.dumps({"runs": [run]}))
        paths.append(str(path))
    return paths


def test_compare_passes_identical_sets(tmp_path):
    a = _write_set(tmp_path / "a")
    rows = compare.compare(a, a)
    assert len(rows) == len(SPEC["end_to_end"]) + 1
    assert {row["verdict"] for row in rows} == {"ok"}
    assert compare.main(a + ["--"] + a) == 0


def test_compare_flags_a_20_percent_slower_query(tmp_path):
    a = _write_set(tmp_path / "a")
    b = _write_set(tmp_path / "b", scale=1.2)
    verdicts = {row["metric"]: row["verdict"] for row in compare.compare(a, b)}
    assert verdicts.pop("query_cost") == "regressed"
    assert set(verdicts.values()) == {"ok"}
    assert compare.main(a + ["--"] + b) == 1


def test_compare_flags_runs_that_failed_the_gate(tmp_path):
    """Equal metrics do not hide a change that breaks its queries."""
    a = _write_set(tmp_path / "a")
    broken = _write_set(tmp_path / "broken", correct=False, failed=1)
    verdicts = {row["metric"]: row["verdict"] for row in compare.compare(a, broken)}
    assert verdicts.pop("failed") == "regressed"
    assert set(verdicts.values()) == {"ok"}
    assert compare.main(a + ["--"] + broken) == 1
    # a parent that already failed as often is no regression of the change
    assert compare.compare(broken, a)[0]["verdict"] == "ok"


def test_compare_reports_wide_spread_as_unresolved():
    assert compare.verdict([1.0, 2.0, 3.0], [1.5, 2.5, 3.5], True, 0.15) == "unresolved"
    assert compare.verdict([3.0, 3.5, 4.0], [1.0, 1.5, 2.0], True, 0.15) == "ok"
