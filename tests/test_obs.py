"""Tests for the observability layer: metrics, tracing, event log."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import BayesCrowd, BayesCrowdConfig, generate_synthetic
from repro.cli import main as cli_main
from repro.datasets import example_distributions, sample_dataset
from repro.obs import (
    DEFAULT_BUCKETS,
    PIPELINE_PHASES,
    EventLog,
    MetricsRegistry,
    Tracer,
    check_phases,
    read_events,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.__main__ import verify_selection, verify_spans

REPO = Path(__file__).resolve().parents[1]


def movie_query(**kwargs):
    config = BayesCrowdConfig(
        alpha=1.0,
        budget=10,
        latency=5,
        strategy="hhs",
        m=2,
        distribution_source="uniform",
        **kwargs,
    )
    return BayesCrowd(sample_dataset(), config, distributions=example_distributions())


class TestRegistry:
    def test_counter_is_monotone(self):
        registry = MetricsRegistry()
        counter = registry.counter("tasks")
        counter.inc()
        counter.inc(4)
        assert registry.value("tasks") == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        with pytest.raises(ValueError):
            registry.gauge("a")

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.cumulative_buckets() == [(0.1, 1), (1.0, 2), (float("inf"), 3)]
        assert histogram.min == 0.05 and histogram.max == 5.0

    def test_absorb_maps_types_to_instruments(self):
        registry = MetricsRegistry()
        registry.absorb(
            {
                "computations": 42,
                "hit_rate": 0.5,
                "backend": "numpy",
                "degraded": True,
                "pairs": np.int64(7),
            },
            prefix="engine_",
        )
        snapshot = registry.snapshot()
        assert snapshot["counters"]["engine_computations"] == 42
        assert snapshot["gauges"]["engine_hit_rate"] == 0.5
        assert snapshot["gauges"]["engine_degraded"] == 1.0
        assert snapshot["gauges"]["engine_pairs"] == 7.0
        assert snapshot["info"]["engine_backend"] == "numpy"

    def test_snapshot_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.02)
        registry.info("backend", "numpy")
        snapshot = json.loads(registry.to_json())
        rebuilt = MetricsRegistry.from_snapshot(snapshot)
        assert rebuilt.snapshot() == registry.snapshot()

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("tasks posted").inc(2)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        registry.info("backend", "numpy")
        text = registry.to_prometheus()
        assert "# TYPE tasks_posted counter" in text
        assert "tasks_posted 2" in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text
        assert '# INFO backend "numpy"' in text

    def test_check_phases_reports_missing(self):
        registry = MetricsRegistry()
        registry.histogram("phase_seconds_ctable.build")
        missing = check_phases(registry.snapshot())
        assert "ctable.build" not in missing
        assert set(missing) == set(PIPELINE_PHASES) - {"ctable.build"}

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestTracer:
    def test_spans_nest_via_stack(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans
        assert inner.name == "inner" and inner.parent == "outer" and inner.depth == 1
        assert outer.parent is None and outer.depth == 0
        assert outer.seconds >= inner.seconds

    def test_phase_feeds_histogram(self):
        tracer = Tracer()
        with tracer.span("round[1]", phase="round"):
            pass
        with tracer.span("round[2]", phase="round"):
            pass
        histogram = tracer.registry.get("phase_seconds_round")
        assert histogram.count == 2

    def test_record_backdates_externally_timed_span(self):
        tracer = Tracer()
        span = tracer.record("preprocess", 1.5, tasks=3)
        assert span.seconds == pytest.approx(1.5)
        assert span.end == pytest.approx(span.start + 1.5)
        assert tracer.registry.get("phase_seconds_preprocess").count == 1
        assert tracer.find("preprocess") == [span]

    def test_spans_emit_events(self):
        events = EventLog()
        tracer = Tracer(event_log=events)
        with tracer.span("ctable"):
            pass
        (event,) = events.of_kind("span")
        assert event["name"] == "ctable"
        assert event["seconds"] >= 0.0
        assert event["end"] - event["start"] == pytest.approx(event["seconds"])

    def test_nested_spans_are_reported_when_the_outermost_closes(self):
        events = EventLog()
        tracer = Tracer(event_log=events)
        with tracer.span("run"):
            with tracer.span("inner"):
                pass
            assert tracer.find("inner") and not events.of_kind("span")
            assert "phase_seconds_inner" not in tracer.registry
        assert [e["name"] for e in events.of_kind("span")] == ["inner", "run"]
        assert tracer.registry.get("phase_seconds_inner").count == 1

    def test_summing_counts_only_its_own_time(self):
        tracer = Tracer()
        with tracer.span("round[1]", phase="round") as round_span:
            with tracer.summing("outer"):
                with tracer.span("ask"):
                    time.sleep(0.002)
                with tracer.summing("inner"):
                    time.sleep(0.002)
            with tracer.summing("inner"):
                time.sleep(0.001)
            tracer.record_sums("outer", "inner", "never")
        outer, inner, never = (tracer.find(name)[0] for name in ("outer", "inner", "never"))
        assert inner.seconds >= 0.003
        assert outer.seconds < 0.002
        assert never.seconds == 0.0
        ask = tracer.find("ask")[0]
        total = outer.seconds + inner.seconds + ask.seconds
        assert total <= round_span.seconds + 1e-9
        for span in (outer, inner, never):
            assert span.parent == "round[1]"
            assert round_span.start <= span.start and span.end <= round_span.end

    def test_fork_continues_the_clock_with_earlier_spans(self):
        clock = Tracer()
        with clock.span("learn"):
            pass
        events = EventLog()
        forked = clock.fork(registry=MetricsRegistry(), event_log=events)
        with forked.span("run"):
            pass
        learn, run = forked.spans
        assert learn.name == "learn" and learn.end <= run.start
        assert [e["name"] for e in events.of_kind("span")] == ["learn", "run"]
        assert forked.registry.get("phase_seconds_learn").count == 1
        assert clock.spans == [learn]


class TestEventLog:
    def test_jsonl_file_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with EventLog(path) as log:
            log.emit("run_start", n_objects=5)
            log.emit("tasks_issued", tasks=[{"task_id": 1}], ids={3, 1})
        events = read_events(path)
        assert [e["event"] for e in events] == ["run_start", "tasks_issued"]
        assert [e["seq"] for e in events] == [1, 2]
        assert events[1]["ids"] == [1, 3]  # sets are coerced to sorted lists

    def test_coerces_numpy_and_arbitrary_values(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with EventLog(path) as log:
            log.emit("x", count=np.int64(3), expr=object())
        event = read_events(path)[0]
        assert event["count"] == 3
        assert isinstance(event["expr"], str)


class TestTracedRun:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("obs")
        trace_path = out / "trace.jsonl"
        metrics_path = out / "metrics.json"
        bc = movie_query(trace_path=trace_path, metrics_path=metrics_path)
        result = bc.run()
        return bc, result, trace_path, metrics_path

    def test_all_pipeline_phases_covered(self, traced):
        _, result, __, ___ = traced
        assert check_phases(result.metrics) == []

    def test_round_histogram_counts_rounds(self, traced):
        _, result, __, ___ = traced
        hist = result.metrics["histograms"]["phase_seconds_round"]
        assert hist["count"] == result.rounds > 0

    def test_span_nesting_matches_pipeline(self, traced):
        _, result, __, ___ = traced
        parents = {span["name"]: span["parent"] for span in result.trace}
        assert parents["bayesnet.learn"] is None
        assert parents["ctable.build"] == "run"
        assert parents["crowd"] == "run"
        assert parents["round[1]"] == "crowd"
        assert parents["core.rank"].startswith("round[")
        assert parents["run"] is None

    def test_event_log_accounts_for_every_task(self, traced):
        _, result, trace_path, __ = traced
        events = read_events(trace_path)
        issued = [
            task
            for event in events
            if event["event"] == "tasks_issued"
            for task in event["tasks"]
        ]
        assert len(issued) == result.tasks_posted
        issued_ids = {task["task_id"] for task in issued}
        answered_ids = {
            task_id
            for event in events
            if event["event"] == "answers_applied"
            for task_id in event["task_ids"]
        }
        assert answered_ids <= issued_ids
        (run_end,) = [e for e in events if e["event"] == "run_end"]
        assert run_end["tasks_posted"] == result.tasks_posted

    def test_registry_carries_engine_counters(self, traced):
        _, result, __, ___ = traced
        assert (
            result.metrics["counters"]["engine_computations"]
            == result.engine_stats["computations"]
        )

    def test_metrics_file_passes_verifier(self, traced, capsys):
        _, __, trace_path, metrics_path = traced
        assert obs_main([str(metrics_path), "--trace", str(trace_path)]) == 0
        assert "metrics ok" in capsys.readouterr().out

    def test_prometheus_suffix_selects_text_format(self, tmp_path):
        metrics_path = tmp_path / "metrics.prom"
        movie_query(metrics_path=metrics_path).run()
        text = metrics_path.read_text()
        assert "# TYPE phase_seconds_round histogram" in text


def selection_snapshot(candidates=10, evals=6, hits=3, skipped=1, ratio=0.4):
    return {
        "counters": {
            "utility_candidates_total": candidates,
            "utility_evals_total": evals,
            "residual_cache_hits": hits,
            "utility_skipped_total": skipped,
        },
        "gauges": {"utility_batch_dedup_ratio": ratio},
    }


class TestSelectionVerifier:
    def test_consistent_counters_pass(self):
        assert verify_selection(selection_snapshot(), require=True) == []

    def test_accounting_mismatch_reported(self):
        problems = verify_selection(selection_snapshot(evals=7))
        assert len(problems) == 1
        assert "utility_evals_total" in problems[0]

    def test_missing_counters_pass_unless_required(self):
        assert verify_selection({"counters": {}}) == []
        problems = verify_selection({"counters": {}}, require=True)
        assert problems and "missing" in problems[0]

    def test_dedup_ratio_bounds(self):
        problems = verify_selection(selection_snapshot(ratio=1.5))
        assert problems and "utility_batch_dedup_ratio" in problems[0]

    def test_missing_ratio_only_required_with_flag(self):
        snapshot = selection_snapshot()
        del snapshot["gauges"]["utility_batch_dedup_ratio"]
        assert verify_selection(snapshot) == []
        assert verify_selection(snapshot, require=True) != []

    def test_real_run_passes_strict_verification(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        movie_query(metrics_path=metrics_path).run()
        assert obs_main([str(metrics_path), "--selection"]) == 0
        assert "selection ok" in capsys.readouterr().out

    def test_inconsistent_snapshot_fails_cli(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        movie_query(metrics_path=metrics_path).run()
        snapshot = json.loads(metrics_path.read_text())
        snapshot["counters"]["utility_evals_total"] += 1
        metrics_path.write_text(json.dumps(snapshot))
        assert obs_main([str(metrics_path)]) == 2
        assert "selection problem" in capsys.readouterr().err


class TestLayerSpans:
    """A learned run's span tree is its clock, under the benchmark's names."""

    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        trace_path = tmp_path_factory.mktemp("layers") / "trace.jsonl"
        dataset = generate_synthetic(n_objects=300, missing_rate=0.1, seed=0)
        config = BayesCrowdConfig(
            alpha=0.05, budget=20, latency=4, seed=0, trace_path=trace_path
        )
        result = BayesCrowd(dataset, config).run()
        return result, read_events(trace_path)

    def test_trace_holds_the_layers_and_the_tree_spans(self, traced):
        result, _ = traced
        names = {span["name"] for span in result.trace}
        rounds = {"round[%d]" % (i + 1) for i in range(result.rounds)}
        assert result.rounds > 0
        assert names == set(PIPELINE_PHASES) | {"run", "crowd"} | rounds

    def test_layer_names_match_the_benchmark(self):
        declared = json.loads((REPO / "BENCHMARK.json").read_text())
        timed = [
            metric["name"][: -len("_s")]
            for metric in declared["per_layer"]
            if metric["name"].endswith("_s")
            and not metric["name"].startswith(("session.", "service."))
        ]
        assert tuple(timed) == PIPELINE_PHASES

    def test_each_layer_histogram_counts_its_spans(self, traced):
        result, _ = traced
        histograms = result.metrics["histograms"]
        for phase in PIPELINE_PHASES + ("run", "crowd", "round"):
            spans = [s for s in result.trace if s["phase"] == phase]
            assert histograms["phase_seconds_%s" % phase]["count"] == len(spans)
            assert histograms["phase_seconds_%s" % phase]["sum"] == pytest.approx(
                sum(s["seconds"] for s in spans)
            )

    def test_timing_fields_read_from_spans(self, traced):
        result, _ = traced

        def total(phase):
            return sum(s["seconds"] for s in result.trace if s["phase"] == phase)

        (run,) = [s for s in result.trace if s["name"] == "run"]
        gauges = result.metrics["gauges"]
        assert result.seconds == run["seconds"] - total("crowd.ask")
        assert gauges["total_seconds"] == result.seconds
        assert result.modeling_seconds == total("ctable.build")
        assert gauges["modeling_seconds"] == result.modeling_seconds
        assert gauges["preprocess_seconds"] == total("bayesnet.learn") > 0.0
        assert result.engine_stats["selection_seconds"] == total("core.select")
        for record in result.history:
            (span,) = [
                s for s in result.trace if s["name"] == "round[%d]" % record.round_index
            ]
            assert record.seconds == span["seconds"]

    def test_learning_precedes_the_run(self, traced):
        result, _ = traced
        (learn,) = [s for s in result.trace if s["name"] == "bayesnet.learn"]
        (run,) = [s for s in result.trace if s["name"] == "run"]
        assert 0.0 <= learn["start"] <= learn["end"] <= run["start"]

    def test_exported_trace_passes_the_span_tree_check(self, traced):
        _, events = traced
        assert verify_spans(events) == []


def span_event(name, start, end, parent=None, depth=0, phase=None):
    return {
        "event": "span",
        "name": name,
        "phase": phase or name,
        "start": start,
        "end": end,
        "seconds": end - start,
        "parent": parent,
        "depth": depth,
    }


def whole_tree():
    """A minimal run in completion order: layers cover 0.96 of ``run``."""
    return [
        span_event("ctable.build", 0.0, 0.5, "run", 1),
        span_event("core.rank", 0.5, 0.7, "round[1]", 3),
        span_event("crowd.ask", 0.7, 0.96, "round[1]", 3),
        span_event("round[1]", 0.5, 1.0, "crowd", 2, phase="round"),
        span_event("crowd", 0.5, 1.0, "run", 1),
        span_event("run", 0.0, 1.0),
    ]


class TestSpanTreeVerifier:
    def test_whole_tree_passes(self):
        assert verify_spans(whole_tree()) == []

    def test_child_ending_after_its_parent(self):
        events = whole_tree()
        events[1] = span_event("core.rank", 0.5, 1.2, "round[1]", 3)
        (problem,) = verify_spans(events)
        assert "'core.rank'" in problem and "not inside its parent 'round[1]'" in problem

    def test_child_starting_before_its_parent(self):
        events = whole_tree()
        events[2] = span_event("crowd.ask", 0.4, 0.96, "round[1]", 3)
        assert any("not inside" in p for p in verify_spans(events))

    def test_unclosed_span(self):
        events = [e for e in whole_tree() if e["name"] != "round[1]"]
        problems = verify_spans(events)
        assert any("'round[1]' never closed" in p for p in problems)

    def test_layer_coverage_below_the_floor(self):
        events = whole_tree()
        events[2] = span_event("crowd.ask", 0.7, 0.9, "round[1]", 3)
        (problem,) = verify_spans(events)
        assert "cover 0.900 of the run span" in problem

    def test_missing_run_span(self):
        assert verify_spans([]) == ["trace has no closed 'run' span"]

    def test_cli_exits_nonzero_on_a_broken_span(self, tmp_path):
        metrics_path = tmp_path / "m.json"
        registry = MetricsRegistry()
        for phase in PIPELINE_PHASES:
            registry.histogram("phase_seconds_%s" % phase)
        metrics_path.write_text(registry.to_json())
        trace_path = tmp_path / "t.jsonl"
        events = [{"event": "run_start"}] + whole_tree() + [{"event": "run_end"}]
        events[2] = span_event("core.rank", 0.5, 1.2, "round[1]", 3)
        trace_path.write_text("".join(json.dumps(e) + "\n" for e in events))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")

        def verify(path):
            return subprocess.run(
                [sys.executable, "-m", "repro.obs", str(metrics_path), "--trace", str(path)],
                capture_output=True, text=True, env=env, timeout=120,
            )

        broken = verify(trace_path)
        assert broken.returncode != 0
        assert "not inside its parent" in broken.stderr
        events[2] = span_event("core.rank", 0.5, 0.7, "round[1]", 3)
        trace_path.write_text("".join(json.dumps(e) + "\n" for e in events))
        assert verify(trace_path).returncode == 0


class TestCLIFlags:
    def test_trace_and_metrics_flags(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        metrics_path = tmp_path / "m.json"
        code = cli_main(
            [
                "--dataset", "movies",
                "--budget", "6",
                "--latency", "3",
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert str(trace_path) in out and str(metrics_path) in out
        snapshot = json.loads(metrics_path.read_text())
        assert check_phases(snapshot) == []
        assert obs_main([str(metrics_path), "--trace", str(trace_path)]) == 0

    def test_verifier_fails_on_missing_phase(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        registry = MetricsRegistry()
        registry.histogram("phase_seconds_ctable")
        metrics_path.write_text(registry.to_json())
        assert obs_main([str(metrics_path)]) == 2
        assert "missing phase histogram" in capsys.readouterr().err


def integrity_snapshot(aggregated=10, applied=8, quarantined=2, reasked=1):
    return {
        "counters": {
            "answers_aggregated": aggregated,
            "answers_applied": applied,
            "answers_quarantined": quarantined,
            "answers_reasked": reasked,
        },
        "gauges": {},
    }


class TestIntegrityVerifier:
    def test_consistent_counters_pass(self):
        from repro.obs.__main__ import verify_integrity

        assert verify_integrity(integrity_snapshot(), require=True) == []

    def test_accounting_mismatch_reported(self):
        from repro.obs.__main__ import verify_integrity

        problems = verify_integrity(integrity_snapshot(applied=9))
        assert len(problems) == 1
        assert "answers_aggregated" in problems[0]

    def test_missing_counters_pass_unless_required(self):
        from repro.obs.__main__ import verify_integrity

        assert verify_integrity({"counters": {}}) == []
        problems = verify_integrity({"counters": {}}, require=True)
        assert problems and "missing" in problems[0]

    def test_excess_reasks_reported(self):
        from repro.obs.__main__ import verify_integrity

        problems = verify_integrity(integrity_snapshot(reasked=99))
        assert problems and "answers_reasked" in problems[0]

    def test_real_run_passes_strict_verification(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        movie_query(metrics_path=metrics_path).run()
        assert obs_main([str(metrics_path), "--integrity"]) == 0
        assert "integrity ok" in capsys.readouterr().out

    def test_violated_invariant_fails_cli(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        movie_query(metrics_path=metrics_path).run()
        snapshot = json.loads(metrics_path.read_text())
        snapshot["counters"]["answers_applied"] += 1
        metrics_path.write_text(json.dumps(snapshot))
        assert obs_main([str(metrics_path)]) == 2
        assert "integrity problem" in capsys.readouterr().err
