"""Tests for post-hoc run analysis."""

from repro import BayesCrowd, BayesCrowdConfig, generate_nba, skyline
from repro.analysis import (
    accuracy_trajectory,
    analyze_run,
    classify_expressions,
    task_type_breakdown,
)
from repro.crowd import SimulatedCrowdPlatform
from repro.ctable import var_greater_const, var_greater_var


class TestClassification:
    def test_breakdown(self):
        expressions = [
            var_greater_const(0, 0, 1),
            var_greater_var(0, 1, 0),
            var_greater_const(2, 0, 3),
        ]
        breakdown = classify_expressions(expressions)
        assert breakdown.var_vs_const == 2
        assert breakdown.var_vs_var == 1
        assert breakdown.total == 3


class TestAnalyzeRun:
    def _run(self):
        import numpy as np

        dataset = generate_nba(n_objects=120, missing_rate=0.12, seed=5)
        platform = SimulatedCrowdPlatform(dataset, rng=np.random.default_rng(0))
        config = BayesCrowdConfig(alpha=0.08, budget=24, latency=4, seed=5)
        result = BayesCrowd(dataset, config, platform=platform).run()
        return result, platform

    def test_analysis_fields(self):
        result, __ = self._run()
        analysis = analyze_run(result)
        assert analysis.tasks_posted == result.tasks_posted
        assert analysis.rounds == result.rounds
        assert sum(analysis.tasks_per_round) == result.tasks_posted
        assert 0.0 <= analysis.modeling_share <= 1.0
        assert sum(analysis.attention.values()) == sum(
            len(r.objects) for r in result.history
        )

    def test_summary_lines(self):
        result, __ = self._run()
        lines = analyze_run(result).summary_lines()
        assert any("tasks:" in line for line in lines)
        assert any("open conditions" in line for line in lines)

    def test_task_log_breakdown(self):
        result, platform = self._run()
        assert len(platform.task_log) == result.tasks_posted
        breakdown = task_type_breakdown(result, platform.task_log)
        assert breakdown.total == result.tasks_posted

    def test_zero_round_run(self):
        dataset = generate_nba(n_objects=60, missing_rate=0.1, seed=5)
        config = BayesCrowdConfig(alpha=0.08, budget=0)
        result = BayesCrowd(dataset, config).run()
        analysis = analyze_run(result)
        assert analysis.rounds == 0
        assert analysis.attention == {}


class TestAccuracyTrajectory:
    def test_monotone_budget_points(self):
        dataset = generate_nba(n_objects=120, missing_rate=0.12, seed=6)
        truth = skyline(dataset.complete)
        config = BayesCrowdConfig(alpha=0.08, budget=20, latency=4, seed=6)
        trajectory = accuracy_trajectory(dataset, config, truth)
        budgets = [point["budget"] for point in trajectory]
        assert budgets == sorted(budgets)
        assert budgets[0] == 0.0
        assert all(0.0 <= point["f1"] <= 1.0 for point in trajectory)
        # spending the full budget is at least as good as spending nothing
        assert trajectory[-1]["f1"] >= trajectory[0]["f1"] - 1e-9

    def test_explicit_checkpoints(self):
        dataset = generate_nba(n_objects=80, missing_rate=0.1, seed=6)
        truth = skyline(dataset.complete)
        config = BayesCrowdConfig(alpha=0.08, budget=10, latency=2, seed=6)
        trajectory = accuracy_trajectory(dataset, config, truth, budgets=[0, 10])
        assert len(trajectory) == 2
