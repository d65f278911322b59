"""Tests for the BayesCrowd framework end to end (simulated crowd)."""

import numpy as np
import pytest

from repro import (
    BayesCrowd,
    BayesCrowdConfig,
    f1_score,
    generate_nba,
    generate_synthetic,
    run_bayescrowd,
    skyline,
)
from repro.core import framework
from repro.core.framework import learn_distributions
from repro.ctable import VariableConstraints
from repro.crowd import SimulatedCrowdPlatform
from repro.datasets import example_distributions, sample_dataset
from repro.probability import DistributionStore, ProbabilityEngine


def movie_query(budget=6, latency=3, strategy="hhs", m=2, **kwargs):
    dataset = sample_dataset()
    config = BayesCrowdConfig(
        alpha=1.0,
        budget=budget,
        latency=latency,
        strategy=strategy,
        m=m,
        distribution_source="uniform",
        **kwargs,
    )
    return BayesCrowd(dataset, config, distributions=example_distributions())


class TestMovieExample:
    def test_perfect_result_with_enough_budget(self):
        bc = movie_query(budget=10, latency=5)
        result = bc.run()
        truth = skyline(bc.dataset.complete)
        assert result.answers == truth == [0, 1, 2, 4]
        assert result.f1(truth) == 1.0

    def test_example4_budget_and_latency(self):
        """B=6, L=3 -> two tasks per round, as in Example 4."""
        bc = movie_query(budget=6, latency=3)
        result = bc.run()
        assert all(record.tasks_posted <= 2 for record in result.history)
        assert result.rounds <= 3
        assert result.tasks_posted <= 6

    def test_certain_objects_never_crowdsourced(self):
        bc = movie_query(budget=10, latency=5)
        result = bc.run()
        for record in result.history:
            assert 1 not in record.objects
            assert 2 not in record.objects

    def test_zero_budget_returns_initial_inference(self):
        bc = movie_query(budget=0)
        result = bc.run()
        assert result.tasks_posted == 0
        assert result.rounds == 0
        # Initial inference: o1, o2, o3, o5 have Pr > 0.5 (0.8/1/1/0.823).
        assert result.answers == [0, 1, 2, 4]
        assert result.answers == result.initial_answers

    def test_stops_when_everything_resolved(self):
        bc = movie_query(budget=100, latency=50)
        result = bc.run()
        assert result.tasks_posted < 100
        assert not bc.ctable.has_open_expressions()

    def test_history_records_progress(self):
        bc = movie_query(budget=10, latency=5)
        result = bc.run()
        assert result.history
        opens = [record.open_conditions for record in result.history]
        assert opens == sorted(opens, reverse=True)
        assert opens[-1] == 0


class TestStrategiesEndToEnd:
    @pytest.mark.parametrize("strategy", ["fbs", "ubs", "hhs"])
    def test_each_strategy_reaches_perfect_f1_with_perfect_workers(self, strategy):
        bc = movie_query(budget=20, latency=10, strategy=strategy)
        result = bc.run()
        truth = skyline(bc.dataset.complete)
        assert result.f1(truth) == 1.0


class TestOnGeneratedData:
    def test_latency_respected(self):
        nba = generate_nba(n_objects=150, missing_rate=0.1, seed=2)
        config = BayesCrowdConfig(alpha=0.05, budget=40, latency=4, strategy="fbs")
        result = BayesCrowd(nba, config).run()
        assert result.rounds <= 4
        assert result.tasks_posted <= 40

    def test_budget_respected(self):
        nba = generate_nba(n_objects=150, missing_rate=0.1, seed=2)
        config = BayesCrowdConfig(alpha=0.05, budget=17, latency=5, strategy="fbs")
        result = BayesCrowd(nba, config).run()
        assert result.tasks_posted <= 17

    def test_crowdsourcing_improves_over_initial(self):
        nba = generate_nba(n_objects=200, missing_rate=0.15, seed=4)
        config = BayesCrowdConfig(alpha=0.05, budget=60, latency=6, strategy="hhs")
        result = BayesCrowd(nba, config).run()
        truth = skyline(nba.complete)
        assert f1_score(result.answers, truth) >= f1_score(result.initial_answers, truth)

    def test_batches_are_conflict_free(self):
        """The platform enforces the rule; a full run must never trip it."""
        nba = generate_nba(n_objects=150, missing_rate=0.1, seed=2)
        config = BayesCrowdConfig(alpha=0.05, budget=40, latency=4, strategy="fbs")
        BayesCrowd(nba, config).run()  # raises ConflictingBatchError on violation

    def test_reproducible_given_seed(self):
        nba = generate_nba(n_objects=120, missing_rate=0.1, seed=2)
        config = BayesCrowdConfig(alpha=0.05, budget=30, latency=3, seed=11)
        a = BayesCrowd(nba, config).run()
        b = BayesCrowd(nba, config).run()
        assert a.answers == b.answers
        assert a.tasks_posted == b.tasks_posted

    def test_run_bayescrowd_convenience(self):
        nba = generate_nba(n_objects=80, missing_rate=0.1, seed=2)
        result = run_bayescrowd(nba, BayesCrowdConfig(alpha=0.1, budget=10, latency=2))
        assert result.rounds <= 2


class TestLearnDistributions:
    def test_uniform_source(self):
        ds = sample_dataset()
        dists = learn_distributions(ds, BayesCrowdConfig(distribution_source="uniform"))
        assert set(dists) == set(ds.variables())
        for (obj, attr), pmf in dists.items():
            assert pmf == pytest.approx(
                np.full(ds.domain_sizes[attr], 1 / ds.domain_sizes[attr])
            )

    def test_empirical_source(self):
        ds = sample_dataset()
        dists = learn_distributions(
            ds, BayesCrowdConfig(distribution_source="empirical")
        )
        for pmf in dists.values():
            assert pmf.sum() == pytest.approx(1.0)

    def test_bayesnet_source_falls_back_on_tiny_data(self):
        # The movie sample has only two complete rows: empirical fallback.
        ds = sample_dataset()
        dists = learn_distributions(ds, BayesCrowdConfig(distribution_source="bayesnet"))
        for pmf in dists.values():
            assert pmf.sum() == pytest.approx(1.0)

    def test_bayesnet_source_on_generated_data(self):
        nba = generate_nba(n_objects=300, missing_rate=0.1, seed=1)
        dists = learn_distributions(nba, BayesCrowdConfig())
        assert set(dists) == set(nba.variables())
        for pmf in dists.values():
            assert pmf.sum() == pytest.approx(1.0)
            assert (pmf >= 0).all()

    def test_bn_posteriors_beat_uniform_on_correlated_data(self):
        """The learned posteriors should put more mass on the true value
        than the uniform baseline does, on average.  Needs enough complete
        rows for BIC to accept edges (~600 at 8 levels), hence n=2000."""
        nba = generate_nba(n_objects=2000, missing_rate=0.1, seed=6)
        learned = learn_distributions(nba, BayesCrowdConfig())
        total_learned = 0.0
        total_uniform = 0.0
        n = 0
        for variable, pmf in learned.items():
            true_value = nba.true_value(*variable)
            total_learned += float(pmf[true_value])
            total_uniform += 1.0 / nba.domain_sizes[variable[1]]
            n += 1
        assert total_learned / n > total_uniform / n


class TestPlatformIntegration:
    def test_external_platform_stats_match_result(self):
        nba = generate_nba(n_objects=100, missing_rate=0.1, seed=3)
        platform = SimulatedCrowdPlatform(nba, rng=np.random.default_rng(0))
        config = BayesCrowdConfig(alpha=0.1, budget=20, latency=4)
        result = BayesCrowd(nba, config, platform=platform).run()
        assert platform.stats.tasks_posted == result.tasks_posted
        assert platform.stats.rounds == result.rounds

    def test_missing_platform_without_ground_truth_raises(self):
        nba = generate_nba(n_objects=60, missing_rate=0.1, seed=3)
        blind = nba.__class__(
            values=nba.values, domain_sizes=nba.domain_sizes, complete=None
        )
        config = BayesCrowdConfig(alpha=0.1, budget=10, latency=2)
        bc = BayesCrowd(blind, config)
        with pytest.raises(RuntimeError):
            bc.run()

    def test_no_task_on_a_domain_decided_expression(self):
        """The crowd is never paid to answer what the domain decides
        (``0 > Var``, ``Var > top``): the c-table never holds it."""
        nba = generate_nba(n_objects=300, missing_rate=0.1, seed=1)
        config = BayesCrowdConfig(
            alpha=0.02, strategy="fbs", budget=20, latency=2, seed=1
        )
        bc = BayesCrowd(nba, config)
        posted = []
        post_batch = bc.platform.post_batch

        def record(tasks):
            posted.extend(task.expression for task in tasks)
            return post_batch(tasks)

        bc.platform.post_batch = record
        bc.run()
        assert len(posted) == 20
        fresh = VariableConstraints(nba.domain_sizes, mode="full")
        assert [e for e in posted if fresh.resolve(e) is not None] == []

    def test_store_is_built_inside_the_initial_probability_span(self, monkeypatch):
        """Validating the posterior pmfs is traced work, not a gap between
        the ``ctable`` and ``probability`` spans."""
        bc = movie_query(budget=2, latency=1)
        open_spans = []

        def recording_store(*args, **kwargs):
            span = bc.tracer._stack[-1]
            open_spans.append((span.name, span.attrs))
            return DistributionStore(*args, **kwargs)

        monkeypatch.setattr(framework, "DistributionStore", recording_store)
        bc.run()
        assert open_spans == [("probability.initial", {})]


class TestResultEnrichment:
    def test_answer_probabilities_and_ranking(self):
        nba = generate_nba(n_objects=120, missing_rate=0.1, seed=2)
        config = BayesCrowdConfig(alpha=0.08, budget=10, latency=2, seed=0)
        result = BayesCrowd(nba, config).run()
        assert set(result.answer_probabilities) == set(result.answers)
        for obj in result.certain_answers:
            assert result.answer_probabilities[obj] == 1.0
        for obj, p in result.answer_probabilities.items():
            assert p > config.answer_threshold or obj in result.certain_answers
        ranked = result.ranked_answers()
        probs = [p for __, p in ranked]
        assert probs == sorted(probs, reverse=True)
        assert {obj for obj, __ in ranked} == set(result.answers)

    def test_engine_stats_present(self):
        nba = generate_nba(n_objects=80, missing_rate=0.1, seed=2)
        config = BayesCrowdConfig(alpha=0.08, budget=6, latency=2, seed=0)
        result = BayesCrowd(nba, config).run()
        assert result.engine_stats["computations"] > 0
        assert result.engine_stats["cache_hits"] >= 0


class TestWeightedAggregationConfig:
    def test_weighted_aggregation_runs(self):
        nba = generate_nba(n_objects=100, missing_rate=0.1, seed=2)
        config = BayesCrowdConfig(
            alpha=0.08, budget=12, latency=3, worker_accuracy=0.8,
            aggregation="weighted", calibration_questions=10, seed=0,
        )
        result = BayesCrowd(nba, config).run()
        assert result.tasks_posted <= 12

    def test_invalid_aggregation_rejected(self):
        with pytest.raises(ValueError):
            BayesCrowdConfig(aggregation="magic")
        with pytest.raises(ValueError):
            BayesCrowdConfig(calibration_questions=0)

    def test_weighted_at_least_as_accurate_with_noisy_workers(self):
        nba = generate_nba(n_objects=200, missing_rate=0.12, seed=14)
        truth = skyline(nba.complete)
        scores = {}
        for aggregation in ("majority", "weighted"):
            config = BayesCrowdConfig(
                alpha=0.05, budget=60, latency=6, worker_accuracy=0.72,
                aggregation=aggregation, seed=4,
            )
            result = BayesCrowd(nba, config).run()
            scores[aggregation] = f1_score(result.answers, truth)
        # Homogeneous pools make weighting ~neutral; it must not hurt much.
        assert scores["weighted"] >= scores["majority"] - 0.05


class TestEarlyStopping:
    def test_entropy_epsilon_saves_budget(self):
        nba = generate_nba(n_objects=150, missing_rate=0.1, seed=2)
        eager = BayesCrowdConfig(alpha=0.05, budget=120, latency=12, seed=0)
        lazy = BayesCrowdConfig(
            alpha=0.05, budget=120, latency=12, seed=0, entropy_epsilon=0.4
        )
        full = BayesCrowd(nba, eager).run()
        stopped = BayesCrowd(nba, lazy).run()
        assert stopped.tasks_posted <= full.tasks_posted
        # And accuracy should not collapse.
        truth = skyline(nba.complete)
        assert f1_score(stopped.answers, truth) >= f1_score(full.answers, truth) - 0.1

    def test_epsilon_zero_is_disabled(self):
        config = BayesCrowdConfig(entropy_epsilon=0.0)
        assert config.entropy_epsilon == 0.0

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            BayesCrowdConfig(entropy_epsilon=1.5)


def _observed(result):
    """The QueryResult fields bracket-first probabilities must not move."""
    return dict(
        answers=result.answers,
        initial_answers=result.initial_answers,
        rounds=[record.objects for record in result.history],
        answer_probabilities=result.answer_probabilities,
        probability_exact=result.probability_exact,
        tasks_posted=result.tasks_posted,
    )


def _open_brackets(monkeypatch):
    """Make every bracket ``(0, 1)``: the ranking and both result sets then
    solve every open object, as the eager passes did."""
    monkeypatch.setattr(
        ProbabilityEngine,
        "bounds_many",
        lambda self, conditions: [(0.0, 1.0)] * len(conditions),
    )


def _differential_query(seed, n=240, **overrides):
    dataset = generate_synthetic(n_objects=n, missing_rate=0.15, seed=seed)
    fields = dict(alpha=0.05, budget=24, latency=4, strategy="hhs", m=4, seed=seed)
    fields.update(overrides)
    return dataset, BayesCrowdConfig(**fields)


class TestBracketFirstDifferential:
    """Bracket-first probabilities against the eager, solve-everything run."""

    @pytest.mark.parametrize(
        "seed, overrides",
        [
            (40, {"strategy": "fbs"}),
            (41, {"strategy": "ubs"}),
            (42, {"strategy": "hhs"}),
            # sampling is slow: a smaller FBS query keeps this case short
            (43, {"strategy": "fbs", "probability_method": "approx", "n": 80,
                  "budget": 8, "latency": 2}),
            (44, {"strategy": "hhs", "adpll_node_budget": 10**6}),
        ],
    )
    def test_query_matches_the_eager_run(self, monkeypatch, seed, overrides):
        dataset, config = _differential_query(seed, **overrides)
        bounded = BayesCrowd(dataset, config).run()
        with monkeypatch.context() as patch:
            _open_brackets(patch)
            eager = BayesCrowd(dataset, config).run()
        assert _observed(bounded) == _observed(eager)
        assert eager.engine_stats["objects_bounded"] == 0
        if overrides.get("probability_method", "adpll") == "adpll" and (
            "adpll_node_budget" not in overrides
        ):
            assert bounded.engine_stats["objects_bounded"] > 0
        else:
            # an inexact engine brackets nothing: the run is the eager one
            assert bounded.engine_stats["objects_bounded"] == 0

    def test_journal_resume_at_a_round_boundary(self, monkeypatch, tmp_path):
        from repro.session import read_journal

        dataset, config = _differential_query(45, strategy="ubs")
        journal = tmp_path / "full.journal.jsonl"
        with monkeypatch.context() as patch:
            _open_brackets(patch)
            eager = BayesCrowd(dataset, config).run()
        BayesCrowd(dataset, config).run(journal_path=journal)
        lines = [line for line in journal.read_text().split("\n") if line]
        commits = [
            index
            for index, record in enumerate(read_journal(journal))
            if record.kind == "round_commit"
        ]
        assert len(commits) >= 2
        cut = commits[int(np.random.default_rng(45).integers(len(commits) - 1))]
        truncated = tmp_path / "cut.journal.jsonl"
        truncated.write_text("\n".join(lines[: cut + 1]) + "\n")
        resumed = BayesCrowd(dataset, config).run(journal_path=truncated, resume=True)
        assert resumed.resumed
        assert _observed(resumed) == _observed(eager)
