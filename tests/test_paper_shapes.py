"""Regression tests for the paper's headline *shapes* at tiny scale.

EXPERIMENTS.md records the full-scale outcomes; these tests pin the
relative claims that must never silently regress, at sizes small enough
for CI.  Each test name cites the figure it guards.
"""

from repro import BayesCrowd, BayesCrowdConfig, f1_score, skyline
from repro.baselines import CrowdSky
from repro.bayesnet.posteriors import empirical_distributions
from repro.ctable import build_ctable
from repro.datasets import generate_nba
from repro.experiments.data import dataset_with_distributions
from repro.obs import Tracer
from repro.probability import ADPLL, DistributionStore, naive_probability


class TestFig2Shape:
    def test_get_ctable_beats_baseline(self):
        dataset = generate_nba(n_objects=250, missing_rate=0.1, seed=1)
        tracer = Tracer()
        for method in ("fast", "baseline"):
            with tracer.span(method):
                build_ctable(dataset, 0.05, method)
        assert tracer.total("fast") < tracer.total("baseline")


class TestFig3Shape:
    def test_adpll_beats_naive(self):
        dataset = generate_nba(n_objects=150, missing_rate=0.1, seed=1)
        ctable = build_ctable(dataset, alpha=0.02)
        store = DistributionStore(
            empirical_distributions(dataset), ctable.constraints
        )
        conditions = []
        for obj in ctable.undecided():
            condition = ctable.condition(obj)
            space = 1
            for variable in condition.variables():
                space *= dataset.domain_sizes[variable[1]]
            if space <= 50_000:
                conditions.append(condition)
        assert conditions, "need at least one enumerable condition"
        solver = ADPLL(store)
        tracer = Tracer()
        with tracer.span("adpll"):
            [solver.probability(c) for c in conditions]
        with tracer.span("naive"):
            [naive_probability(c, store) for c in conditions]
        assert tracer.total("adpll") < tracer.total("naive")


class TestFig4Shape:
    def test_bayescrowd_needs_fewer_tasks_and_rounds_than_crowdsky(self):
        dataset, distributions = dataset_with_distributions("crowdsky", 120)
        truth = skyline(dataset.complete)
        config = BayesCrowdConfig(
            alpha=0.05, budget=480, latency=24, strategy="hhs", seed=0
        )
        ours = BayesCrowd(dataset, config, distributions=distributions).run()
        theirs = CrowdSky(dataset, tasks_per_round=20, seed=0).run()
        assert ours.tasks_posted < theirs.tasks_posted
        assert ours.rounds < theirs.rounds
        assert f1_score(ours.answers, truth) >= 0.95
        assert f1_score(theirs.answers, truth) >= 0.95


class TestFig6Shape:
    def test_accuracy_falls_with_missing_rate(self):
        scores = []
        for rate in (0.05, 0.2):
            dataset = generate_nba(n_objects=200, missing_rate=rate, seed=3)
            config = BayesCrowdConfig(alpha=0.05, budget=30, latency=3, seed=0)
            result = BayesCrowd(dataset, config).run()
            scores.append(f1_score(result.answers, skyline(dataset.complete)))
        assert scores[0] > scores[1]


class TestFig8Shape:
    def test_accuracy_rises_with_alpha(self):
        dataset = generate_nba(n_objects=200, missing_rate=0.1, seed=3)
        truth = skyline(dataset.complete)
        scores = []
        for alpha in (0.01, 0.15):
            config = BayesCrowdConfig(alpha=alpha, budget=30, latency=3, seed=0)
            result = BayesCrowd(dataset, config).run()
            scores.append(f1_score(result.answers, truth))
        assert scores[0] < scores[1]


class TestFig10Shape:
    def test_latency_insensitive_at_fixed_budget(self):
        dataset = generate_nba(n_objects=200, missing_rate=0.1, seed=3)
        truth = skyline(dataset.complete)
        scores = []
        for latency in (2, 10):
            config = BayesCrowdConfig(alpha=0.05, budget=30, latency=latency, seed=0)
            result = BayesCrowd(dataset, config).run()
            scores.append(f1_score(result.answers, truth))
        assert abs(scores[0] - scores[1]) < 0.1
