"""Tests for the batched utility scorer (gain parity, caching, counters)."""

import numpy as np
import pytest

from repro.core import (
    BayesCrowd,
    BayesCrowdConfig,
    UtilityEngine,
    marginal_utility,
    run_bayescrowd,
)
from repro.core.strategies import (
    HybridStrategy,
    SelectionContext,
    UtilityStrategy,
    expression_frequencies,
)
from repro.ctable import Condition, Relation, build_ctable, var_greater_const
from repro.datasets import MISSING, IncompleteDataset, generate_nba, generate_synthetic
from repro.obs.__main__ import verify_selection
from repro.probability import DistributionStore, ProbabilityEngine


def random_dataset(seed, n=40, d=3, domain=5, missing_rate=0.3):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, domain, size=(n, d))
    values[rng.random((n, d)) < missing_rate] = MISSING
    return IncompleteDataset(values=values, domain_sizes=[domain] * d)


def scoring_fixture(seed=0, alpha=0.3):
    from repro.bayesnet.posteriors import uniform_distributions

    dataset = random_dataset(seed)
    ctable = build_ctable(dataset, alpha=alpha)
    store = DistributionStore(uniform_distributions(dataset), ctable.constraints)
    engine = ProbabilityEngine(store)
    pairs = [
        (ctable.condition(obj), expression)
        for obj in ctable.undecided()
        for expression in sorted(
            ctable.condition(obj).distinct_expressions(),
            key=lambda e: e.sort_key(),
        )
    ]
    # Objects can share identical conditions; keep each pair once so the
    # counter assertions below don't have to model duplicate servicing.
    return ctable, engine, list(dict.fromkeys(pairs))


class TestGainParity:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("mode", ["syntactic", "conditional"])
    def test_matches_marginal_utility(self, seed, mode):
        __, engine, pairs = scoring_fixture(seed)
        scorer = UtilityEngine(engine, mode=mode)
        batched = scorer.gains(pairs)
        reference = ProbabilityEngine(engine.store)
        for (condition, expression), gain in zip(pairs, batched):
            assert gain == pytest.approx(
                marginal_utility(condition, expression, reference, mode=mode),
                abs=1e-12,
            )

    def test_empty_batch(self, movies_store):
        scorer = UtilityEngine(ProbabilityEngine(movies_store))
        assert scorer.gains([]) == []
        assert scorer.candidates_total == 0

    def test_rejects_unknown_mode(self, movies_store):
        with pytest.raises(ValueError):
            UtilityEngine(ProbabilityEngine(movies_store), mode="magic")


class TestCounters:
    def test_every_candidate_accounted_once(self):
        __, engine, pairs = scoring_fixture()
        scorer = UtilityEngine(engine)
        scorer.gains(pairs)
        assert scorer.candidates_total == len(pairs)
        assert (
            scorer.evals_total + scorer.cache_hits + scorer.skipped_total
            == scorer.candidates_total
        )
        assert scorer.probability_computed <= scorer.probability_submitted
        assert scorer.probability_submitted <= scorer.probability_requests

    def test_second_call_is_all_cache_hits(self):
        __, engine, pairs = scoring_fixture()
        scorer = UtilityEngine(engine)
        first = scorer.gains(pairs)
        evals = scorer.evals_total
        second = scorer.gains(pairs)
        assert second == first
        assert scorer.evals_total == evals
        assert scorer.cache_hits == len(pairs)

    def test_within_batch_duplicates_served_once(self):
        __, engine, pairs = scoring_fixture()
        doubled = pairs + pairs
        scorer = UtilityEngine(engine)
        gains = scorer.gains(doubled)
        assert gains[: len(pairs)] == gains[len(pairs) :]
        assert scorer.evals_total + scorer.skipped_total == len(pairs)
        assert scorer.cache_hits == len(pairs)

    def test_certain_condition_skipped_without_residual_work(self):
        engine = ProbabilityEngine(
            DistributionStore({(0, 0): np.array([0.0, 1.0])})
        )
        certain = var_greater_const(0, 0, 0)  # Pr = 1 under the pmf above
        scorer = UtilityEngine(engine)
        (gain,) = scorer.gains([(Condition.of([[certain]]), certain)])
        assert gain == 0.0
        assert scorer.skipped_total == 1
        assert scorer.evals_total == 0

    def test_stats_schema(self):
        __, engine, pairs = scoring_fixture()
        scorer = UtilityEngine(engine)
        scorer.gains(pairs)
        stats = scorer.stats()
        assert stats["utility_evals_total"] == (
            stats["utility_candidates_total"]
            - stats["residual_cache_hits"]
            - stats["utility_skipped_total"]
        )
        assert 0.0 <= stats["utility_batch_dedup_ratio"] <= 1.0
        assert stats["utility_batch_seconds"] >= 0.0


class TestInvalidation:
    def test_answers_invalidate_only_touched_pairs(self):
        ctable, engine, pairs = scoring_fixture()
        scorer = UtilityEngine(engine)
        scorer.gains(pairs)
        answered = pairs[0][1]
        ctable.apply_answer(answered, Relation.GREATER)
        touched = {
            pair
            for pair in pairs
            if set(answered.variables()) & UtilityEngine._pair_variables(pair)
        }
        assert touched  # the answer must intersect some pair
        evals_before = scorer.evals_total
        hits_before = scorer.cache_hits
        skipped_before = scorer.skipped_total
        scorer.gains(pairs)
        fresh = (
            scorer.evals_total - evals_before
            + scorer.skipped_total - skipped_before
        )
        # Pairs with no variable in common with the answer revalidate.
        assert scorer.cache_hits - hits_before == len(pairs) - len(touched)
        assert fresh == len(touched)

    def test_recomputed_gains_match_scalar_after_update(self):
        ctable, engine, pairs = scoring_fixture()
        scorer = UtilityEngine(engine)
        scorer.gains(pairs)
        ctable.apply_answer(pairs[0][1], Relation.GREATER)
        after = scorer.gains(pairs)
        reference = ProbabilityEngine(engine.store)
        for (condition, expression), gain in zip(pairs, after):
            assert gain == pytest.approx(
                marginal_utility(condition, expression, reference), abs=1e-12
            )


class TestEndToEndParity:
    """Batched and scalar selection pick identical tasks round by round."""

    @pytest.mark.parametrize("strategy", ["ubs", "hhs"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_identical_rounds_and_answers(self, strategy, seed):
        dataset = generate_synthetic(n_objects=90, missing_rate=0.15, seed=seed + 20)
        results = {}
        for batched in (True, False):
            config = BayesCrowdConfig(
                budget=18,
                latency=6,
                strategy=strategy,
                alpha=0.1,
                m=4,
                selection_batch=batched,
                seed=seed,
            )
            results[batched] = run_bayescrowd(dataset, config)
        batched, scalar = results[True], results[False]
        assert len(batched.history) == len(scalar.history)
        for round_b, round_s in zip(batched.history, scalar.history):
            assert round_b.objects == round_s.objects
        assert set(batched.answers) == set(scalar.answers)
        assert set(batched.certain_answers) == set(scalar.certain_answers)

    def test_batched_run_exports_selection_counters(self):
        dataset = generate_synthetic(n_objects=60, missing_rate=0.15, seed=31)
        config = BayesCrowdConfig(
            budget=10, latency=5, strategy="hhs", alpha=0.1, seed=0
        )
        stats = run_bayescrowd(dataset, config).engine_stats
        assert stats["utility_evals_total"] == (
            stats["utility_candidates_total"]
            - stats["residual_cache_hits"]
            - stats["utility_skipped_total"]
        )
        assert stats["selection_seconds"] >= 0.0


class TestBranchKernelScoring:
    """Pairs the engine's one-pass kernel covers skip the residual solves."""

    def test_kernel_pairs_count_as_evaluations(self):
        __, engine, pairs = scoring_fixture(alpha=0.6)
        covered = sum(
            len(engine.branch_probabilities(condition, [expression]))
            for condition, expression in pairs
        )
        assert 0 < covered < len(pairs)  # the fixture exercises both paths
        scorer = UtilityEngine(engine)
        scorer.gains(pairs)
        assert scorer.evals_total + scorer.skipped_total == len(pairs)
        # only residual-path pairs reach the engine, two branches each
        residual_pairs = scorer.evals_total - (covered - scorer.skipped_total)
        assert scorer.probability_requests == 2 * residual_pairs
        stats = scorer.stats()
        assert verify_selection({"counters": stats, "gauges": stats}, True) == []
        reference = ProbabilityEngine(engine.store)
        for pair, gain in zip(pairs, scorer.gains(pairs)):
            assert gain == pytest.approx(marginal_utility(*pair, reference), abs=1e-12)

    @pytest.mark.parametrize(
        "engine_kwargs, mode",
        [
            ({}, "conditional"),
            ({"method": "approx", "approx_samples": 200}, "syntactic"),
            ({"node_budget": 10**6}, "syntactic"),
        ],
        ids=["conditional", "approx", "guarded"],
    )
    @pytest.mark.parametrize("make", [UtilityStrategy, lambda: HybridStrategy(m=2)])
    def test_other_configurations_keep_the_residual_path(
        self, engine_kwargs, mode, make, movies_ctable, movies_store
    ):
        engine = ProbabilityEngine(movies_store, **engine_kwargs)
        conditions = [movies_ctable.condition(o) for o in movies_ctable.undecided()]
        frequencies = expression_frequencies(conditions)
        scorer = UtilityEngine(engine, mode=mode)
        batched = SelectionContext(
            engine=engine, utility_mode=mode, utility_engine=scorer
        )
        batched.frequencies = frequencies
        strategy = make()
        strategy.prefetch_round(conditions, batched, set())
        picks = [strategy.select_expression(c, batched, set()) for c in conditions]
        assert scorer.probability_requests > 0
        if engine_kwargs:  # the engine offers no kernel branches at all
            for condition in conditions:
                expressions = list(condition.distinct_expressions())
                assert engine.branch_probabilities(condition, expressions) == {}
        # the scalar path reads the same (cached) probabilities
        scalar = SelectionContext(engine=engine, utility_mode=mode)
        scalar.frequencies = frequencies
        assert picks == [
            strategy.select_expression(c, scalar, set()) for c in conditions
        ]


#: (generator, n, alpha, strategy, budget, latency): the end-to-end
#: benchmark's query shapes, plus an NBA UBS query whose conditions
#: include components with two shared variables
QUERY_SHAPES = {
    "syn600-long": (generate_synthetic, 600, 0.1, "ubs", 200, 20),
    "syn3k-hhs": (generate_synthetic, 3000, 0.01, "hhs", 50, 5),
    "service": (generate_synthetic, 600, 0.02, "hhs", 50, 5),
    "nba-ubs": (generate_nba, 1000, 0.01, "ubs", 50, 5),
}


class TestRealQueryGains:
    @pytest.mark.parametrize("shape", sorted(QUERY_SHAPES))
    def test_every_gain_matches_marginal_utility(self, shape, monkeypatch):
        generate, n, alpha, strategy, budget, latency = QUERY_SHAPES[shape]
        dataset = generate(n_objects=n, missing_rate=0.1, seed=7)
        config = BayesCrowdConfig(
            alpha=alpha, strategy=strategy, budget=budget, latency=latency, seed=7
        )
        original = UtilityEngine.gains
        checked = {}

        def checked_gains(scorer, pairs):
            gains = original(scorer, pairs)
            store = scorer.engine.store
            reference = checked.setdefault("engine", ProbabilityEngine(store))
            for pair, gain in zip(pairs, gains):
                if checked.get(pair) == store.version:
                    continue
                checked[pair] = store.version
                assert gain == pytest.approx(
                    marginal_utility(*pair, reference), abs=1e-12
                )
            return gains

        monkeypatch.setattr(UtilityEngine, "gains", checked_gains)
        stats = BayesCrowd(dataset, config).run().engine_stats
        assert len(checked) > 1
        assert verify_selection({"counters": stats, "gauges": stats}, True) == []
        kernel_scored = (
            stats["utility_evals_total"] - stats["utility_probability_requests"] // 2
        )
        assert kernel_scored > 0
        if shape == "nba-ubs":
            assert stats["utility_probability_requests"] > 0
