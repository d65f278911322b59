"""Micro-benchmarks of the substrate layers.

Not paper figures; they track the fixed costs every query pays: dominator
derivation, the c-table build, skyline ground truth, Bayesian-network
learning and exact inference, the check and normalisation of the
posterior pmfs, the Boole/Frechet bracket pass of the bound-first
ranking, and the crowd platform's answer pipeline.
"""

import numpy as np
import pytest

from repro.bayesnet import BayesianNetwork, MissingValuePosteriors, hill_climb
from repro.core import BayesCrowdConfig
from repro.core.framework import learn_distributions
from repro.crowd import ComparisonTask, SimulatedCrowdPlatform
from repro.ctable import (
    build_ctable,
    dominator_sets_baseline,
    dominator_sets_fast,
    var_greater_const,
)
from repro.datasets import generate_nba, generate_synthetic
from repro.probability import DistributionStore, ProbabilityEngine
from repro.skyline import skyline, skyline_layers


@pytest.mark.parametrize("n", [200, 400, 800])
def test_dominator_sets_fast(benchmark, once, n):
    dataset = generate_nba(n_objects=n, missing_rate=0.1, seed=1)
    sets = once(benchmark, lambda: dominator_sets_fast(dataset))
    benchmark.extra_info["mean_set_size"] = float(
        np.mean([len(s) for s in sets])
    )


@pytest.mark.parametrize("n", [200, 400])
def test_dominator_sets_baseline(benchmark, once, n):
    dataset = generate_nba(n_objects=n, missing_rate=0.1, seed=1)
    once(benchmark, lambda: dominator_sets_baseline(dataset))


def test_ctable_build(benchmark, once):
    """Get-CTable on the ``syn3k-hhs`` shape: Synthetic n=3000, 10% missing,
    alpha 0.01 (pruning scan plus array clause emission)."""
    dataset = generate_synthetic(n_objects=3000, missing_rate=0.1, seed=1)
    ctable = once(benchmark, lambda: build_ctable(dataset, alpha=0.01))
    benchmark.extra_info["open_conditions"] = ctable.build_stats["open_conditions"]
    benchmark.extra_info["expressions"] = len(ctable.expression_frequencies())


@pytest.mark.parametrize("n", [500, 2000])
def test_skyline_ground_truth(benchmark, once, n):
    dataset = generate_nba(n_objects=n, missing_rate=0.0, seed=1)
    members = once(benchmark, lambda: skyline(dataset.complete))
    benchmark.extra_info["skyline_size"] = len(members)


def test_skyline_layers_decomposition(benchmark, once):
    dataset = generate_nba(n_objects=400, missing_rate=0.0, seed=1)
    layers = once(benchmark, lambda: skyline_layers(dataset.complete))
    benchmark.extra_info["n_layers"] = len(layers)


@pytest.mark.parametrize(
    "kind, n",
    [("synthetic", 1500), ("nba", 3000)],
    ids=["synthetic-1500", "nba3k-fbs"],
)
def test_bn_structure_learning(benchmark, once, kind, n):
    """Hill climbing on the available-case mask (``nba3k-fbs``: its e2e shape)."""
    generate = generate_nba if kind == "nba" else generate_synthetic
    dataset = generate(n_objects=n, missing_rate=0.1, seed=1)
    neutral = dataset.values.copy()
    neutral[dataset.mask] = 0
    result = once(
        benchmark,
        lambda: hill_climb(
            neutral, dataset.domain_sizes, max_parents=3, mask=dataset.mask
        ),
    )
    benchmark.extra_info["edges_learned"] = result.dag.n_edges()


def test_bn_posterior_queries(benchmark, once):
    dataset = generate_synthetic(n_objects=1500, missing_rate=0.1, seed=1)
    network = BayesianNetwork.fit(
        dataset.values, dataset.domain_sizes, mask=dataset.mask
    )
    evidence_sets = [dataset.observed_evidence(o) for o in range(100)]

    def query_all():
        return [network.posterior(0, {k: v for k, v in ev.items() if k != 0})
                for ev in evidence_sets]

    once(benchmark, query_all)


def test_bn_posterior_precompute(benchmark, once):
    dataset = generate_synthetic(n_objects=1500, missing_rate=0.1, seed=1)
    network = BayesianNetwork.fit(
        dataset.values, dataset.domain_sizes, mask=dataset.mask
    )
    variables, __ = once(
        benchmark,
        lambda: MissingValuePosteriors(network, dataset).precompute_all(),
    )
    benchmark.extra_info["cells"] = len(variables)


def test_distribution_store_build(benchmark, once):
    """Check and normalise one query's posterior pmfs (NBA n=3000)."""
    dataset = generate_nba(n_objects=3000, missing_rate=0.1, seed=1)
    posteriors = learn_distributions(dataset, BayesCrowdConfig(seed=1))
    store = once(benchmark, lambda: DistributionStore(posteriors, None))
    benchmark.extra_info["pmfs"] = len(store.variables())


@pytest.mark.parametrize("phase", ["initial", "round"])
def test_bounds_many(benchmark, once, phase):
    """``bounds_many`` on the ``syn3k-hhs`` shape, one pass per phase:
    ``initial`` is the first pass over every open condition of a fresh
    c-table; ``round`` is, after that pass and 10 answers (both
    untimed), the pass over the open conditions the answers touched."""
    dataset = generate_synthetic(n_objects=3000, missing_rate=0.1, seed=1)
    distributions = learn_distributions(dataset, BayesCrowdConfig(seed=1))
    ctable = build_ctable(dataset, alpha=0.01)
    engine = ProbabilityEngine(DistributionStore(distributions, ctable.constraints))
    conditions = [ctable.condition(obj) for obj in ctable.undecided()]
    if phase == "round":
        engine.bounds_many(conditions)
        touched = set()
        for __, expression in list(ctable.open_expressions())[::97][:10]:
            relation = expression.true_relation(dataset.complete)
            touched |= ctable.apply_answer(expression, relation)
        open_objects = set(ctable.undecided())
        conditions = [ctable.condition(obj) for obj in sorted(touched & open_objects)]
    once(benchmark, lambda: engine.bounds_many(conditions))
    benchmark.extra_info["conditions"] = len(conditions)


def test_crowd_platform_round_trip(benchmark, once):
    dataset = generate_nba(n_objects=300, missing_rate=0.1, seed=1)
    platform = SimulatedCrowdPlatform(
        dataset, worker_accuracy=0.9, rng=np.random.default_rng(0),
        enforce_conflict_free=False,
    )
    variables = list(dataset.variables())[:200]
    tasks = [ComparisonTask(var_greater_const(o, a, 2)) for o, a in variables]

    once(benchmark, lambda: platform.post_batch(tasks))
