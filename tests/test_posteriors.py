"""Tests for the missing-value posterior service and fallback distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayesnet import (
    CPT,
    BayesianNetwork,
    MissingValuePosteriors,
    dag_from_edges,
    empirical_distributions,
    random_cpt,
    uniform_distributions,
)
from repro.datasets import MISSING, IncompleteDataset


def two_attr_dataset():
    values = np.array([[1, MISSING], [MISSING, 0], [0, 1]])
    return IncompleteDataset(values=values, domain_sizes=[2, 2])


def chain_network():
    dag = dag_from_edges(2, iter([(0, 1)]))
    cpts = [
        CPT(0, (), np.array([0.3, 0.7])),
        CPT(1, (0,), np.array([[0.9, 0.1], [0.2, 0.8]])),
    ]
    return BayesianNetwork(dag, [2, 2], cpts)


class TestMissingValuePosteriors:
    def test_posterior_uses_object_evidence(self):
        service = MissingValuePosteriors(chain_network(), two_attr_dataset())
        # Object 0 observes a1=1, misses a2: pmf should be CPT row for a1=1.
        pmf = service.distribution((0, 1))
        assert pmf == pytest.approx([0.2, 0.8])

    def test_posterior_inverts_with_bayes(self):
        service = MissingValuePosteriors(chain_network(), two_attr_dataset())
        # Object 1 observes a2=0, misses a1: P(a1|a2=0) via Bayes rule.
        pmf = service.distribution((1, 0))
        p_a1_1 = 0.7 * 0.2 / (0.3 * 0.9 + 0.7 * 0.2)
        assert pmf[1] == pytest.approx(p_a1_1)

    def test_rejects_observed_cell(self):
        service = MissingValuePosteriors(chain_network(), two_attr_dataset())
        with pytest.raises(ValueError):
            service.distribution((2, 0))

    def test_all_distributions_covers_every_variable(self):
        ds = two_attr_dataset()
        service = MissingValuePosteriors(chain_network(), ds)
        dists = service.all_distributions()
        assert set(dists) == set(ds.variables())
        for pmf in dists.values():
            assert pmf.sum() == pytest.approx(1.0)

    def test_cardinality_mismatch_rejected(self):
        ds = IncompleteDataset(
            values=np.array([[MISSING, 0]]), domain_sizes=[3, 2]
        )
        with pytest.raises(ValueError):
            MissingValuePosteriors(chain_network(), ds)

    def test_cache_returns_copies(self):
        service = MissingValuePosteriors(chain_network(), two_attr_dataset())
        a = service.distribution((0, 1))
        a[0] = 123.0
        b = service.distribution((0, 1))
        assert b[0] != 123.0


def vstructure_network():
    dag = dag_from_edges(3, iter([(0, 2), (1, 2)]))
    cpt2 = np.array(
        [
            [[0.9, 0.1], [0.4, 0.6]],
            [[0.3, 0.7], [0.8, 0.2]],
        ]
    )
    cpts = [
        CPT(0, (), np.array([0.4, 0.6])),
        CPT(1, (), np.array([0.7, 0.3])),
        CPT(2, (0, 1), cpt2),
    ]
    return BayesianNetwork(dag, [2, 2, 2], cpts)


def random_incomplete(seed, n=30, d=2, missing_rate=0.4):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2, size=(n, d))
    values[rng.random((n, d)) < missing_rate] = MISSING
    return IncompleteDataset(values=values, domain_sizes=[2] * d)


class TestVectorizedPrecompute:
    """The signature-grouped bulk pass must match per-cell inference."""

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_cell_inference(self, seed):
        ds = random_incomplete(seed)
        variables, dense = MissingValuePosteriors(chain_network(), ds).precompute_all()
        per_cell = MissingValuePosteriors(chain_network(), ds)
        assert variables == list(ds.variables())
        for i, variable in enumerate(variables):
            expected = per_cell.distribution(variable)
            assert dense[i, : expected.size] == pytest.approx(
                expected, abs=1e-12
            )
            assert (dense[i, expected.size :] == 0.0).all()

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_cell_with_collider_network(self, seed):
        ds = random_incomplete(seed, d=3)
        service = MissingValuePosteriors(vstructure_network(), ds)
        variables, dense = service.precompute_all()
        per_cell = MissingValuePosteriors(vstructure_network(), ds)
        for i, variable in enumerate(variables):
            assert dense[i, :2] == pytest.approx(
                per_cell.distribution(variable), abs=1e-12
            )

    def test_signature_group_accounting(self):
        ds = random_incomplete(0, n=40)
        service = MissingValuePosteriors(chain_network(), ds)
        variables, __ = service.precompute_all()
        stats = service.stats
        assert stats["cells"] == len(variables)
        rows_with_missing = {obj for obj, __ in variables}
        assert 0 < stats["signature_groups"] <= len(rows_with_missing)
        assert stats["inference_calls"] <= stats["cells"]

    def test_duplicate_rows_share_one_inference(self):
        values = np.array([[1, MISSING], [1, MISSING], [1, MISSING]])
        ds = IncompleteDataset(values=values, domain_sizes=[2, 2])
        service = MissingValuePosteriors(chain_network(), ds)
        variables, dense = service.precompute_all()
        assert len(variables) == 3
        assert service.stats == {
            "signature_groups": 1,
            "cells": 3,
            "inference_calls": 1,
        }
        assert (dense == dense[0]).all()

    def test_complete_dataset_has_no_work(self):
        ds = IncompleteDataset(values=np.array([[1, 0]]), domain_sizes=[2, 2])
        service = MissingValuePosteriors(chain_network(), ds)
        variables, dense = service.precompute_all()
        assert variables == []
        assert dense.shape == (0, 2)
        assert service.stats == {
            "signature_groups": 0,
            "cells": 0,
            "inference_calls": 0,
        }

    def test_same_pattern_rows_share_one_contraction(self):
        # One missing pattern, three different observed values of a1.
        values = np.array([[0, 0, MISSING], [1, 0, MISSING], [1, 1, MISSING]])
        ds = IncompleteDataset(values=values, domain_sizes=[2, 2, 2])
        service = MissingValuePosteriors(vstructure_network(), ds)
        variables, dense = service.precompute_all()
        assert service.stats == {
            "signature_groups": 3,
            "cells": 3,
            "inference_calls": 1,
        }
        assert len({tuple(row) for row in dense.tolist()}) == 3
        per_cell = MissingValuePosteriors(vstructure_network(), ds)
        for i, variable in enumerate(variables):
            assert dense[i] == pytest.approx(per_cell.distribution(variable), abs=1e-12)

    def test_zero_probability_evidence_gives_uniform(self):
        # Unsmoothed fit: a2 always copies a1, so (a1=0, a2=1) has
        # probability zero.  a3 is independent with a skewed prior; its
        # posterior under impossible evidence must be uniform, which only
        # holds if the fully observed CPT of a2 enters the product.
        data = np.array([[0, 0, 0]] * 3 + [[1, 1, 0]] * 3 + [[1, 1, 1]])
        network = BayesianNetwork.fit(
            data, [2, 2, 2], smoothing=0.0, dag=dag_from_edges(3, iter([(0, 1)]))
        )
        ds = IncompleteDataset(
            values=np.array([[0, 1, MISSING], [0, 0, MISSING]]),
            domain_sizes=[2, 2, 2],
        )
        variables, dense = MissingValuePosteriors(network, ds).precompute_all()
        per_cell = MissingValuePosteriors(network, ds)
        assert per_cell.distribution((0, 2)) == pytest.approx([0.5, 0.5])
        assert dense[0] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert dense[1] == pytest.approx(per_cell.distribution((1, 2)), abs=1e-12)
        assert dense[1][0] == pytest.approx(6 / 7)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_per_cell_on_random_networks(self, data):
        d = data.draw(st.integers(1, 6), label="d")
        cards = data.draw(st.lists(st.integers(2, 5), min_size=d, max_size=d))
        max_parents = data.draw(st.integers(0, 3), label="max_parents")
        order = data.draw(st.permutations(range(d)), label="order")
        edges = []
        for pos, node in enumerate(order):
            parents = data.draw(
                st.sets(st.sampled_from(order[:pos]), max_size=max_parents)
                if pos
                else st.just(set())
            )
            edges += [(parent, node) for parent in sorted(parents)]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        dag = dag_from_edges(d, iter(edges))
        cpts = [
            random_cpt(
                node,
                cards[node],
                sorted(dag.parents(node)),
                [cards[p] for p in sorted(dag.parents(node))],
                rng,
                concentration=0.5,
            )
            for node in range(d)
        ]
        network = BayesianNetwork(dag, cards, cpts)
        n = data.draw(st.integers(1, 25), label="n")
        values = np.array(
            [[int(rng.integers(card)) for card in cards] for __ in range(n)]
        )
        values[rng.random((n, d)) < data.draw(st.floats(0.0, 1.0))] = MISSING
        # A fully missing row, and a duplicate of every other row.
        values = np.vstack([values, np.full(d, MISSING), values[::2]])
        ds = IncompleteDataset(values=values, domain_sizes=cards)
        variables, dense = MissingValuePosteriors(network, ds).precompute_all()
        per_cell = MissingValuePosteriors(network, ds)
        assert variables == list(ds.variables())
        for i, variable in enumerate(variables):
            expected = per_cell.distribution(variable)
            assert np.abs(dense[i, : expected.size] - expected).max() <= 1e-12
            assert (dense[i, expected.size :] == 0.0).all()

    def test_all_distributions_uses_bulk_path(self):
        ds = random_incomplete(1)
        service = MissingValuePosteriors(chain_network(), ds)
        dists = service.all_distributions()
        assert service.stats["cells"] == len(dists)
        fresh = MissingValuePosteriors(chain_network(), ds)
        for variable, pmf in dists.items():
            assert pmf == pytest.approx(fresh.distribution(variable), abs=1e-12)


class TestFallbackDistributions:
    def test_uniform(self):
        ds = two_attr_dataset()
        dists = uniform_distributions(ds)
        assert set(dists) == set(ds.variables())
        for pmf in dists.values():
            assert np.allclose(pmf, 0.5)

    def test_empirical_uses_column_marginals(self):
        ds = two_attr_dataset()
        dists = empirical_distributions(ds, smoothing=0.0)
        # Column a1 observes values {1, 0}: pmf [0.5, 0.5].
        assert dists[(1, 0)] == pytest.approx([0.5, 0.5])
        # Column a2 observes values {0, 1}: pmf [0.5, 0.5].
        assert dists[(0, 1)] == pytest.approx([0.5, 0.5])

    def test_empirical_smoothing_keeps_support(self):
        values = np.array([[1, MISSING], [1, 0]])
        ds = IncompleteDataset(values=values, domain_sizes=[2, 2])
        dists = empirical_distributions(ds, smoothing=1.0)
        assert (dists[(0, 1)] > 0).all()
