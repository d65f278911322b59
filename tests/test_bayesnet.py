"""Tests for CPTs, parameter fitting, structure learning and the network."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayesnet import (
    CPT,
    DAG,
    BayesianNetwork,
    bic_score,
    dag_from_edges,
    fit_cpt,
    hill_climb,
    log_likelihood,
    random_cpt,
    uniform_cpt,
)
from repro.bayesnet.structure import _FamilyScoreCache


class TestCPT:
    def test_rows_must_normalize(self):
        with pytest.raises(ValueError):
            CPT(node=0, parents=(), table=np.array([0.5, 0.4]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CPT(node=0, parents=(), table=np.array([1.5, -0.5]))

    def test_rank_must_match_parents(self):
        with pytest.raises(ValueError):
            CPT(node=0, parents=(1,), table=np.array([0.5, 0.5]))

    def test_probability_lookup(self):
        table = np.array([[0.2, 0.8], [0.7, 0.3]])
        cpt = CPT(node=1, parents=(0,), table=table)
        assert cpt.probability(1, {0: 0}) == pytest.approx(0.8)
        assert cpt.probability(0, {0: 1}) == pytest.approx(0.7)

    def test_distribution_copy(self):
        cpt = uniform_cpt(0, 4)
        pmf = cpt.distribution({})
        pmf[0] = 99.0
        assert cpt.table[0] == pytest.approx(0.25)

    def test_uniform(self):
        cpt = uniform_cpt(2, 5, parents=(0,), parent_cards=(3,))
        assert cpt.table.shape == (3, 5)
        assert np.allclose(cpt.table, 0.2)

    def test_random_cpt_normalized(self, rng):
        cpt = random_cpt(0, 4, parents=(1, 2), parent_cards=(2, 3), rng=rng)
        assert cpt.table.shape == (2, 3, 4)
        assert np.allclose(cpt.table.sum(axis=-1), 1.0)


class TestFitCPT:
    def test_root_matches_frequencies(self):
        data = np.array([[0], [0], [1], [0]])
        cpt = fit_cpt(data, 0, [], [2], alpha=0.0)
        assert cpt.table == pytest.approx([0.75, 0.25])

    def test_smoothing_avoids_zeros(self):
        data = np.array([[0], [0]])
        cpt = fit_cpt(data, 0, [], [3], alpha=1.0)
        assert (cpt.table > 0).all()
        assert cpt.table[0] == pytest.approx(3 / 5)

    def test_conditional_counts(self):
        # P(child | parent): parent=0 -> child=1 always; parent=1 -> child=0.
        data = np.array([[0, 1], [0, 1], [1, 0]])
        cpt = fit_cpt(data, 1, [0], [2, 2], alpha=0.0)
        assert cpt.table[0] == pytest.approx([0.0, 1.0])
        assert cpt.table[1] == pytest.approx([1.0, 0.0])

    def test_unseen_parent_config_uniform_without_smoothing(self):
        data = np.array([[0, 0]])
        cpt = fit_cpt(data, 1, [0], [2, 2], alpha=0.0)
        assert cpt.table[1] == pytest.approx([0.5, 0.5])

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            fit_cpt(np.zeros((1, 1), dtype=int), 0, [], [2], alpha=-1)

    def test_log_likelihood_matches_manual(self):
        data = np.array([[0], [0], [1]])
        ll = log_likelihood(data, 0, [], [2])
        expected = 2 * np.log(2 / 3) + np.log(1 / 3)
        assert ll == pytest.approx(expected)


class TestStructureLearning:
    def _correlated_data(self, n=600, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 3, size=n)
        b = (a + rng.integers(0, 2, size=n)) % 3  # strongly depends on a
        c = rng.integers(0, 3, size=n)            # independent noise
        return np.column_stack([a, b, c])

    def test_recovers_dependency(self):
        data = self._correlated_data()
        result = hill_climb(data, [3, 3, 3], max_parents=2)
        dag = result.dag
        assert dag.has_edge(0, 1) or dag.has_edge(1, 0)

    def test_leaves_independent_nodes_alone(self):
        data = self._correlated_data()
        dag = hill_climb(data, [3, 3, 3], max_parents=2).dag
        assert not dag.parents(2) and not dag.children(2)

    def test_score_improves_over_empty(self):
        data = self._correlated_data()
        result = hill_climb(data, [3, 3, 3])
        empty_score = bic_score(data, DAG(3), [3, 3, 3])
        assert result.score > empty_score

    def test_respects_max_parents(self):
        rng = np.random.default_rng(1)
        base = rng.integers(0, 2, size=500)
        columns = [base]
        for __ in range(4):
            columns.append((base + rng.integers(0, 2, size=500)) % 2)
        data = np.column_stack(columns)
        dag = hill_climb(data, [2] * 5, max_parents=1).dag
        assert all(len(dag.parents(v)) <= 1 for v in range(5))

    def test_deterministic_given_rng(self):
        data = self._correlated_data()
        a = hill_climb(data, [3, 3, 3], rng=np.random.default_rng(7)).dag
        b = hill_climb(data, [3, 3, 3], rng=np.random.default_rng(7)).dag
        assert a == b

    def test_bic_score_decomposes(self):
        data = self._correlated_data(n=200)
        dag = dag_from_edges(3, iter([(0, 1)]))
        total = bic_score(data, dag, [3, 3, 3])
        manual = (
            log_likelihood(data, 0, [], [3, 3, 3])
            - 0.5 * np.log(200) * 2
            + log_likelihood(data, 1, [0], [3, 3, 3])
            - 0.5 * np.log(200) * 6
            + log_likelihood(data, 2, [], [3, 3, 3])
            - 0.5 * np.log(200) * 2
        )
        assert total == pytest.approx(manual)


class TestNetwork:
    def _chain_network(self):
        dag = dag_from_edges(2, iter([(0, 1)]))
        cpts = [
            CPT(0, (), np.array([0.3, 0.7])),
            CPT(1, (0,), np.array([[0.9, 0.1], [0.2, 0.8]])),
        ]
        return BayesianNetwork(dag, [2, 2], cpts)

    def test_joint_probability_chain_rule(self):
        net = self._chain_network()
        assert net.joint_probability([0, 1]) == pytest.approx(0.3 * 0.1)
        assert net.joint_probability([1, 1]) == pytest.approx(0.7 * 0.8)

    def test_joint_sums_to_one(self):
        net = self._chain_network()
        total = sum(net.joint_probability([a, b]) for a in (0, 1) for b in (0, 1))
        assert total == pytest.approx(1.0)

    def test_cpt_validation(self):
        dag = dag_from_edges(2, iter([(0, 1)]))
        bad_cpts = [
            CPT(0, (), np.array([0.3, 0.7])),
            CPT(1, (), np.array([0.5, 0.5])),  # parents disagree with DAG
        ]
        with pytest.raises(ValueError):
            BayesianNetwork(dag, [2, 2], bad_cpts)

    def test_sampling_matches_distribution(self, rng):
        net = self._chain_network()
        samples = net.sample(20_000, rng)
        assert samples[:, 0].mean() == pytest.approx(0.7, abs=0.02)
        given_one = samples[samples[:, 0] == 1][:, 1]
        assert given_one.mean() == pytest.approx(0.8, abs=0.02)

    def test_posterior_bayes_rule(self):
        net = self._chain_network()
        # P(a=1 | b=1) = 0.7*0.8 / (0.3*0.1 + 0.7*0.8)
        posterior = net.posterior(0, {1: 1})
        expected = 0.56 / 0.59
        assert posterior[1] == pytest.approx(expected)
        assert posterior.sum() == pytest.approx(1.0)

    def test_posterior_of_evidence_node_is_point_mass(self):
        net = self._chain_network()
        posterior = net.posterior(0, {0: 1})
        assert posterior.tolist() == [0.0, 1.0]

    def test_prior_matches_marginal(self):
        net = self._chain_network()
        prior = net.prior(1)
        expected_b1 = 0.3 * 0.1 + 0.7 * 0.8
        assert prior[1] == pytest.approx(expected_b1)

    def test_fit_round_trip(self, rng):
        net = self._chain_network()
        data = net.sample(5000, rng)
        learned = BayesianNetwork.fit(data, [2, 2], max_parents=1, smoothing=0.5)
        # Either edge direction encodes the same joint; compare joints.
        for a in (0, 1):
            for b in (0, 1):
                assert learned.joint_probability([a, b]) == pytest.approx(
                    net.joint_probability([a, b]), abs=0.03
                )

    def test_log_likelihood_finite(self, rng):
        net = self._chain_network()
        data = net.sample(100, rng)
        assert np.isfinite(net.log_likelihood(data))


class TestPosteriorAgainstEnumeration:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_ve_equals_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        # Random 4-node network with random edges and CPTs.
        cards = [2, 3, 2, 2]
        dag = DAG(4)
        for child in range(1, 4):
            for parent in range(child):
                if rng.random() < 0.5:
                    dag.add_edge(parent, child)
        cpts = [
            random_cpt(
                v,
                cards[v],
                sorted(dag.parents(v)),
                [cards[p] for p in sorted(dag.parents(v))],
                rng,
            )
            for v in range(4)
        ]
        net = BayesianNetwork(dag, cards, cpts)
        evidence = {1: int(rng.integers(3))}
        target = 2
        posterior = net.posterior(target, evidence)

        # Brute force over the full joint.
        import itertools

        num = np.zeros(cards[target])
        for assignment in itertools.product(*[range(c) for c in cards]):
            if assignment[1] != evidence[1]:
                continue
            num[assignment[target]] += net.joint_probability(list(assignment))
        expected = num / num.sum()
        assert np.allclose(posterior, expected, atol=1e-9)


class TestAvailableCaseLearning:
    def _incomplete_correlated(self, n=800, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 3, size=n)
        b = (a + rng.integers(0, 2, size=n)) % 3
        data = np.column_stack([a, b])
        mask = rng.random(data.shape) < 0.3  # nothing fully complete needed
        return data, mask

    def test_fit_cpt_with_mask_matches_filtered_fit(self):
        data, mask = self._incomplete_correlated()
        keep = ~mask.any(axis=1)
        direct = fit_cpt(data[keep], 1, [0], [3, 3], alpha=1.0)
        masked = fit_cpt(data, 1, [0], [3, 3], alpha=1.0, mask=mask)
        assert np.allclose(direct.table, masked.table)

    def test_log_likelihood_with_mask_uses_family_rows(self):
        data, mask = self._incomplete_correlated()
        # Family {0}: only rows complete in column 0 count.
        keep = ~mask[:, 0]
        direct = log_likelihood(data[keep], 0, [], [3, 3])
        masked = log_likelihood(data, 0, [], [3, 3], mask=mask)
        assert masked == pytest.approx(direct)

    def test_hill_climb_recovers_edge_without_complete_rows(self):
        data, mask = self._incomplete_correlated(n=2000, seed=3)
        # Force every row to miss something irrelevant by adding a third
        # column that is missing everywhere except a few rows.
        noise = np.random.default_rng(0).integers(0, 2, size=(data.shape[0], 1))
        data3 = np.column_stack([data, noise])
        mask3 = np.column_stack([mask, np.ones(data.shape[0], dtype=bool)])
        mask3[:5, 2] = False
        assert (~mask3.any(axis=1)).sum() <= 5  # nearly no complete rows
        result = hill_climb(data3, [3, 3, 2], max_parents=2, mask=mask3)
        assert result.dag.has_edge(0, 1) or result.dag.has_edge(1, 0)

    def test_network_fit_with_mask(self):
        data, mask = self._incomplete_correlated(n=1500, seed=5)
        net = BayesianNetwork.fit(data, [3, 3], mask=mask)
        # The learned joint should reflect the a~b correlation.
        p_same = sum(net.joint_probability([v, v]) for v in range(3))
        assert p_same > 0.4  # independent uniform would give ~0.33


def _reference_family_score(data, cards, mask, node, parents):
    """BIC family score with its own row filter per family (the original)."""
    columns = sorted(parents) + [node]
    rows = data if mask is None else data[~mask[:, columns].any(axis=1)]
    shape = tuple(cards[a] for a in columns)
    counts = np.zeros(shape)
    if rows.shape[0]:
        flat = np.ravel_multi_index([rows[:, a] for a in columns], shape)
        counts += np.bincount(flat, minlength=int(np.prod(shape))).reshape(shape)
    totals = counts.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = float((counts * np.where(counts > 0, np.log(counts / totals), 0.0)).sum())
    free = (cards[node] - 1) * int(np.prod([cards[a] for a in columns[:-1]]))
    n = max(rows.shape[0], 1)
    if mask is not None and parents and n < max(30, 2 * free):
        return float("-inf")
    return ll - 0.5 * math.log(n) * free


class TestFamilyScoreCache:
    """Family scores equal the per-family-filter reference bit for bit."""

    @staticmethod
    def _masked_data(rng, n, cards, missing):
        data = np.column_stack([rng.integers(0, c, size=n) for c in cards])
        mask = rng.random(data.shape) < missing
        data[mask] = -1  # masked cells must never be read
        return data, mask

    @staticmethod
    def _assert_all_families_match(data, cards, mask):
        cache = _FamilyScoreCache(data, cards, mask)
        d = len(cards)
        for node in range(d):
            others = [a for a in range(d) if a != node]
            for size in range(len(others) + 1):
                for parents in map(list, combinations(others, size)):
                    expected = _reference_family_score(data, cards, mask, node, parents)
                    assert cache.family_score(node, frozenset(parents)) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 300),
        st.lists(st.integers(2, 4), min_size=1, max_size=4),
        st.sampled_from([0.0, 0.05, 0.3, 0.9]),
    )
    def test_random_masked_data_matches_reference(self, seed, n, cards, missing):
        rng = np.random.default_rng(seed)
        data, mask = self._masked_data(rng, n, cards, missing)
        self._assert_all_families_match(data, cards, mask)

    def test_each_column_set_is_counted_once(self, monkeypatch):
        import repro.bayesnet.structure as structure

        counted = []
        real = structure.family_counts

        def counting(columns, observed, family, shape):
            counted.append(frozenset(family))
            return real(columns, observed, family, shape)

        monkeypatch.setattr(structure, "family_counts", counting)
        rng = np.random.default_rng(7)
        cards = [3, 2, 4, 2]
        data, mask = self._masked_data(rng, 400, cards, 0.05)
        # every orientation of every column set, each equal to its own count
        self._assert_all_families_match(data, cards, mask)
        assert len(counted) == len(set(counted)) == 2 ** len(cards) - 1

    def test_unmasked_data_matches_reference(self):
        rng = np.random.default_rng(4)
        cards = [3, 2, 4]
        data = np.column_stack([rng.integers(0, c, size=250) for c in cards])
        self._assert_all_families_match(data, cards, None)

    def test_family_with_no_available_row_scores_with_n_one(self):
        rng = np.random.default_rng(5)
        data, mask = self._masked_data(rng, 100, [3, 3], 0.0)
        mask[:, 1] = True
        data[mask] = -1
        cache = _FamilyScoreCache(data, [3, 3], mask)
        # no row observes column 1: n = max(0, 1), the log penalty vanishes
        assert cache.family_score(1, frozenset()) == 0.0
        assert cache.family_score(1, frozenset()) == _reference_family_score(
            data, [3, 3], mask, 1, []
        )

    def test_family_below_the_sample_guard_is_refused(self):
        rng = np.random.default_rng(6)
        data, mask = self._masked_data(rng, 40, [3, 3], 0.2)
        cache = _FamilyScoreCache(data, [3, 3], mask)
        n = int((~mask.any(axis=1)).sum())
        assert 0 < n < max(30, 2 * 6)
        assert cache.family_score(1, frozenset({0})) == float("-inf")
        assert _reference_family_score(data, [3, 3], mask, 1, [0]) == float("-inf")
        # the parentless family keeps a finite score on the same rows
        assert math.isfinite(cache.family_score(1, frozenset()))
