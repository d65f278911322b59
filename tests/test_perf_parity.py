"""Property tests: the vectorized hot paths match the scalar ones.

The numpy c-table backend (pruning scan plus array emitter), the batched
probability API and the bulk expression-probability gather are pure
optimizations -- on any dataset they must produce byte-identical
conditions and probabilities within 1e-12 of the scalar reference
implementations.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bayesnet.posteriors import uniform_distributions
from repro.ctable import (
    build_ctable,
    dominator_sets,
    pruned_dominator_scan,
)
from repro.ctable.construction import INERT_KEYWORDS
from repro.datasets import MISSING, IncompleteDataset, generate_nba
from repro.lru import LRUCache
from repro.probability import DistributionStore, ProbabilityEngine

from .test_ctable import assert_indexes_recounted


def random_dataset(seed, n=40, d=3, domain=5, missing_rate=0.3):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, domain, size=(n, d))
    values[rng.random((n, d)) < missing_rate] = MISSING
    return IncompleteDataset(values=values, domain_sizes=[domain] * d)


@st.composite
def incomplete_datasets(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    d = draw(st.integers(min_value=1, max_value=3))
    domain = draw(st.integers(min_value=2, max_value=5))
    cells = draw(
        st.lists(
            st.integers(min_value=-1, max_value=domain - 1),
            min_size=n * d,
            max_size=n * d,
        )
    )
    values = np.array(cells).reshape(n, d)
    return IncompleteDataset(values=values, domain_sizes=[domain] * d)


@st.composite
def emitter_datasets(draw):
    """Datasets aimed at the array emitter's edge cases.

    Domains of one value occur, and complete rows are drawn apart from
    the others and some repeated, so exact duplicate complete rows and
    complete objects with incomplete dominators are common; ``n`` may
    be 0 or 1.
    """
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    cell = [st.one_of(st.just(MISSING), st.integers(0, s - 1)) for s in sizes]
    rows = draw(st.lists(st.tuples(*cell), max_size=8))
    complete = draw(
        st.lists(st.tuples(*[st.integers(0, s - 1) for s in sizes]), max_size=4)
    )
    if complete:
        complete += draw(st.lists(st.sampled_from(complete), max_size=3))
    rows += complete
    values = np.array(rows, dtype=np.int64).reshape(len(rows), len(sizes))
    return IncompleteDataset(values=values, domain_sizes=sizes)


def dataset_of(rows, sizes):
    return IncompleteDataset(values=np.array(rows, dtype=np.int64), domain_sizes=sizes)


#: phi(o1) of each: two dominators give the identical clause
#: ``Var(o1, a1) > 1``; and ``[Var(o1, a1) > 1]`` is a prefix of
#: ``[Var(o1, a1) > 1, Var(o1, a2) > 2]``
IDENTICAL_CLAUSES = dataset_of([[MISSING, 0], [1, 2], [1, 1]], [3, 3])
PREFIX_CLAUSES = dataset_of([[MISSING, MISSING], [1, 3], [1, 2]], [3, 4])


def assert_same_ctable(expected, actual):
    """Equal conditions and hashes, recounted variables and indexes."""
    assert actual.pruned == expected.pruned
    assert list(actual.conditions) == list(expected.conditions)
    for obj, condition in expected.conditions.items():
        built = actual.conditions[obj]
        assert built == condition
        assert built.clauses == condition.clauses
        assert hash(built) == hash(condition)
        # the emitter seeds the variable memo; it must equal a recount
        assert built.variables() == condition.variables()
        assert built.variables() == {
            v for e in built.expressions() for v in e.variables()
        }
    assert_indexes_recounted(actual)


#: the build statistics both backends count the same way
COUNT_STATS = (
    "certain_true",
    "certain_false",
    "alpha_pruned",
    "open_conditions",
    "n_objects",
    "builds",
    "pair_universe",
)


class TestBackendParity:
    @settings(max_examples=150, deadline=None)
    @given(emitter_datasets(), st.sampled_from([0.001, 0.2, 1.0]))
    @example(IDENTICAL_CLAUSES, 1.0)
    @example(PREFIX_CLAUSES, 1.0)
    def test_array_emitter_matches_scalar_oracle(self, dataset, alpha):
        oracle = build_ctable(dataset, alpha=alpha, backend="python")
        assert_indexes_recounted(oracle)
        vector = build_ctable(dataset, alpha=alpha, backend="numpy")
        assert_same_ctable(oracle, vector)

    def test_identical_and_prefix_clauses_are_deduped_and_ordered(self):
        phi = build_ctable(IDENTICAL_CLAUSES, backend="numpy").condition(0)
        assert [[str(e) for e in clause] for clause in phi.clauses] == [
            ["Var(o1, a1) > 1"]
        ]
        phi = build_ctable(PREFIX_CLAUSES, backend="numpy").condition(0)
        assert [[str(e) for e in clause] for clause in phi.clauses] == [
            ["Var(o1, a1) > 1"],
            ["Var(o1, a1) > 1", "Var(o1, a2) > 2"],
        ]

    def test_every_object_alpha_pruned(self):
        dataset = random_dataset(2, n=30)
        for backend in ("numpy", "python"):
            ctable = build_ctable(dataset, alpha=0.001, backend=backend)
            assert ctable.pruned == {
                o for o, c in ctable.conditions.items() if not c.is_true
            }
            assert not ctable.undecided()
            assert_indexes_recounted(ctable)

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_cancel_check_aborts_at_every_call(self, backend):
        dataset = random_dataset(4, n=40, d=3)
        calls = []
        build_ctable(
            dataset, alpha=0.3, backend=backend, cancel_check=lambda: calls.append(1)
        )
        assert len(calls) >= 3  # before, during and after clause emission

        class Cancelled(Exception):
            pass

        for k in range(1, len(calls) + 1):
            seen = []

            def check():
                seen.append(1)
                if len(seen) == k:
                    raise Cancelled

            with pytest.raises(Cancelled):
                build_ctable(dataset, alpha=0.3, backend=backend, cancel_check=check)
            assert len(seen) == k

    @settings(max_examples=60, deadline=None)
    @given(incomplete_datasets(), st.sampled_from([0.05, 0.3, 1.0]))
    def test_numpy_backend_matches_python(self, dataset, alpha):
        fast = build_ctable(dataset, alpha=alpha, backend="python")
        vector = build_ctable(dataset, alpha=alpha, backend="numpy")
        assert fast.conditions == vector.conditions

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("alpha", [0.1, 1.0])
    def test_parity_on_larger_random_datasets(self, seed, alpha):
        dataset = random_dataset(seed, n=60, d=4)
        fast = build_ctable(dataset, alpha=alpha, backend="python")
        vector = build_ctable(dataset, alpha=alpha, backend="numpy")
        assert fast.conditions == vector.conditions

    def test_all_missing_dataset(self):
        values = np.full((6, 3), MISSING)
        dataset = IncompleteDataset(values=values, domain_sizes=[4, 4, 4])
        fast = build_ctable(dataset, alpha=1.0, backend="python")
        vector = build_ctable(dataset, alpha=1.0, backend="numpy")
        assert fast.conditions == vector.conditions
        # every pair is mutually a possible dominator
        assert all(not c.is_constant for c in vector.conditions.values())

    def test_no_missing_dataset(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 5, size=(30, 3))
        dataset = IncompleteDataset(values=values, domain_sizes=[5, 5, 5])
        fast = build_ctable(dataset, alpha=1.0, backend="python")
        vector = build_ctable(dataset, alpha=1.0, backend="numpy")
        assert fast.conditions == vector.conditions
        # complete data decides everything without the crowd
        assert all(c.is_constant for c in vector.conditions.values())

    def test_single_object(self):
        dataset = IncompleteDataset(
            values=np.array([[MISSING, 2]]), domain_sizes=[3, 3]
        )
        vector = build_ctable(dataset, alpha=1.0, backend="numpy")
        assert vector.condition(0).is_true

    def test_auto_backend_resolution(self):
        dataset = random_dataset(0)
        assert build_ctable(dataset).build_stats["backend"] == "numpy"
        assert (
            build_ctable(dataset, dominator_method="baseline").build_stats["backend"]
            == "python"
        )


class TestPruningParity:
    """The dominance-pruning pre-pass is a pure optimization.

    On any dataset and any alpha the pruned numpy build must produce the
    c-table of the unpruned scalar oracle -- same conditions, same
    alpha-pruned set -- while its pair accounting covers the full
    ordered-pair universe.
    """

    @settings(max_examples=60, deadline=None)
    @given(incomplete_datasets(), st.sampled_from([0.02, 0.05, 0.3, 1.0]))
    def test_pruned_build_matches_unpruned(self, dataset, alpha):
        plain = build_ctable(dataset, alpha=alpha, backend="python")
        pruned = build_ctable(dataset, alpha=alpha, backend="numpy")
        assert pruned.conditions == plain.conditions
        assert pruned.pruned == plain.pruned
        stats = pruned.build_stats
        n = dataset.n_objects
        assert stats["prune_enabled"]
        assert stats["pairs_tested"] + stats["pairs_pruned"] == n * (n - 1)

    @settings(max_examples=100, deadline=None)
    @given(emitter_datasets(), st.sampled_from([0.001, 0.2, 1.0]))
    def test_pruned_array_emitter_matches_scalar_oracle(self, dataset, alpha):
        oracle = build_ctable(dataset, alpha=alpha, backend="python")
        vector = build_ctable(dataset, alpha=alpha, backend="numpy")
        assert_same_ctable(oracle, vector)
        assert_indexes_recounted(oracle)
        for key in COUNT_STATS:
            assert vector.build_stats[key] == oracle.build_stats[key], key
        stats = vector.build_stats
        assert stats["prune_enabled"]
        assert stats["pairs_tested"] + stats["pairs_pruned"] == stats["pair_universe"]

    def test_emitter_chunks_do_not_change_clauses(self, monkeypatch):
        dataset = random_dataset(8, n=120, d=3, missing_rate=0.4)
        whole = build_ctable(dataset, alpha=0.3)
        monkeypatch.setattr("repro.ctable.construction.PAIR_BUDGET", 7)
        assert_same_ctable(whole, build_ctable(dataset, alpha=0.3))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("missing_rate", [0.0, 0.2, 0.6])
    def test_parity_on_larger_random_datasets(self, seed, missing_rate):
        dataset = random_dataset(seed, n=70, d=4, missing_rate=missing_rate)
        for alpha in (0.05, 0.3):
            plain = build_ctable(dataset, alpha=alpha, backend="python")
            pruned = build_ctable(dataset, alpha=alpha, backend="numpy")
            assert pruned.conditions == plain.conditions
            assert pruned.pruned == plain.pruned

    def test_unpruned_stats_cover_the_universe_too(self):
        dataset = random_dataset(5, n=30)
        stats = build_ctable(dataset, alpha=0.2, backend="python").build_stats
        n = dataset.n_objects
        assert not stats["prune_enabled"]
        assert stats["pairs_pruned"] == 0
        assert stats["pairs_tested"] == stats["pair_universe"] == n * (n - 1)
        assert stats["builds"] == 1

    def test_auto_prunes_only_the_numpy_backend(self):
        dataset = random_dataset(6, n=25)
        auto = build_ctable(dataset, alpha=0.2)
        assert auto.build_stats["prune_enabled"]
        scalar = build_ctable(dataset, alpha=0.2, backend="python")
        assert not scalar.build_stats["prune_enabled"]

    def test_invalid_prune_mode_rejected(self):
        with pytest.raises(ValueError, match="prune"):
            build_ctable(random_dataset(0, n=5), prune="maybe")

    @pytest.mark.parametrize("name, value", [("prune", "off"), ("n_jobs", 0)])
    def test_removed_build_options_raise(self, name, value):
        dataset = random_dataset(0, n=5)
        build_ctable(dataset, **{name: INERT_KEYWORDS[name]})
        with pytest.raises(ValueError, match=name):
            build_ctable(dataset, **{name: value})

    def test_empty_dataset_scan(self):
        dataset = IncompleteDataset(
            values=np.zeros((0, 2), dtype=np.int64), domain_sizes=[3, 3]
        )
        scan = pruned_dominator_scan(dataset, 0.0)
        assert len(scan.dominator_counts) == 0
        assert scan.open_sets == {}
        assert scan.stats["pair_universe"] == 0
        for key in ("prune_blocks", "distinct_hi_rows", "distinct_lo_rows"):
            assert scan.stats[key] == 0
        full = pruned_dominator_scan(random_dataset(0, n=10), 1.0)
        assert set(scan.stats) == set(full.stats)

    @staticmethod
    def _assert_scan_exact(dataset, limit, block_size, n_stages):
        scan = pruned_dominator_scan(
            dataset, limit, block_size=block_size, n_stages=n_stages
        )
        truth = dominator_sets(dataset)
        n = dataset.n_objects
        open_objects = set()
        for o, dominators in enumerate(truth):
            count = scan.dominator_counts[o]
            if dominators.size == 0:
                assert count == 0
            elif dominators.size <= limit:
                assert count == dominators.size
                np.testing.assert_array_equal(scan.open_sets[o], dominators)
                open_objects.add(o)
            else:
                assert count > limit
        assert set(scan.open_sets) == open_objects
        stats = scan.stats
        assert stats["pairs_tested"] + stats["pairs_pruned"] == n * (n - 1)

    # block_size=1 turns every block that is not rejected into a
    # bulk-accepted one, which covers the accepted-rows member path.
    @settings(max_examples=40, deadline=None)
    @given(
        incomplete_datasets(),
        st.sampled_from([0.05, 0.3, 1.0]),
        st.sampled_from([1, 2, 3, 32]),
        st.sampled_from([1, 3, 8]),
    )
    def test_scan_matches_dominator_sets(self, dataset, alpha, block_size, n_stages):
        limit = alpha * dataset.n_objects
        self._assert_scan_exact(dataset, limit, block_size, n_stages)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("family", ["random", "nba"])
    def test_scan_block_and_stage_sweep(self, family, seed):
        if family == "nba":
            dataset = generate_nba(n_objects=120, missing_rate=0.2, seed=seed)
        else:
            dataset = random_dataset(seed, n=90, d=3, missing_rate=0.3)
        for alpha in (0.02, 0.1, 0.5):
            for block_size in (1, 2, 3, 32):
                for n_stages in (1, 3, 8):
                    self._assert_scan_exact(
                        dataset, alpha * dataset.n_objects, block_size, n_stages
                    )


class TestProbabilityParity:
    def _engine_pair(self, seed):
        dataset = random_dataset(seed, n=50, d=3, missing_rate=0.35)
        ctable = build_ctable(dataset, alpha=0.2)
        store = DistributionStore(uniform_distributions(dataset), ctable.constraints)
        conditions = [ctable.condition(o) for o in sorted(ctable.conditions)]
        return conditions, store

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_matches_scalar(self, seed):
        conditions, store = self._engine_pair(seed)
        scalar = ProbabilityEngine(store)
        batch = ProbabilityEngine(store)
        expected = [scalar.probability(c) for c in conditions]
        actual = batch.probability_many(conditions)
        assert actual == pytest.approx(expected, abs=1e-12)

    def test_bulk_expressions_match_scalar(self):
        conditions, store = self._engine_pair(2)
        leaves = set()
        for condition in conditions:
            leaves.update(condition.distinct_expressions())
        leaves = list(leaves)
        ids, __ = store.expressions.intern_clauses([leaves])
        bulk = store.expression_values(store.expressions, np.array(ids)).tolist()
        for expression, value in zip(leaves, bulk):
            assert value == pytest.approx(store.prob_expression(expression), abs=1e-12)

    def test_batch_reuses_cache_across_calls(self):
        conditions, store = self._engine_pair(3)
        engine = ProbabilityEngine(store)
        first = engine.probability_many(conditions)
        computed = engine.n_computations
        second = engine.probability_many(conditions)
        assert second == first
        assert engine.n_computations == computed


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache["a"] = 1
        cache["b"] = 2
        assert cache.get("a") == 1  # refreshes "a"
        cache["c"] = 3  # evicts "b", the least recently used
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_unbounded_mode(self):
        cache = LRUCache(0)
        for i in range(1000):
            cache[i] = i
        assert len(cache) == 1000
        assert cache.evictions == 0

    def test_stats(self):
        cache = LRUCache(4)
        cache["x"] = 1
        cache.get("x")
        cache.get("missing")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 1
        assert stats["maxsize"] == 4

    def test_engine_cache_stays_bounded(self):
        dataset = random_dataset(4, n=40, missing_rate=0.4)
        ctable = build_ctable(dataset, alpha=0.3)
        store = DistributionStore(uniform_distributions(dataset), ctable.constraints)
        engine = ProbabilityEngine(store, cache_size=4)
        conditions = [ctable.condition(o) for o in sorted(ctable.conditions)]
        engine.probability_many(conditions)
        assert len(engine._cache) <= 4
