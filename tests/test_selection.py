"""Tests for the lazy entropy ranking and the bracket-first result set.

:func:`rank_objects` (one eager batch, then a sort) is the reference for
:class:`IncrementalRanker`'s best-first walk, and exact ADPLL is the
reference for :meth:`ProbabilityEngine.bounds_many`.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.selection import (
    IncrementalRanker,
    bounded_result_set,
    max_entropy,
    rank_objects,
)
from repro.core.utility import entropy
from repro.ctable import (
    Condition,
    Expression,
    Relation,
    Var,
    build_ctable,
    const_greater_var,
    var_greater_const,
)
from repro.datasets import MISSING, IncompleteDataset
from repro.probability import DistributionStore, ProbabilityEngine
from repro.probability.engine import BOUND_SLACK


# ----------------------------------------------------------------------
# bounds_many against exact ADPLL
# ----------------------------------------------------------------------
@st.composite
def pmfs_and_conditions(draw):
    """A few variables, pmfs with zero entries, and CNF conditions over them.

    Zero entries make some expressions certain or impossible without the
    domain deciding them; drawing every expression from one small pool
    makes clauses and conditions share variables.
    """
    n_vars = draw(st.integers(1, 4))
    sizes = [draw(st.integers(2, 5)) for __ in range(n_vars)]
    variables = [(index, 0) for index in range(n_vars)]
    pmfs = {}
    for variable, size in zip(variables, sizes):
        weights = draw(
            st.lists(
                st.sampled_from((0.0, 0.0, 0.5, 1.0, 2.0, 3.0)),
                min_size=size,
                max_size=size,
            ).filter(lambda w: sum(w) > 0)
        )
        pmfs[variable] = np.array(weights) / sum(weights)
    pool = []
    for (obj, attr), size in zip(variables, sizes):
        for value in range(size):
            pool.append(var_greater_const(obj, attr, value))
            pool.append(const_greater_var(value, obj, attr))
    for (a, __), (b, __) in itertools.permutations(variables, 2):
        pool.append(Expression(Var(a, 0), Var(b, 0)))
    clause = st.lists(st.sampled_from(pool), min_size=1, max_size=3)
    conditions = draw(
        st.lists(st.lists(clause, min_size=1, max_size=4), min_size=1, max_size=6)
    )
    return pmfs, [Condition.of(clauses) for clauses in conditions]


class TestBoundsMany:
    @given(pmfs_and_conditions())
    @settings(max_examples=300, deadline=None)
    def test_brackets_contain_the_adpll_value(self, case):
        pmfs, conditions = case
        engine = ProbabilityEngine(DistributionStore(pmfs))
        brackets = engine.bounds_many(conditions)
        assert len(brackets) == len(conditions)
        for condition, (lo, hi) in zip(conditions, brackets):
            assert -BOUND_SLACK <= lo <= hi <= 1.0 + BOUND_SLACK
            exact = ProbabilityEngine(DistributionStore(pmfs)).probability(condition)
            assert lo <= exact <= hi
            if condition.is_constant:
                assert lo == hi == exact

    @given(pmfs_and_conditions())
    @settings(max_examples=50, deadline=None)
    def test_a_cached_value_collapses_its_bracket(self, case):
        pmfs, conditions = case
        engine = ProbabilityEngine(DistributionStore(pmfs))
        values = engine.probability_many(conditions)
        assert engine.bounds_many(conditions) == [(p, p) for p in values]

    def test_frechet_bracket_of_two_single_expression_clauses(self):
        pmf = np.full(4, 0.25)
        engine = ProbabilityEngine(DistributionStore({(0, 0): pmf, (1, 0): pmf}))
        condition = Condition.of(
            [[var_greater_const(0, 0, 1)], [var_greater_const(1, 0, 2)]]
        )
        ((lo, hi),) = engine.bounds_many([condition])
        # Pr = 0.5 * 0.25; Frechet gives [0, 0.25] for the conjunction
        assert lo == -BOUND_SLACK
        assert hi == pytest.approx(0.25, abs=1e-8)
        assert engine.probability(condition) == pytest.approx(0.125)

    @pytest.mark.parametrize(
        "kwargs", [{"method": "approx"}, {"node_budget": 10**6}, {"deadline_s": 60.0}]
    )
    def test_inexact_engines_bracket_nothing(self, kwargs):
        pmf = np.full(4, 0.25)
        engine = ProbabilityEngine(DistributionStore({(0, 0): pmf}), **kwargs)
        condition = Condition.of([[var_greater_const(0, 0, 1)]])
        engine.probability(condition)
        assert engine.bounds_many([condition, Condition.true()]) == [
            (0.0, 1.0),
            (1.0, 1.0),
        ]


class TestMaxEntropy:
    @given(
        st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)
    )
    def test_bounds_every_entropy_in_the_bracket(self, a, b, t):
        lo, hi = sorted((a, b))
        p = lo + t * (hi - lo)
        assert entropy(p) <= max_entropy(lo, hi)

    def test_open_bracket_is_maximal(self):
        assert max_entropy(0.0, 1.0) == 1.0


# ----------------------------------------------------------------------
# the lazy walk against the eager reference
# ----------------------------------------------------------------------
@st.composite
def answered_ctables(draw):
    """A small incomplete dataset, its hidden completion and pmfs.

    Uniform pmfs give many exact entropy ties; Dirichlet pmfs give
    distinct values.  Every pmf is positive, so truthful answers never
    empty a variable's support.
    """
    n = draw(st.integers(3, 8))
    sizes = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    complete = np.array(
        [[draw(st.integers(0, size - 1)) for size in sizes] for __ in range(n)],
        dtype=np.int64,
    )
    mask = np.array(
        [[draw(st.booleans()) for __ in sizes] for __ in range(n)], dtype=bool
    )
    values = np.where(mask, MISSING, complete)
    dataset = IncompleteDataset(values=values, domain_sizes=sizes)
    uniform = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    pmfs = {}
    for obj, attr in np.argwhere(mask):
        size = sizes[attr]
        pmfs[(int(obj), int(attr))] = (
            np.full(size, 1.0 / size) if uniform else rng.dirichlet(np.ones(size))
        )
    return dataset, complete, pmfs


def assert_walk_matches_reference(ranker, ctable, store, data):
    reference = rank_objects(ctable, ProbabilityEngine(store))
    ranking = ranker.rank()
    assert len(ranking) == len(reference)
    assert bool(ranking) == bool(reference)
    # a partial iteration first, so later reads extend a half-done walk
    stop = data.draw(st.integers(0, len(reference)), label="partial")
    assert list(itertools.islice(iter(ranking), stop)) == reference[:stop]
    if reference:
        assert ranking[0] == reference[0]
    k = data.draw(st.integers(0, len(reference) + 1), label="k")
    assert ranker.rank()[:k] == reference[:k]
    full = ranker.rank()
    assert list(full) == reference
    assert full[:] == reference
    if reference:
        assert full[-1] == reference[-1]


class TestLazyRanking:
    @given(answered_ctables(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_walk_equals_eager_ranking_after_every_answer(self, case, data):
        dataset, complete, pmfs = case
        ctable = build_ctable(dataset, alpha=1.0)
        store = DistributionStore(pmfs, ctable.constraints)
        ranker = IncrementalRanker(ctable, ProbabilityEngine(store))
        assert_walk_matches_reference(ranker, ctable, store, data)
        for __ in range(data.draw(st.integers(0, 6), label="answers")):
            pool = sorted(ctable.expression_frequencies(), key=Expression.sort_key)
            if not pool:
                break
            expression = data.draw(st.sampled_from(pool), label="expression")
            affected = ctable.apply_answer(
                expression, expression.true_relation(complete)
            )
            ranker.mark_dirty(affected)
            assert_walk_matches_reference(ranker, ctable, store, data)


def tied_ctable():
    """Five objects over one 0..7 attribute, with two pairs of exact ties.

    Under uniform pmfs o0 and o1 share ``Pr = 0.5`` (entropy 1), o2 and
    o3 share ``Pr = 0.25``, and o4 holds ``Pr = 1/64`` with the bracket
    ``[0, 0.125]``, whose entropy bound stays below o2's.
    """
    values = np.full((5, 1), MISSING, dtype=np.int64)
    dataset = IncompleteDataset(values=values, domain_sizes=[8])
    ctable = build_ctable(dataset, alpha=1.0)
    conditions = (
        [[var_greater_const(0, 0, 3)]],
        [[var_greater_const(1, 0, 3)]],
        [[var_greater_const(2, 0, 5)]],
        [[var_greater_const(3, 0, 5)]],
        [[var_greater_const(3, 0, 6)], [var_greater_const(4, 0, 6)]],
    )
    for obj, clauses in enumerate(conditions):
        ctable.set_condition(obj, Condition.of(clauses))
    pmfs = {(obj, 0): np.full(8, 0.125) for obj in range(5)}
    return ctable, DistributionStore(pmfs, ctable.constraints)


class TestTiesAndCounters:
    def test_ties_break_on_the_object_id(self):
        ctable, store = tied_ctable()
        ranker = IncrementalRanker(ctable, ProbabilityEngine(store))
        ranking = ranker.rank()
        assert [r.obj for r in ranking] == [0, 1, 2, 3, 4]
        assert list(ranking) == rank_objects(ctable, ProbabilityEngine(store))

    def test_only_the_read_prefix_is_solved(self):
        ctable, store = tied_ctable()
        engine = ProbabilityEngine(store)
        ranker = IncrementalRanker(ctable, engine)
        ranking = ranker.rank()
        # rank() solves the top tier: o0 and o1, whose brackets straddle 0.5
        assert ranker.n_rescored == 2
        assert [r.obj for r in ranking[:2]] == [0, 1]
        assert ranker.n_rescored == 2
        assert ranker.n_bounded == 3
        # o4's bracket [0, 0.25] caps its entropy below o2's exact 0.811
        assert ranking[2].obj == 2
        assert ranker.n_rescored + ranker.n_bounded == 5
        assert engine.n_computations == ranker.n_rescored

    def test_open_brackets_give_one_eager_batch(self, monkeypatch):
        ctable, store = tied_ctable()
        engine = ProbabilityEngine(store)
        monkeypatch.setattr(
            ProbabilityEngine,
            "bounds_many",
            lambda self, conditions: [(0.0, 1.0)] * len(conditions),
        )
        batches = []
        real = ProbabilityEngine.probability_many

        def record(self, conditions, *args, **kwargs):
            batches.append(list(conditions))
            return real(self, conditions, *args, **kwargs)

        monkeypatch.setattr(ProbabilityEngine, "probability_many", record)
        ranker = IncrementalRanker(ctable, engine)
        ranking = ranker.rank()
        assert batches == [[ctable.condition(obj) for obj in range(5)]]
        assert list(ranking) == rank_objects(ctable, ProbabilityEngine(store))
        assert ranker.n_bounded == 0

    def test_dirty_objects_reuse_a_still_cached_value(self):
        ctable, store = tied_ctable()
        ranker = IncrementalRanker(ctable, ProbabilityEngine(store))
        before = list(ranker.rank())
        solved = ranker.n_rescored
        ranker.mark_dirty([4])
        assert list(ranker.rank()) == before
        assert ranker.n_rescored == solved

    def test_answers_drop_decided_objects(self):
        ctable, store = tied_ctable()
        ranker = IncrementalRanker(ctable, ProbabilityEngine(store))
        list(ranker.rank())
        ranker.mark_dirty(
            ctable.apply_answer(var_greater_const(4, 0, 6), Relation.LESS)
        )
        assert [r.obj for r in ranker.rank()] == [0, 1, 2, 3]

    def test_index_errors(self):
        ctable, store = tied_ctable()
        ranking = IncrementalRanker(ctable, ProbabilityEngine(store)).rank()
        with pytest.raises(IndexError):
            ranking[5]
        with pytest.raises(IndexError):
            ranking[-6]
        assert ranking[5:] == []


class TestBoundedResultSet:
    @pytest.mark.parametrize("threshold", [0.0, 0.1, 0.25, 0.5, 0.9, 1.0])
    def test_equals_the_per_object_result_set(self, threshold):
        ctable, store = tied_ctable()
        answers, bounded = bounded_result_set(
            ctable, ProbabilityEngine(store), threshold
        )
        reference = ctable.result_set(ProbabilityEngine(store).probability, threshold)
        assert answers == reference
        assert 0 <= bounded <= len(ctable.undecided())

    def test_bracket_decided_objects_are_not_solved(self):
        ctable, store = tied_ctable()
        engine = ProbabilityEngine(store)
        answers, bounded = bounded_result_set(ctable, engine, 0.5)
        assert answers == []
        # o0/o1 straddle 0.5 and are solved; o2-o4 have hi <= 0.5
        assert bounded == 3
        assert engine.n_computations == 2

    def test_solve_answers_caches_every_answer(self, movies_ctable, movies_store):
        engine = ProbabilityEngine(movies_store)
        answers, __ = bounded_result_set(
            movies_ctable, engine, 0.5, solve_answers=True
        )
        assert answers == movies_ctable.result_set(
            ProbabilityEngine(movies_store).probability, 0.5
        )
        for obj in answers:
            condition = movies_ctable.condition(obj)
            if not condition.is_constant:
                lo, hi = engine.bounds_many([condition])[0]
                assert lo == hi
