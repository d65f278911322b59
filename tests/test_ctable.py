"""Tests for the CTable container and answer updates."""

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayesnet.posteriors import empirical_distributions
from repro.ctable import (
    Condition,
    Expression,
    Relation,
    Var,
    build_ctable,
    const_greater_var,
    var_greater_const,
)
from repro.ctable.constraints import INFERENCE_MODES, VariableConstraints
from repro.ctable.dominators import DOMINATOR_METHODS, dominator_sets_baseline
from repro.datasets import MISSING, IncompleteDataset, generate_nba, generate_synthetic
from repro.probability import DistributionStore
from repro.probability.adpll import ADPLL


class TestViews:
    def test_certain_partitions(self, movies_ctable):
        assert movies_ctable.certain_answers() == [1, 2]
        assert movies_ctable.certain_non_answers() == []
        assert movies_ctable.undecided() == [0, 3, 4]

    def test_open_expressions(self, movies_ctable):
        pairs = list(movies_ctable.open_expressions())
        objs = {o for o, __ in pairs}
        assert objs == {0, 3, 4}
        assert movies_ctable.n_open_expressions() == sum(
            len(movies_ctable.condition(o).distinct_expressions()) for o in (0, 3, 4)
        )

    def test_objects_mentioning(self, movies_ctable):
        # Var(o5, a2) appears in phi(o1), phi(o4), phi(o5).
        assert movies_ctable.objects_mentioning((4, 1)) == frozenset({0, 3, 4})
        # Var(o2, a2) appears in phi(o4) and phi(o5).
        assert movies_ctable.objects_mentioning((1, 1)) == frozenset({3, 4})

    def test_must_cover_every_object(self, movies):
        with pytest.raises(ValueError):
            from repro.ctable.ctable import CTable

            CTable(dataset=movies, conditions={0: Condition.true()})


class TestAnswerUpdates:
    def test_example4_round_one(self, movies_ctable):
        """Answers Var(o5,a4)<4 and Var(o5,a3)=3 give the Table 5 c-table."""
        ct = movies_ctable
        ct.apply_answer(var_greater_const(4, 3, 4), Relation.LESS)
        ct.apply_answer(var_greater_const(4, 2, 3), Relation.EQUAL)
        # Table 5: phi(o1) = true.
        assert ct.condition(0).is_true
        # phi(o4) keeps Var(o2,a2)<3 and [Var(o5,a2)<3 v Var(o5,a4)<2].
        phi4 = ct.condition(3)
        assert not phi4.is_constant
        assert phi4.variables() == {(1, 1), (4, 1), (4, 3)}
        # phi(o5) reduces to Var(o5,a2) > 2 ... but only after also using
        # the Var(o5,a2) > Var(o2,a2) expression remains open.
        phi5 = ct.condition(4)
        assert not phi5.is_constant
        assert (4, 2) not in phi5.variables()

    def test_example4_round_two_resolves(self, movies_ctable):
        ct = movies_ctable
        ct.apply_answer(var_greater_const(4, 3, 4), Relation.LESS)
        ct.apply_answer(var_greater_const(4, 2, 3), Relation.EQUAL)
        ct.apply_answer(var_greater_const(4, 1, 2), Relation.GREATER)
        ct.apply_answer(const_greater_var(3, 1, 1), Relation.LESS)
        # Example 4 conclusion: phi(o4) = false, phi(o5) = true.
        assert ct.condition(3).is_false
        assert ct.condition(4).is_true
        assert ct.certain_answers() == [0, 1, 2, 4]
        assert not ct.has_open_expressions()

    def test_var_index_pruned_after_updates(self, movies_ctable):
        ct = movies_ctable
        ct.apply_answer(var_greater_const(4, 3, 4), Relation.LESS)
        # phi(o1) became true, so o1 must leave the per-variable index.
        assert 0 not in ct.objects_mentioning((4, 1))

    def test_equal_answer_resolves_strict_inequality_false(self, movies_ctable):
        ct = movies_ctable
        # Var(o5,a3) = 3 makes "Var(o5,a3) > 3" false in phi(o5).
        ct.apply_answer(var_greater_const(4, 2, 3), Relation.EQUAL)
        phi5 = ct.condition(4)
        assert var_greater_const(4, 2, 3) not in phi5.distinct_expressions()

    def test_cross_condition_propagation(self, movies_ctable):
        """Answering a task selected for one object simplifies others too."""
        ct = movies_ctable
        # Var(o5,a2) appears in phi(o1), phi(o4) and phi(o5); pin it high.
        ct.apply_answer(var_greater_const(4, 1, 2), Relation.GREATER)
        # phi(o5)'s first clause now satisfied by bound resolution only if
        # the bound decides "Var(o5,a2) > 2": it does (allowed = {3..9}).
        phi5 = ct.condition(4)
        assert var_greater_const(4, 1, 2) not in phi5.distinct_expressions()


class TestResultSet:
    def test_without_probability_only_certain(self, movies_ctable):
        assert movies_ctable.result_set() == [1, 2]

    def test_with_probability_threshold(self, movies_ctable, movies_store):
        from repro.probability import ProbabilityEngine

        engine = ProbabilityEngine(movies_store)
        result = movies_ctable.result_set(engine.probability, threshold=0.5)
        # Pr(phi(o1)) = 0.8 and Pr(phi(o5)) = 0.823 exceed 0.5; o4 at 0.153 does not.
        assert result == [0, 1, 2, 4]

    def test_threshold_extremes(self, movies_ctable, movies_store):
        from repro.probability import ProbabilityEngine

        engine = ProbabilityEngine(movies_store)
        everything = movies_ctable.result_set(engine.probability, threshold=0.0)
        assert everything == [0, 1, 2, 3, 4]
        only_certain = movies_ctable.result_set(engine.probability, threshold=1.0)
        assert only_certain == [1, 2]


class TestSetCondition:
    def test_set_condition_updates_index(self, movies_ctable):
        ct = movies_ctable
        ct.set_condition(0, Condition.true())
        assert 0 not in ct.objects_mentioning((4, 1))
        new_cond = Condition.of([[var_greater_const(4, 1, 5)]])
        ct.set_condition(0, new_cond)
        assert 0 in ct.objects_mentioning((4, 1))


def recounted_frequencies(ctable):
    from collections import Counter

    counts = Counter()
    for condition in ctable.conditions.values():
        counts.update(condition.expression_counts())
    return counts


class TestExpressionFrequencyIndex:
    """The incremental index must always equal a from-scratch recount."""

    def test_matches_recount_after_build(self, movies_ctable):
        assert movies_ctable.expression_frequencies() == recounted_frequencies(
            movies_ctable
        )

    def test_updates_incrementally_on_answers(self, movies_ctable):
        ct = movies_ctable
        ct.apply_answer(var_greater_const(4, 3, 4), Relation.LESS)
        assert ct.expression_frequencies() == recounted_frequencies(ct)
        ct.apply_answer(var_greater_const(4, 2, 3), Relation.EQUAL)
        assert ct.expression_frequencies() == recounted_frequencies(ct)

    def test_updates_on_set_condition(self, movies_ctable):
        ct = movies_ctable
        expression = var_greater_const(4, 1, 5)
        assert ct.expression_frequency(expression) == 0
        ct.set_condition(0, Condition.of([[expression]]))
        assert ct.expression_frequency(expression) == 1
        assert ct.expression_frequencies() == recounted_frequencies(ct)
        ct.set_condition(0, Condition.true())
        assert ct.expression_frequency(expression) == 0
        # Zeroed entries are dropped, not kept at zero.
        assert expression not in ct.expression_frequencies()

    def test_open_set_follows_set_condition(self, movies_ctable):
        ct = movies_ctable
        ct.set_condition(0, Condition.false())
        assert ct.undecided() == [3, 4]
        ct.set_condition(1, Condition.of([[var_greater_const(4, 1, 5)]]))
        assert ct.undecided() == [1, 3, 4]
        assert_indexes_recounted(ct)

    def test_counts_repeats_within_a_condition(self, movies_ctable):
        ct = movies_ctable
        expression = var_greater_const(4, 1, 5)
        ct.set_condition(
            0, Condition.of([[expression], [expression, var_greater_const(4, 2, 5)]])
        )
        assert ct.expression_frequency(expression) == 2

    def test_returned_counter_is_a_copy(self, movies_ctable):
        counts = movies_ctable.expression_frequencies()
        counts.clear()
        assert movies_ctable.expression_frequencies() == recounted_frequencies(
            movies_ctable
        )


# ----------------------------------------------------------------------
# answer application: the decided-set path against the full re-resolve
# ----------------------------------------------------------------------
def oracle_apply(conditions, constraints, expression, relation):
    """Fold one answer in the way the c-table once did, as the reference.

    Every expression of every condition mentioning a touched variable is
    re-resolved, and each result is normalised by :meth:`Condition.of`.
    """
    variables = constraints.apply_answer(expression, relation)
    affected = frozenset(
        obj
        for obj, condition in conditions.items()
        if not condition.variables().isdisjoint(variables)
    )
    for obj in affected:
        clauses = []
        for clause in conditions[obj].clauses:
            truths = [constraints.resolve(e) for e in clause]
            if True in truths:
                continue
            clauses.append([e for e, truth in zip(clause, truths) if truth is None])
        conditions[obj] = Condition.of(clauses)
    return affected


def assert_same_conditions(ctable, conditions):
    for obj, expected in conditions.items():
        actual = ctable.condition(obj)
        assert actual == expected
        assert actual.clauses == expected.clauses
        assert hash(actual) == hash(expected)


def assert_indexes_recounted(ctable):
    """Every incrementally kept index equals a recount from scratch."""
    expressions = Counter()
    var_index = {}
    for obj, condition in ctable.conditions.items():
        expressions.update(condition.expression_counts())
        for variable in condition.variables():
            var_index.setdefault(variable, set()).add(obj)
    var_exprs = {}
    for expression in expressions:
        for variable in expression.variables():
            var_exprs.setdefault(variable, set()).add(expression)
    assert dict(ctable._expr_index) == dict(expressions)
    assert ctable._var_index == var_index
    assert ctable._var_exprs == var_exprs
    open_objects = sorted(
        obj for obj, condition in ctable.conditions.items() if not condition.is_constant
    )
    assert ctable.undecided() == open_objects
    assert ctable.has_open_expressions() == bool(open_objects)
    # every open condition's id lists (seeded or interned) index
    # the c-table's expression table and equal a recount from its clauses
    table = ctable.expressions
    size = len(table)
    for obj in open_objects:
        condition = ctable.conditions[obj]
        assert condition.expression_table is table
        ids, widths = condition.expression_ids(table)
        fresh_ids, fresh_widths = table.intern_clauses(condition.clauses)
        assert ids == fresh_ids
        assert widths == fresh_widths
    assert len(table) == size


def domain_decided(ctable):
    """The c-table's expressions a fresh full-mode store decides."""
    fresh = VariableConstraints(ctable.dataset.domain_sizes, mode="full")
    return {e for e in ctable.expression_frequencies() if fresh.resolve(e) is not None}


@st.composite
def small_datasets(draw):
    """Tiny incomplete datasets.  Cells favour the domain's ends, where the
    domain decides disjuncts (``0 > Var``, ``Var > top``) the build must
    not emit.
    """
    n = draw(st.integers(3, 7))
    sizes = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    rows = []
    for __ in range(n):
        rows.append(
            [
                draw(
                    st.one_of(
                        st.just(MISSING),
                        st.sampled_from((0, size - 1)),
                        st.integers(0, size - 1),
                    )
                )
                for size in sizes
            ]
        )
    return IncompleteDataset(values=np.array(rows, dtype=np.int64), domain_sizes=sizes)


def answerable(dataset, ctable):
    """The build's expressions plus every var-vs-const and var-vs-var
    question over the missing cells, in a fixed order."""
    pool = set(ctable.expression_frequencies())
    missing = [tuple(cell) for cell in np.argwhere(dataset.mask)]
    for obj, attr in missing:
        for value in range(dataset.domain_sizes[attr]):
            pool.add(var_greater_const(obj, attr, value))
        for other, other_attr in missing:
            if other_attr == attr and other != obj:
                pool.add(Expression(Var(obj, attr), Var(other, attr)))
    return sorted(pool, key=Expression.sort_key)


class TestDecidedSetParity:
    """``apply_answer`` equals the full re-resolve after every answer."""

    @given(small_datasets(), st.sampled_from(INFERENCE_MODES), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_full_resimplification(self, dataset, mode, data):
        ctable = build_ctable(dataset, alpha=1.0, inference_mode=mode)
        conditions = dict(ctable.conditions)
        reference = VariableConstraints(dataset.domain_sizes, mode=mode)
        pool = answerable(dataset, ctable)
        if not pool:
            return
        assert_indexes_recounted(ctable)
        # Answers are drawn at random, so later ones contradict earlier
        # ones, and statically decided expressions get answered both ways.
        for __ in range(data.draw(st.integers(1, 8), label="answers")):
            expression = data.draw(st.sampled_from(pool), label="expression")
            relation = data.draw(st.sampled_from(list(Relation)), label="relation")
            affected = ctable.apply_answer(expression, relation)
            assert affected == oracle_apply(conditions, reference, expression, relation)
            assert_same_conditions(ctable, conditions)
            assert_indexes_recounted(ctable)


def oracle_conditions(dataset, alpha):
    """Get-CTable written from its definition, as the reference build.

    Each pair of :func:`dominator_sets_baseline` gives its full disjunct
    list, domain-decided disjuncts included, and :meth:`Condition.of`
    normalises the clauses before a fresh full-mode store simplifies them.
    Membership guarantees ``p >= o`` where both cells are observed, so
    those disjuncts are false and left out.
    """
    fresh = VariableConstraints(dataset.domain_sizes, mode="full")
    values, mask = dataset.values, dataset.mask
    conditions = {}
    for o, dominators in enumerate(dominator_sets_baseline(dataset)):
        if dominators.size > alpha * dataset.n_objects:
            conditions[o] = Condition.false()
            continue
        clauses = []
        for p in dominators.tolist():
            clause = []
            for k in range(dataset.n_attributes):
                if mask[o, k] and mask[p, k]:
                    clause.append(Expression(Var(o, k), Var(p, k)))
                elif mask[o, k]:
                    clause.append(var_greater_const(o, k, int(values[p, k])))
                elif mask[p, k]:
                    clause.append(const_greater_var(int(values[o, k]), p, k))
            if clause or (values[p] != values[o]).any():
                clauses.append(clause)  # an empty clause: p dominates o
        conditions[o] = Condition.of(clauses).simplify_with(fresh.resolve)
    return conditions


class TestOpenEmission:
    """The build emits only expressions the domain leaves open."""

    @given(
        small_datasets(),
        st.sampled_from(("numpy", "python")),
        st.sampled_from(DOMINATOR_METHODS),
        st.sampled_from(INFERENCE_MODES),
        st.sampled_from((0.3, 1.0)),
    )
    @settings(max_examples=150, deadline=None)
    def test_build_matches_simplified_oracle(self, dataset, backend, method, mode, alpha):
        ctable = build_ctable(
            dataset,
            alpha=alpha,
            dominator_method=method,
            inference_mode=mode,
            backend=backend,
        )
        assert not domain_decided(ctable)
        assert_same_conditions(ctable, oracle_conditions(dataset, alpha))
        for condition in ctable.conditions.values():
            # the bulk emitter seeds the variable memo without reading
            # the clauses
            assert condition.variables() == {
                v for e in condition.expressions() for v in e.variables()
            }
        assert_indexes_recounted(ctable)

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_one_value_domain_emits_no_disjunct(self, backend):
        """Over a one-value domain even ``Var > Var`` is false."""
        values = np.array([[MISSING, 1], [MISSING, MISSING], [0, 0]], dtype=np.int64)
        dataset = IncompleteDataset(values=values, domain_sizes=[1, 2])
        ctable = build_ctable(dataset, alpha=1.0, backend=backend)
        assert ctable.conditions == oracle_conditions(dataset, 1.0)
        assert not domain_decided(ctable)
        # o2 misses both cells: its a1 disjuncts are all false, and
        # against o1 nothing else is left
        assert ctable.condition(1).is_false
        assert ctable.condition(0) == Condition.of([[const_greater_var(1, 1, 1)]])


def first_touch_ctable():
    """Five objects over two 0..3 attributes.

    Against its one dominator o4, o2 has only ``0 > Var(o4, a2)``, false
    for every value, so phi(o2) is built false.  phi(o5) would hold
    ``Var(o5, a1) > 3``, also false for every value, and the build leaves
    it out.
    """
    values = np.array(
        [[0, MISSING], [3, 0], [1, 1], [3, MISSING], [MISSING, 1]], dtype=np.int64
    )
    dataset = IncompleteDataset(values=values, domain_sizes=[4, 4])
    return build_ctable(dataset, alpha=1.0)


class TestFirstTouch:
    """A built c-table needs no extra work at an object's first touch."""

    def test_domain_decided_disjuncts_are_not_emitted(self):
        ct = first_touch_ctable()
        assert ct.condition(1).is_false
        assert not domain_decided(ct)
        phi5 = Condition.of(
            [
                [const_greater_var(1, 0, 1), var_greater_const(4, 0, 0)],
                [const_greater_var(1, 3, 1)],
                [var_greater_const(4, 0, 1)],
            ]
        )
        assert ct.condition(4) == phi5
        # Var(o1, a2) is mentioned by phi(o1) and phi(o5) only, and
        # Var(o1, a2) < 3 decides nothing in phi(o5).
        answer = var_greater_const(0, 1, 2)
        assert ct.apply_answer(answer, Relation.LESS) == frozenset({0, 4})
        assert ct.condition(4) == phi5

    def test_first_touch_matches_reference(self):
        ct = first_touch_ctable()
        conditions = dict(ct.conditions)
        reference = VariableConstraints(ct.dataset.domain_sizes)
        for expression, relation in (
            (var_greater_const(0, 1, 1), Relation.LESS),
            (var_greater_const(4, 0, 2), Relation.LESS),
            (const_greater_var(0, 3, 1), Relation.GREATER),
        ):
            affected = ct.apply_answer(expression, relation)
            assert affected == oracle_apply(conditions, reference, expression, relation)
            assert_same_conditions(ct, conditions)
            assert_indexes_recounted(ct)

    def test_affected_object_without_hit_keeps_condition(self):
        ct = first_touch_ctable()
        before = ct.condition(2)
        # Var(o5, a1) < 3 leaves phi(o3)'s "1 > Var(o5, a1)" open.
        affected = ct.apply_answer(var_greater_const(4, 0, 2), Relation.LESS)
        assert 2 in affected
        assert ct.condition(2) is before

    def test_set_condition_drops_decided_expressions(self):
        ct = first_touch_ctable()
        ct.apply_answer(var_greater_const(4, 0, 2), Relation.LESS)
        decided = var_greater_const(4, 0, 2)  # false since Var(o5, a1) < 3
        domain_false = var_greater_const(3, 1, 3)  # Var(o4, a2) > top
        still_open = const_greater_var(1, 3, 1)
        ct.set_condition(2, Condition.of([[decided, domain_false, still_open]]))
        assert ct.condition(2) == Condition.of([[still_open]])
        assert_indexes_recounted(ct)


def probability_digest(adpll, conditions):
    """sha256 over every probability and branch pair ADPLL gives."""
    digest = hashlib.sha256()
    for obj in sorted(conditions):
        condition = conditions[obj]
        if condition.is_constant:
            continue
        digest.update(adpll.probability(condition).hex().encode())
        branches = adpll.branch_probabilities(
            condition, sorted(condition.distinct_expressions(), key=Expression.sort_key)
        )
        for expression in sorted(branches, key=Expression.sort_key):
            for value in branches[expression]:
                digest.update(value.hex().encode())
    return digest.hexdigest()


class TestProbabilityParity:
    """ADPLL gives bit-identical values on decided-set and reference c-tables."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: generate_synthetic(n_objects=150, missing_rate=0.1, seed=5),
            lambda: generate_synthetic(n_objects=120, missing_rate=0.2, seed=11),
            lambda: generate_nba(n_objects=120, missing_rate=0.1, seed=3),
        ],
        ids=["synthetic-5", "synthetic-11", "nba-3"],
    )
    @pytest.mark.parametrize("use_components", [True, False])
    def test_three_answer_rounds(self, make, use_components):
        dataset = make()
        ct = build_ctable(dataset, alpha=0.1)
        conditions = dict(ct.conditions)
        reference = VariableConstraints(dataset.domain_sizes)
        pmfs = empirical_distributions(dataset)
        for __ in range(3):
            frequencies = ct.expression_frequencies()
            asked = sorted(
                frequencies, key=lambda e: (-frequencies[e], e.sort_key())
            )[:6]
            for expression in asked:
                relation = expression.true_relation(dataset.complete)
                affected = ct.apply_answer(expression, relation)
                assert affected == oracle_apply(
                    conditions, reference, expression, relation
                )
            assert_same_conditions(ct, conditions)
            ours, theirs = (
                ADPLL(DistributionStore(pmfs, store), use_components=use_components)
                for store in (ct.constraints, reference)
            )
            assert probability_digest(ours, ct.conditions) == probability_digest(
                theirs, conditions
            )
