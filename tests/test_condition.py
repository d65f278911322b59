"""Unit + property tests for CNF conditions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctable import (
    Condition,
    Expression,
    const_greater_var,
    var_greater_const,
    var_greater_var,
)
from repro.ctable.expression_table import ExpressionTable

E1 = var_greater_const(0, 0, 2)  # Var(o1,a1) > 2
E2 = var_greater_const(1, 0, 1)  # Var(o2,a1) > 1
E3 = const_greater_var(3, 0, 1)  # 3 > Var(o1,a2)
E4 = var_greater_var(0, 1, 1)    # Var(o1,a2) > Var(o2,a2)


class TestConstants:
    def test_true_false_singletons(self):
        assert Condition.true() is Condition.true()
        assert Condition.false() is Condition.false()
        assert Condition.true().is_true
        assert Condition.false().is_false
        assert not Condition.true().is_false

    def test_constants_have_no_variables(self):
        assert Condition.true().variables() == frozenset()

    def test_invalid_constructions(self):
        with pytest.raises(ValueError):
            Condition(clauses=((E1,),), value=True)
        with pytest.raises(ValueError):
            Condition(clauses=(), value=None)


class TestNormalization:
    def test_of_empty_is_true(self):
        assert Condition.of([]) is Condition.true()

    def test_of_with_empty_clause_is_false(self):
        assert Condition.of([[E1], []]).is_false

    def test_duplicate_expressions_deduped(self):
        c = Condition.of([[E1, E1, E2]])
        assert c.n_expression_occurrences() == 2

    def test_duplicate_clauses_deduped(self):
        c = Condition.of([[E1, E2], [E2, E1]])
        assert c.n_clauses() == 1

    def test_canonical_equality(self):
        a = Condition.of([[E1, E2], [E3]])
        b = Condition.of([[E3], [E2, E1]])
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        assert Condition.of([[E1]]) != Condition.of([[E2]])
        assert Condition.of([[E1]]) != Condition.true()


class TestStructure:
    def test_variables(self):
        c = Condition.of([[E1, E4], [E2]])
        assert c.variables() == frozenset({(0, 0), (0, 1), (1, 1), (1, 0)})

    def test_variable_counts(self):
        c = Condition.of([[E3, E4], [E4, E1]])
        counts = c.variable_counts()
        assert counts[(0, 1)] == 3  # E3 once + E4 twice
        assert counts[(1, 1)] == 2
        assert counts[(0, 0)] == 1

    def test_distinct_expressions(self):
        c = Condition.of([[E1, E2], [E1, E3]])
        assert c.distinct_expressions() == frozenset({E1, E2, E3})


class TestEvaluate:
    def test_cnf_semantics(self):
        c = Condition.of([[E1, E2], [E3]])
        # E1 true, E3 true
        assert c.evaluate({(0, 0): 3, (1, 0): 0, (0, 1): 1})
        # first clause false
        assert not c.evaluate({(0, 0): 1, (1, 0): 1, (0, 1): 1})
        # second clause false
        assert not c.evaluate({(0, 0): 3, (1, 0): 0, (0, 1): 3})

    def test_constant_evaluation(self):
        assert Condition.true().evaluate({})
        assert not Condition.false().evaluate({})


class TestSubstitute:
    def test_resolves_to_true(self):
        c = Condition.of([[E1]])
        assert c.substitute((0, 0), 5).is_true

    def test_resolves_to_false(self):
        c = Condition.of([[E1]])
        assert c.substitute((0, 0), 0).is_false

    def test_drops_false_disjunct_only(self):
        c = Condition.of([[E1, E2]])
        reduced = c.substitute((0, 0), 0)
        assert reduced == Condition.of([[E2]])

    def test_drops_satisfied_clause_only(self):
        c = Condition.of([[E1], [E2]])
        reduced = c.substitute((0, 0), 5)
        assert reduced == Condition.of([[E2]])

    def test_partial_var_var(self):
        c = Condition.of([[E4]])
        reduced = c.substitute((0, 1), 2)
        assert not reduced.is_constant
        assert reduced.variables() == frozenset({(1, 1)})

    def test_constant_unchanged(self):
        assert Condition.true().substitute((0, 0), 1).is_true

    def test_substitute_dedupes_clauses(self):
        # Two clauses become identical after substitution.
        c = Condition.of([[E1, E2], [E2, E3]])
        reduced = c.substitute((0, 0), 0).substitute((0, 1), 5)
        # First clause -> [E2]; second clause -> [E2]; must collapse.
        assert reduced == Condition.of([[E2]])


class TestAssignExpression:
    def test_true_drops_clause(self):
        c = Condition.of([[E1, E2], [E3]])
        assert c.assign_expression(E3, True) == Condition.of([[E1, E2]])

    def test_false_drops_disjunct(self):
        c = Condition.of([[E1, E2], [E3]])
        assert c.assign_expression(E1, False) == Condition.of([[E2], [E3]])

    def test_false_empty_clause_is_false(self):
        c = Condition.of([[E3]])
        assert c.assign_expression(E3, False).is_false

    def test_all_clauses_dropped_is_true(self):
        c = Condition.of([[E1], [E1, E2]])
        assert c.assign_expression(E1, True).is_true

    def test_unmentioned_expression_noop(self):
        c = Condition.of([[E1]])
        assert c.assign_expression(E2, True) is c


class TestSimplifyWith:
    def test_resolver_none_is_identity(self):
        c = Condition.of([[E1, E2]])
        assert c.simplify_with(lambda e: None) is c

    def test_mixed_resolution(self):
        c = Condition.of([[E1, E2], [E3, E4]])
        resolved = c.simplify_with(lambda e: False if e == E1 else (True if e == E3 else None))
        assert resolved == Condition.of([[E2]])


# ----------------------------------------------------------------------
# property: substitution commutes with evaluation
# ----------------------------------------------------------------------
@st.composite
def random_condition(draw):
    """A small random CNF over variables (0..2, 0..1) with domain 0..3."""
    variables = [(o, a) for o in range(3) for a in range(2)]
    n_clauses = draw(st.integers(1, 3))
    clauses = []
    for __ in range(n_clauses):
        n_expr = draw(st.integers(1, 3))
        clause = []
        for __ in range(n_expr):
            kind = draw(st.sampled_from(["vc", "cv", "vv"]))
            v1 = draw(st.sampled_from(variables))
            if kind == "vc":
                clause.append(var_greater_const(v1[0], v1[1], draw(st.integers(0, 3))))
            elif kind == "cv":
                clause.append(const_greater_var(draw(st.integers(0, 3)), v1[0], v1[1]))
            else:
                v2 = draw(st.sampled_from([v for v in variables if v != v1]))
                from repro.ctable import Expression, Var

                clause.append(Expression(Var(*v1), Var(*v2)))
        clauses.append(clause)
    return Condition.of(clauses)


class TestSubstitutionProperty:
    @given(random_condition(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_substitute_then_evaluate_matches_direct(self, condition, data):
        variables = sorted(condition.variables())
        assignment = {
            v: data.draw(st.integers(0, 3), label=str(v)) for v in variables
        }
        direct = condition.evaluate(assignment)
        reduced = condition
        for variable, value in assignment.items():
            reduced = reduced.substitute(variable, value)
        assert reduced.is_constant
        assert reduced.is_true == direct

    @given(random_condition())
    @settings(max_examples=100, deadline=None)
    def test_canonical_hash_stable_under_clause_shuffle(self, condition):
        if condition.is_constant:
            return
        shuffled = Condition.of(reversed([list(cl) for cl in condition.clauses]))
        assert shuffled == condition
        assert hash(shuffled) == hash(condition)


def reference_simplify(condition, decided):
    """The full rebuild: filter every clause, then :meth:`Condition.of`."""
    clauses = []
    for clause in condition.clauses:
        if any(decided.get(e) is True for e in clause):
            continue
        clauses.append([e for e in clause if decided.get(e) is None])
    return Condition.of(clauses)


def assert_canonical_equal(actual, expected):
    assert actual == expected
    assert actual.clauses == expected.clauses
    assert hash(actual) == hash(expected)


def assert_ids_recounted(condition, table):
    """A rewrite keeps its parent's table, and its id lists equal
    interning its clauses afresh."""
    if condition.is_constant:
        return
    assert condition.expression_table is table
    ids, widths = condition.expression_ids(table)
    fresh_ids, fresh_widths = table.intern_clauses(condition.clauses)
    assert ids == fresh_ids
    assert widths == fresh_widths


class TestOrderPreservingRebuild:
    @given(random_condition(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_simplify_with_equals_full_rebuild(self, condition, data):
        decided = {}
        expressions = sorted(condition.distinct_expressions(), key=Expression.sort_key)
        for expression in expressions:
            truth = data.draw(st.sampled_from([True, False, None]), label=str(expression))
            if truth is not None:
                decided[expression] = truth
        expected = reference_simplify(condition, decided)
        table = ExpressionTable()
        condition.expression_ids(table)
        for out in (condition.simplify_with(decided), condition.simplify_with(decided.get)):
            assert_canonical_equal(out, expected)
            assert_ids_recounted(out, table)

    def test_shortened_clause_merges_with_equal_clause(self):
        c = Condition.of([[E1], [E1, E2], [E3]])
        table = ExpressionTable()
        c.expression_ids(table)
        out = c.simplify_with({E2: False})
        assert_canonical_equal(out, Condition.of([[E1], [E3]]))
        assert out.n_clauses() == 2
        assert_ids_recounted(out, table)

    def test_hand_built_conditions_intern_on_first_sight(self):
        table = ExpressionTable()
        c = Condition.of([[E1, E2], [E3]])
        assert c.expression_table is None
        ids, widths = c.expression_ids(table)
        assert [table.expressions[i] for i in ids] == list(c.expressions())
        assert widths == [len(clause) for clause in c.clauses]
        # a second table re-interns, reusing the ids it already gave out
        other = ExpressionTable()
        Condition.of([[E2]]).expression_ids(other)
        ids = c.expression_ids(other)[0]
        assert [other.expressions[i] for i in ids] == list(c.expressions())
        assert other.expressions[0] == E2 and len(other) == 3
        assert c.expression_table is other
        assert len(table) == 3

    @given(random_condition())
    @settings(max_examples=200, deadline=None)
    def test_components_are_canonical(self, condition):
        parts = condition.connected_components()
        for part in parts:
            assert_canonical_equal(part, Condition.of(part.clauses))
        if len(parts) > 1:
            merged = sorted(
                (clause for part in parts for clause in part.clauses),
                key=lambda clause: [e.sort_key() for e in clause],
            )
            assert tuple(merged) == condition.clauses


class TestAbsorption:
    def test_superset_clause_dropped(self):
        c = Condition.of([[E1], [E1, E2]])
        assert c.absorbed() == Condition.of([[E1]])

    def test_equal_clauses_already_deduped(self):
        c = Condition.of([[E1, E2], [E2, E1]])
        assert c.absorbed() is c  # normalization already collapsed them

    def test_incomparable_clauses_untouched(self):
        c = Condition.of([[E1, E2], [E2, E3]])
        assert c.absorbed() is c

    def test_chain_of_supersets(self):
        c = Condition.of([[E1], [E1, E2], [E1, E2, E3]])
        assert c.absorbed() == Condition.of([[E1]])

    def test_constants_pass_through(self):
        assert Condition.true().absorbed().is_true
        assert Condition.false().absorbed().is_false

    def test_absorption_preserves_semantics(self):
        from hypothesis import given, settings
        # reuse the random_condition strategy defined above
        @given(random_condition(), st.data())
        @settings(max_examples=100, deadline=None)
        def check(condition, data):
            absorbed = condition.absorbed()
            variables = sorted(condition.variables())
            assignment = {
                v: data.draw(st.integers(0, 3), label=str(v)) for v in variables
            }
            assert absorbed.evaluate(assignment) == condition.evaluate(assignment)
        check()


class TestConditionAlgebraProperties:
    """Extra algebraic laws of the condition type."""

    @given(random_condition())
    @settings(max_examples=80, deadline=None)
    def test_simplify_with_oracle_matches_evaluation(self, condition, ):
        """Resolving every expression with a fixed oracle equals evaluating
        under any assignment consistent with that oracle."""
        if condition.is_constant:
            return
        # Oracle: expression true iff its sort_key hash is even (arbitrary
        # but consistent).
        def oracle(e):
            return (hash(e) & 1) == 0

        resolved = condition.simplify_with(oracle)
        assert resolved.is_constant
        # CNF evaluation with the same oracle:
        expected = all(
            any(oracle(e) for e in clause) for clause in condition.clauses
        )
        assert resolved.is_true == expected

    @given(random_condition(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_assign_expression_is_substitution_free(self, condition, data):
        """assign_expression(e, truth) never touches other expressions."""
        if condition.is_constant:
            return
        expressions = sorted(condition.distinct_expressions(), key=lambda e: e.sort_key())
        target = data.draw(st.sampled_from(expressions), label="target")
        truth = data.draw(st.booleans(), label="truth")
        out = condition.assign_expression(target, truth)
        if out.is_constant:
            return
        assert target not in out.distinct_expressions()
        assert out.distinct_expressions() <= condition.distinct_expressions()

    @given(random_condition(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_substitution_order_irrelevant(self, condition, data):
        """Substituting two variables commutes."""
        variables = sorted(condition.variables())
        if len(variables) < 2:
            return
        v1, v2 = variables[0], variables[1]
        a = data.draw(st.integers(0, 3), label="a")
        b = data.draw(st.integers(0, 3), label="b")
        one = condition.substitute(v1, a).substitute(v2, b)
        two = condition.substitute(v2, b).substitute(v1, a)
        assert one == two
