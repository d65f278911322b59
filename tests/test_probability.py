"""Tests for the distribution store and the three probability methods."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctable import (
    Condition,
    Const,
    Expression,
    Relation,
    Var,
    VariableConstraints,
    const_greater_var,
    var_greater_const,
    var_greater_var,
)
from repro.probability import (
    ADPLL,
    DistributionStore,
    EnumerationLimitExceeded,
    ProbabilityEngine,
    adaptive_approx_probability,
    adpll_probability,
    approx_probability,
    naive_probability,
)
from repro.ctable.expression_table import ExpressionTable
from repro.errors import ResourceBudgetError
from repro.probability import adpll as adpll_module
from repro.probability.engine import BOUND_SLACK, INERT_KEYWORDS
from repro.probability.adpll import _hub_probability, _independent_probability

V = (0, 0)
W = (1, 0)
U = (2, 0)


def uniform_store(domain=4, variables=(V, W, U), constraints=None):
    pmf = np.full(domain, 1.0 / domain)
    return DistributionStore({v: pmf.copy() for v in variables}, constraints)


class TestDistributionStore:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            DistributionStore({V: np.array([0.5, 0.4])})

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DistributionStore({V: np.array([1.5, -0.5])})

    @pytest.mark.parametrize(
        "pmf, message",
        [
            (np.array([]), "must be a non-empty vector"),
            (np.full((2, 2), 0.25), "must be a non-empty vector"),
            (np.array([0.5, np.nan, 0.5]), "sums to np.float64(nan), not 1"),
        ],
        ids=["empty", "2d", "nan"],
    )
    def test_rejects_malformed(self, pmf, message):
        with pytest.raises(ValueError) as raised:
            DistributionStore({W: np.full(3, 1 / 3), V: pmf})
        assert str(raised.value) == "pmf of %s %s" % (V, message)

    def test_error_names_first_bad_variable_in_input_order(self):
        good = np.full(4, 0.25)
        negative = np.array([0.5, 0.7, -0.2])  # sums to 1
        unnormalized = np.full(5, 0.3)
        with pytest.raises(ValueError) as raised:
            DistributionStore({V: good, W: negative, U: unnormalized})
        assert str(raised.value) == "pmf of %s has negative entries" % (W,)
        with pytest.raises(ValueError) as raised:
            DistributionStore({V: good, U: unnormalized, W: negative})
        assert str(raised.value) == "pmf of %s sums to %r, not 1" % (
            U, unnormalized.sum(),
        )
        # a shape error raises only when no earlier pmf is bad
        with pytest.raises(ValueError) as raised:
            DistributionStore({U: unnormalized, V: np.array([]), W: negative})
        assert str(raised.value) == "pmf of %s sums to %r, not 1" % (
            U, unnormalized.sum(),
        )
        with pytest.raises(ValueError) as raised:
            DistributionStore({V: np.array([]), U: unnormalized})
        assert str(raised.value) == "pmf of %s must be a non-empty vector" % (V,)

    def test_negative_check_precedes_sum_check(self):
        with pytest.raises(ValueError, match="negative entries"):
            DistributionStore({V: np.array([0.9, -0.5])})

    def test_accepts_lists_and_integers(self):
        store = DistributionStore({V: [0.25, 0.75], W: [0, 1, 0], U: np.array([1])})
        assert store.pmf(V).tolist() == [0.25, 0.75]
        assert store.pmf(W).tolist() == [0.0, 1.0, 0.0]
        assert store.pmf(U).tolist() == [1.0]
        assert all(store.pmf(v).dtype == np.float64 for v in (V, W, U))

    def test_variables_keep_input_order(self):
        order = [(5, 1), V, (3, 2), W, (9, 0), U]
        sizes = [4, 2, 4, 3, 2, 5]
        store = DistributionStore(
            {v: np.full(size, 1 / size) for v, size in zip(order, sizes)}
        )
        assert list(store.variables()) == order

    def test_store_shares_no_array_with_the_caller(self):
        base = {V: np.full(4, 0.25), W: np.full(4, 0.25), U: np.array([0.5, 0.5])}
        store = DistributionStore(base)
        for pmf in base.values():
            pmf[:] = 7.0
        assert store.pmf(V).tolist() == [0.25] * 4
        assert store.pmf(W).tolist() == [0.25] * 4
        assert store.pmf(U).tolist() == [0.5, 0.5]

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_base_pmfs_match_scalar_normalisation_bit_for_bit(self, data):
        sizes = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=12))
        base = {}
        for index, size in enumerate(sizes):
            weights = np.array(
                data.draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size))
            )
            scale = data.draw(st.floats(1 - 1e-7, 1 + 1e-7))
            base[(index, index % 3)] = weights / weights.sum() * scale
        store = DistributionStore(base)
        for variable, pmf in base.items():
            expected = pmf / pmf.sum()
            assert store.pmf(variable).dtype == np.float64
            assert np.array_equal(store.pmf(variable), expected)

    def test_pmf_lookup(self):
        store = uniform_store()
        assert store.pmf(V) == pytest.approx([0.25] * 4)
        with pytest.raises(KeyError):
            store.pmf((9, 9))

    def test_prob_var_greater_const(self):
        store = uniform_store()
        assert store.prob_expression(var_greater_const(0, 0, 1)) == pytest.approx(0.5)
        assert store.prob_expression(var_greater_const(0, 0, 3)) == 0.0

    def test_prob_const_greater_var(self):
        store = uniform_store()
        assert store.prob_expression(const_greater_var(2, 0, 0)) == pytest.approx(0.5)
        assert store.prob_expression(const_greater_var(0, 0, 0)) == 0.0
        assert store.prob_expression(const_greater_var(9, 0, 0)) == pytest.approx(1.0)

    def test_prob_var_greater_var_uniform(self):
        store = uniform_store()
        # P(X > Y) for iid uniform over 4 values: (1 - P(tie)) / 2 = 0.375.
        assert store.prob_expression(var_greater_var(0, 1, 0)) == pytest.approx(0.375)

    def test_prob_var_var_different_domains(self):
        store = DistributionStore(
            {V: np.full(6, 1 / 6), W: np.full(3, 1 / 3)}
        )
        # Brute force check.
        expected = sum(
            (1 / 6) * (1 / 3) for x in range(6) for y in range(3) if x > y
        )
        assert store.prob_expression(var_greater_var(0, 1, 0)) == pytest.approx(expected)

    def test_constraints_restrict_pmf(self):
        constraints = VariableConstraints([4])
        store = uniform_store(constraints=constraints)
        constraints.apply_answer(var_greater_const(0, 0, 1), Relation.GREATER)
        assert store.pmf(V) == pytest.approx([0, 0, 0.5, 0.5])
        assert store.support(V).tolist() == [2, 3]

    def test_expression_cache_respects_constraint_changes(self):
        constraints = VariableConstraints([4])
        store = uniform_store(constraints=constraints)
        e = var_greater_const(0, 0, 1)
        assert store.prob_expression(e) == pytest.approx(0.5)
        constraints.apply_answer(var_greater_const(0, 0, 2), Relation.GREATER)
        assert store.prob_expression(e) == pytest.approx(1.0)

    def test_sample_assignment(self, rng):
        store = uniform_store()
        sample = store.sample_assignment([V, W], rng)
        assert set(sample) == {V, W}
        assert all(0 <= v < 4 for v in sample.values())


class TestNaive:
    def test_constants(self):
        store = uniform_store()
        assert naive_probability(Condition.true(), store) == 1.0
        assert naive_probability(Condition.false(), store) == 0.0

    def test_single_expression(self):
        store = uniform_store()
        c = Condition.of([[var_greater_const(0, 0, 1)]])
        assert naive_probability(c, store) == pytest.approx(0.5)

    def test_enumeration_limit(self):
        store = uniform_store()
        c = Condition.of([[var_greater_var(0, 1, 0), var_greater_var(1, 2, 0)]])
        with pytest.raises(EnumerationLimitExceeded):
            naive_probability(c, store, max_assignments=10)

    def test_paper_example_o5(self, movies_ctable, movies_store):
        assert naive_probability(
            movies_ctable.condition(4), movies_store
        ) == pytest.approx(0.823, abs=5e-4)


class TestADPLL:
    def test_constants(self):
        store = uniform_store()
        assert adpll_probability(Condition.true(), store) == 1.0
        assert adpll_probability(Condition.false(), store) == 0.0

    def test_independent_product_rule(self):
        store = uniform_store()
        c = Condition.of(
            [[var_greater_const(0, 0, 1)], [var_greater_const(1, 0, 0)]]
        )
        assert adpll_probability(c, store) == pytest.approx(0.5 * 0.75)

    def test_disjunctive_rule(self):
        store = uniform_store()
        c = Condition.of([[var_greater_const(0, 0, 1), var_greater_const(1, 0, 1)]])
        assert adpll_probability(c, store) == pytest.approx(1 - 0.5 * 0.5)

    def test_correlated_clauses_branch(self):
        store = uniform_store()
        # Same variable in two clauses: Pr(X>1 and X>2) = Pr(X>2) = 0.25.
        c = Condition.of(
            [[var_greater_const(0, 0, 1)], [var_greater_const(0, 0, 2)]]
        )
        assert adpll_probability(c, store) == pytest.approx(0.25)

    def test_paper_example_o5(self, movies_ctable, movies_store):
        assert adpll_probability(
            movies_ctable.condition(4), movies_store
        ) == pytest.approx(0.823, abs=5e-4)

    def test_ablation_flags_agree(self, movies_ctable, movies_store):
        condition = movies_ctable.condition(4)
        expected = adpll_probability(condition, movies_store)
        for components in (True, False):
            for memo in (True, False):
                value = ADPLL(
                    movies_store, use_components=components, use_memo=memo
                ).probability(condition)
                assert value == pytest.approx(expected)

    def test_branch_counter_advances(self, movies_ctable, movies_store):
        solver = ADPLL(movies_store)
        solver.probability(movies_ctable.condition(4))
        assert solver.branch_count > 0

    def test_memo_respects_constraint_updates(self):
        constraints = VariableConstraints([4])
        store = uniform_store(constraints=constraints)
        solver = ADPLL(store)
        c = Condition.of(
            [[var_greater_const(0, 0, 1)], [var_greater_const(0, 0, 2)]]
        )
        assert solver.probability(c) == pytest.approx(0.25)
        constraints.apply_answer(var_greater_const(0, 0, 2), Relation.GREATER)
        assert solver.probability(c) == pytest.approx(1.0)


class TestApproxCount:
    def test_constants_skip_sampling(self):
        store = uniform_store()
        assert approx_probability(Condition.true(), store).probability == 1.0
        assert approx_probability(Condition.false(), store).probability == 0.0

    def test_converges_to_exact(self, rng):
        store = uniform_store()
        c = Condition.of([[var_greater_var(0, 1, 0)], [var_greater_var(0, 2, 0)]])
        exact = naive_probability(c, store)
        estimate = approx_probability(c, store, n_samples=20_000, rng=rng)
        assert estimate.probability == pytest.approx(exact, abs=0.02)

    def test_interval_contains_estimate(self, rng):
        store = uniform_store()
        c = Condition.of([[var_greater_const(0, 0, 1)]])
        estimate = approx_probability(c, store, n_samples=500, rng=rng)
        lo, hi = estimate.interval()
        assert lo <= estimate.probability <= hi

    def test_adaptive_stops_on_tolerance(self, rng):
        store = uniform_store()
        c = Condition.of([[var_greater_const(0, 0, 1)]])
        estimate = adaptive_approx_probability(
            c, store, tolerance=0.05, batch_size=200, rng=rng
        )
        assert estimate.half_width < 0.05
        assert estimate.n_samples <= 50_000

    def test_rejects_bad_parameters(self, rng):
        store = uniform_store()
        c = Condition.of([[var_greater_const(0, 0, 1)]])
        with pytest.raises(ValueError):
            approx_probability(c, store, n_samples=0)
        with pytest.raises(ValueError):
            adaptive_approx_probability(c, store, tolerance=0.0)

    def test_adaptive_keeps_sampling_on_rare_event(self):
        # Regression: the Wald half-width degenerates to ~1e-7 when the
        # first batch has zero hits, so the loop used to stop at
        # n == batch_size and confidently report Pr = 0 for rare events.
        # The Wilson half-width stays ~0.0038 at 0/500, above tolerance.
        store = uniform_store(domain=10_000, variables=(V,))
        c = Condition.of([[var_greater_const(0, 0, 9998)]])  # Pr = 1e-4
        estimate = adaptive_approx_probability(
            c, store, tolerance=0.002, batch_size=500,
            rng=np.random.default_rng(0),
        )
        assert estimate.n_samples > 500
        assert estimate.half_width > 1e-4
        lo, hi = estimate.interval()
        assert lo <= 1e-4 <= hi

    def test_no_rng_estimates_are_independent(self):
        # Regression: both entry points shared a per-call default_rng(0)
        # fallback, so repeated "independent" estimates were identical.
        store = uniform_store()
        c = Condition.of([[var_greater_const(0, 0, 1)]])  # Pr = 0.5
        fixed = {
            approx_probability(c, store, n_samples=200).probability
            for _ in range(5)
        }
        assert len(fixed) > 1
        adaptive = {
            adaptive_approx_probability(
                c, store, tolerance=0.04, batch_size=200
            ).probability
            for _ in range(5)
        }
        assert len(adaptive) > 1


class TestEngine:
    def test_method_dispatch(self, movies_ctable, movies_store):
        condition = movies_ctable.condition(4)
        for method in ("adpll", "naive"):
            engine = ProbabilityEngine(movies_store, method=method)
            assert engine.probability(condition) == pytest.approx(0.823, abs=5e-4)
        approx_engine = ProbabilityEngine(
            movies_store, method="approx", approx_samples=20_000
        )
        assert approx_engine.probability(condition) == pytest.approx(0.823, abs=0.02)

    def test_unknown_method(self, movies_store):
        with pytest.raises(ValueError):
            ProbabilityEngine(movies_store, method="magic")

    @pytest.mark.parametrize(
        "name, value",
        [
            ("backend", "forest"),
            ("compile_node_budget", 8),
            ("circuit_cache_size", 0),
            ("n_jobs", 2),
        ],
    )
    def test_inert_keywords_accept_only_their_value(self, name, value, movies_store):
        ProbabilityEngine(movies_store, **{name: INERT_KEYWORDS[name]})
        with pytest.raises(ValueError, match=name):
            ProbabilityEngine(movies_store, **{name: value})

    def test_cache_hits(self, movies_ctable, movies_store):
        engine = ProbabilityEngine(movies_store)
        condition = movies_ctable.condition(4)
        engine.probability(condition)
        engine.probability(condition)
        assert engine.n_cache_hits == 1
        assert engine.n_computations == 1

    def test_cache_invalidation_is_selective(self, movies_ctable, movies_store):
        engine = ProbabilityEngine(movies_store)
        c1 = movies_ctable.condition(0)  # only Var(o5, *) variables
        c4 = movies_ctable.condition(3)  # mentions Var(o2, a2) too
        engine.probability(c1)
        engine.probability(c4)
        # Constrain a variable only c4 mentions.
        movies_ctable.constraints.apply_answer(
            var_greater_const(1, 1, 2), Relation.LESS
        )
        engine.probability(c1)  # unaffected -> cache hit
        assert engine.n_cache_hits == 1
        before = engine.n_computations
        engine.probability(c4)  # affected -> recompute
        assert engine.n_computations == before + 1

    def test_callable_interface(self, movies_ctable, movies_store):
        engine = ProbabilityEngine(movies_store)
        assert engine(Condition.true()) == 1.0


# ----------------------------------------------------------------------
# property: ADPLL (all flag combinations) agrees with Naive enumeration
# ----------------------------------------------------------------------
@st.composite
def condition_and_store(draw):
    variables = [(o, 0) for o in range(4)]
    domain = draw(st.integers(2, 4))
    pmfs = {}
    for v in variables:
        weights = np.array(
            [draw(st.integers(1, 5)) for __ in range(domain)], dtype=float
        )
        pmfs[v] = weights / weights.sum()
    n_clauses = draw(st.integers(1, 3))
    clauses = []
    for __ in range(n_clauses):
        clause = []
        for __ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["vc", "cv", "vv"]))
            v1 = draw(st.sampled_from(variables))
            if kind == "vc":
                clause.append(
                    var_greater_const(v1[0], v1[1], draw(st.integers(0, domain - 1)))
                )
            elif kind == "cv":
                clause.append(
                    const_greater_var(draw(st.integers(0, domain - 1)), v1[0], v1[1])
                )
            else:
                v2 = draw(st.sampled_from([v for v in variables if v != v1]))
                clause.append(Expression(Var(*v1), Var(*v2)))
        clauses.append(clause)
    return Condition.of(clauses), DistributionStore(pmfs)


@st.composite
def condition_store_answers(draw):
    """A drawn condition over a constraint-backed store, plus answers.

    Answers are ``Var > c`` facts over the condition's variables, true
    or false, so applying them narrows (or, on a contradiction, resets)
    pmfs between solves.
    """
    condition, plain = draw(condition_and_store())
    domain = len(plain.pmf(V))
    constraints = VariableConstraints([domain])
    store = DistributionStore({v: plain.pmf(v) for v in plain.variables()}, constraints)
    answers = []
    for __ in range(draw(st.integers(0, 3))):
        obj = draw(st.sampled_from(range(4)))
        cut = draw(st.integers(0, domain - 2))
        relation = draw(st.sampled_from([Relation.GREATER, Relation.LESS]))
        answers.append((var_greater_const(obj, 0, cut), relation))
    return condition, store, constraints, answers


def reference_tails(pmf):
    """``(gt, lt)`` of one pmf, by the per-variable suffix/prefix sums."""
    suffix = np.cumsum(pmf[::-1])[::-1]
    return (
        np.concatenate((suffix[1:], (0.0,))),
        np.concatenate(((0.0,), np.cumsum(pmf)[:-1])),
    )


def reference_leaf(store, expression):
    """``Pr(expression)`` read from tails recomputed from the current pmfs."""
    left, right = expression.left, expression.right
    if isinstance(right, Const):
        gt, __ = reference_tails(store.pmf(left.variable))
        c = right.value
        return 0.0 if c >= len(gt) else (float(gt[c]) if c >= 0 else 1.0)
    if isinstance(left, Const):
        __, lt = reference_tails(store.pmf(right.variable))
        c = left.value
        return 0.0 if c <= 0 else (float(lt[c]) if c < len(lt) else 1.0)
    pmf_a = store.pmf(left.variable)
    __, lt_b = reference_tails(store.pmf(right.variable))
    limit = min(len(pmf_a), len(lt_b))
    total = float(pmf_a[:limit] @ lt_b[:limit])
    if len(pmf_a) > len(lt_b):
        total += float(pmf_a[len(lt_b) :].sum())
    return total


def reference_brackets(conditions, probabilities):
    """The dict-based bracket pass: each occurrence's leaf looked up by
    expression, then the same ``reduceat``s as the id path."""
    clauses = [clause for condition in conditions for clause in condition.clauses]
    lengths = np.array([len(clause) for clause in clauses])
    values = np.array([probabilities[e] for clause in clauses for e in clause])
    clause_starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    counts = np.array([len(condition.clauses) for condition in conditions])
    condition_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    totals = np.add.reduceat(values, clause_starts)
    best = np.maximum.reduceat(values, clause_starts)
    hi = np.minimum.reduceat(np.minimum(totals, 1.0), condition_starts)
    missing = np.add.reduceat(1.0 - best, condition_starts)
    lo = np.maximum(0.0, 1.0 - missing) - BOUND_SLACK
    return list(zip(lo.tolist(), (hi + BOUND_SLACK).tolist()))


class TestIdPathReferences:
    @given(condition_store_answers())
    @settings(max_examples=100, deadline=None)
    def test_leaves_and_brackets_match_references(self, drawn):
        """After each answer the id path equals its references bit for bit.

        Every leaf gathered from the dense tails equals
        ``prob_expression`` and a read of tails recomputed from the
        current pmf.  ``bounds_many`` equals the dict-based reference
        pass over ``prob_expression`` values, for a condition whose
        ids index a table the store never saw and for a hand-built copy
        with no ids, which is interned on first sight.
        """
        condition, store, constraints, answers = drawn
        if condition.is_constant:
            return
        engine = ProbabilityEngine(store, use_cache=False)
        condition.expression_ids(ExpressionTable())
        hand_built = Condition.of(condition.clauses)
        assert hand_built.expression_table is None
        leaves = sorted(condition.distinct_expressions(), key=Expression.sort_key)
        for step in range(len(answers) + 1):
            if step:
                constraints.apply_answer(*answers[step - 1])
            ids, __ = store.expressions.intern_clauses([leaves])
            values = store.expression_values(store.expressions, np.array(ids)).tolist()
            assert values == [reference_leaf(store, e) for e in leaves]
            assert values == [store.prob_expression(e) for e in leaves]
            batch = [condition, hand_built, condition]
            probabilities = {e: store.prob_expression(e) for e in leaves}
            reference = reference_brackets(batch, probabilities)
            assert engine.bounds_many(batch) == reference
            assert engine.bounds_many([hand_built]) == reference[:1]


@st.composite
def zero_mass_store_answers(draw):
    """A constraint-backed store whose pmfs have zero cells, plus answers.

    ``Var = c`` pins a variable; an answer whose allowed values carry no
    prior mass sends :meth:`VariableConstraints.constrain_pmf` to its
    uniform fallback.
    """
    domain = draw(st.integers(2, 5))
    pmfs = {}
    for obj in range(4):
        weights = np.array(
            draw(st.lists(st.integers(0, 3), min_size=domain, max_size=domain)),
            dtype=float,
        )
        weights[draw(st.integers(0, domain - 1))] += 1.0
        pmfs[(obj, 0)] = weights / weights.sum()
    answers = [
        (
            var_greater_const(
                draw(st.integers(0, 3)), 0, draw(st.integers(0, domain - 1))
            ),
            draw(st.sampled_from(list(Relation))),
        )
        for __ in range(draw(st.integers(1, 5)))
    ]
    return pmfs, VariableConstraints([domain]), answers


class TestDenseTails:
    @given(zero_mass_store_answers())
    @settings(max_examples=100, deadline=None)
    def test_constrained_rows_refresh(self, drawn):
        """An answer rewrites exactly the rows of the variables it changed:
        each equals a rebuilt store's ``tails()`` and the suffix/prefix
        sums of the constrained pmf; every other row keeps its bytes."""
        pmfs, constraints, answers = drawn
        store = DistributionStore(pmfs, constraints)
        for variable in pmfs:  # the 2-D build equals the per-row sums
            expected = reference_tails(store.pmf(variable))
            assert tuple(t.tobytes() for t in store.tails(variable)) == tuple(
                t.tobytes() for t in expected
            )
        for answer in answers:
            before = {v: tuple(t.tobytes() for t in store.tails(v)) for v in pmfs}
            changed = constraints.apply_answer(*answer)
            rebuilt = DistributionStore(pmfs, constraints)
            for variable in pmfs:
                rows = tuple(t.tobytes() for t in store.tails(variable))
                if variable in changed:
                    assert rows == tuple(t.tobytes() for t in rebuilt.tails(variable))
                    expected = reference_tails(store.pmf(variable))
                    assert rows == tuple(t.tobytes() for t in expected)
                else:
                    assert rows == before[variable]

    def test_pin_to_a_zero_mass_value_falls_back_to_uniform(self):
        constraints = VariableConstraints([4])
        store = DistributionStore({V: np.array([0.5, 0.5, 0.0, 0.0])}, constraints)
        constraints.apply_answer(var_greater_const(0, 0, 1), Relation.GREATER)
        assert store.pmf(V).tolist() == [0.0, 0.0, 0.5, 0.5]
        gt, lt = store.tails(V)
        assert gt.tolist() == [1.0, 1.0, 0.5, 0.0]
        assert lt.tolist() == [0.0, 0.0, 0.0, 0.5]
        constraints.apply_answer(var_greater_const(0, 0, 3), Relation.EQUAL)
        assert store.tails(V)[0].tolist() == [1.0, 1.0, 1.0, 0.0]
        assert store.tails(V)[1].tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_unknown_variable_raises_and_leaves_the_store_usable(self):
        store = DistributionStore({V: np.array([0.25, 0.75])})
        table = store.expressions

        def read(*expressions):
            ids, __ = table.intern_clauses([expressions])
            return store.expression_values(table, np.array(ids, dtype=np.int64))

        assert read().tolist() == []
        with pytest.raises(KeyError, match="no distribution"):
            read(var_greater_const(*W, 0))
        # the unknown expression stays interned; other reads still work
        assert read(var_greater_const(*V, 0)).tolist() == [0.75]


class TestADPLLAgreesWithNaive:
    @given(condition_and_store())
    @settings(max_examples=150, deadline=None)
    def test_probabilities_match(self, pair):
        condition, store = pair
        exact = naive_probability(condition, store)
        assert adpll_probability(condition, store) == pytest.approx(exact, abs=1e-9)

    @given(condition_and_store())
    @settings(max_examples=60, deadline=None)
    def test_faithful_algorithm3_matches(self, pair):
        """The paper's plain Algorithm 3 (no components, no memo) is exact too."""
        condition, store = pair
        exact = naive_probability(condition, store)
        value = ADPLL(store, use_components=False, use_memo=False).probability(condition)
        assert value == pytest.approx(exact, abs=1e-9)

    @given(condition_store_answers())
    @settings(max_examples=100, deadline=None)
    def test_answer_sequences_match(self, drawn):
        """After each answer, every exact path still equals Naive.

        One solver and one engine live across the answers, so the ADPLL
        memo and the engine's version-checked cache must follow the
        store; the second ``probability_many`` call is served from that
        cache.  The bracket is read before the solve: a Boole/Frechet
        bracket, or the cached exact pair when the answer left the
        condition's variables alone.  A cached pair is the solver's value,
        so it holds Naive only to within :data:`BOUND_SLACK`.
        """
        condition, store, constraints, answers = drawn
        if condition.is_constant:
            return
        solver = ADPLL(store)
        engine = ProbabilityEngine(store)
        expressions = sorted(condition.distinct_expressions(), key=Expression.sort_key)
        for step in range(len(answers) + 1):
            if step:
                constraints.apply_answer(*answers[step - 1])
            exact = naive_probability(condition, store)
            (lo, hi), = engine.bounds_many([condition])
            if lo == hi:
                assert lo - BOUND_SLACK <= exact <= hi + BOUND_SLACK
            else:
                assert lo <= exact <= hi
            assert solver.probability(condition) == pytest.approx(exact, abs=1e-9)
            for __ in range(2):
                (value,) = engine.probability_many([condition])
                assert value == pytest.approx(exact, abs=1e-9)
                assert lo <= value <= hi
            branches = engine.branch_probabilities(condition, expressions)
            for expression, (p_true, p_false) in branches.items():
                for truth, value in ((True, p_true), (False, p_false)):
                    residual = condition.assign_expression(expression, truth)
                    assert value == pytest.approx(
                        naive_probability(residual, store), abs=1e-9
                    )


class TestBranchHeuristics:
    @pytest.mark.parametrize("heuristic", ["frequency", "min_domain", "first"])
    def test_all_heuristics_exact(self, heuristic, movies_ctable, movies_store):
        solver = ADPLL(movies_store, branch_heuristic=heuristic)
        assert solver.probability(movies_ctable.condition(4)) == pytest.approx(
            0.823, abs=5e-4
        )

    def test_unknown_heuristic_rejected(self, movies_store):
        with pytest.raises(ValueError):
            ADPLL(movies_store, branch_heuristic="magic")

    def test_absorption_flag_exact(self, movies_ctable, movies_store):
        solver = ADPLL(movies_store, use_absorption=True)
        assert solver.probability(movies_ctable.condition(4)) == pytest.approx(
            0.823, abs=5e-4
        )

    @given(condition_and_store())
    @settings(max_examples=60, deadline=None)
    def test_heuristics_agree_with_naive(self, pair):
        condition, store = pair
        exact = naive_probability(condition, store)
        for heuristic in ("frequency", "min_domain", "first"):
            value = ADPLL(
                store, branch_heuristic=heuristic, use_absorption=True
            ).probability(condition)
            assert value == pytest.approx(exact, abs=1e-9)


class TestCacheVersionRefresh:
    """Regression: revalidated cache entries must refresh their stored version.

    A cache entry surviving a ``variables_unchanged_since`` scan used to keep
    its original version, so every later hit at the new store version re-paid
    the per-variable scan.  After the fix the first revalidation writes the
    current version back and subsequent hits take the version-equality fast
    path -- observable as the scan count staying flat.
    """

    def counting_store(self, domain=4):
        constraints = VariableConstraints([domain])
        store = uniform_store(domain=domain, constraints=constraints)
        calls = []
        original = store.variables_unchanged_since

        def counted(variables, version):
            calls.append(tuple(variables))
            return original(variables, version)

        store.variables_unchanged_since = counted
        return store, constraints, calls

    def test_engine_cache_refreshes_version_after_scan(self):
        store, constraints, calls = self.counting_store()
        engine = ProbabilityEngine(store)
        condition = Condition.of([[var_greater_const(0, 0, 1)]])
        engine.probability(condition)
        # constrain an UNRELATED variable: version moves, pmfs of V don't
        constraints.apply_answer(var_greater_const(2, 0, 1), Relation.GREATER)
        calls.clear()
        engine.probability(condition)  # stale version -> one revalidation scan
        scans_first_hit = len(calls)
        assert scans_first_hit >= 1
        engine.probability(condition)  # refreshed version -> no further scan
        assert len(calls) == scans_first_hit
        assert engine.n_cache_hits == 2

    def test_adpll_memo_refreshes_version_after_scan(self):
        store, constraints, calls = self.counting_store()
        solver = ADPLL(store)
        condition = Condition.of(
            [
                [var_greater_var(0, 1, 0), var_greater_const(2, 0, 1)],
                [var_greater_var(1, 0, 0)],
            ]
        )
        solver.probability(condition)
        constraints.apply_answer(var_greater_const(3, 0, 1), Relation.GREATER)
        calls.clear()
        solver.probability(condition)  # revalidates memo entries once
        scans_first = len(calls)
        calls.clear()
        solver.probability(condition)  # versions refreshed -> fewer scans
        assert len(calls) < max(scans_first, 1)

    def test_distribution_caches_refresh_version(self):
        constraints = VariableConstraints([4])
        store = uniform_store(constraints=constraints)
        expression = var_greater_const(0, 0, 1)
        store.pmf(V)
        store.prob_expression(expression)
        constraints.apply_answer(var_greater_const(2, 0, 1), Relation.GREATER)
        # revalidate once at the new version...
        store.pmf(V)
        store.prob_expression(expression)
        # ...then the cached entries must carry the current version
        assert store._pmf_cache[V][1] == store.version
        assert store._expr_cache[expression][1] == store.version


class TestADPLLMemoInvalidation:
    """Regression: memo entries must not survive store mutation mid-run."""

    def test_answer_between_calls_changes_result(self):
        constraints = VariableConstraints([4])
        store = uniform_store(constraints=constraints)
        solver = ADPLL(store)
        condition = Condition.of(
            [
                [var_greater_var(0, 1, 0), var_greater_const(2, 0, 2)],
                [var_greater_var(1, 2, 0)],
            ]
        )
        before = solver.probability(condition)
        assert before == pytest.approx(naive_probability(condition, store), abs=1e-9)
        constraints.apply_answer(var_greater_const(0, 0, 2), Relation.GREATER)
        after = solver.probability(condition)
        assert after == pytest.approx(naive_probability(condition, store), abs=1e-9)
        assert abs(after - before) > 0.05

    def test_repeated_answers_keep_memo_exact(self):
        constraints = VariableConstraints([4])
        store = uniform_store(constraints=constraints)
        solver = ADPLL(store)
        condition = Condition.of(
            [
                [var_greater_var(0, 1, 0), var_greater_var(1, 2, 0)],
                [var_greater_const(0, 0, 1), var_greater_const(2, 0, 1)],
            ]
        )
        answers = [
            (var_greater_const(0, 0, 0), Relation.GREATER),
            (var_greater_const(2, 0, 2), Relation.LESS),
            (var_greater_const(1, 0, 1), Relation.GREATER),
        ]
        for expression, relation in answers:
            constraints.apply_answer(expression, relation)
            assert solver.probability(condition) == pytest.approx(
                naive_probability(condition, store), abs=1e-9
            )


class TestIndependentProbabilityPrecision:
    """The independent-clause product must survive tiny probabilities.

    A naive ``1 - prod(1 - p)`` loses all significant digits once ``p``
    drops near machine epsilon; the solver accumulates in log space
    (``log1p``/``expm1``/``fsum``), so results stay relatively accurate.
    The exact reference is computed in ``fractions.Fraction`` arithmetic.
    Comparisons pass ``abs=0``: ``pytest.approx``'s default absolute
    tolerance of 1e-12 would accept any answer this small.
    """

    def tiny_store(self, eps, n_vars):
        pmf = np.array([1.0 - eps, eps])
        pmf /= pmf.sum()
        return DistributionStore({(o, 0): pmf.copy() for o in range(n_vars)})

    def exact_fraction(self, store, clauses):
        from fractions import Fraction

        total = Fraction(1)
        for clause in clauses:
            none_true = Fraction(1)
            for expression in clause:
                p = store.prob_expression(expression)
                none_true *= Fraction(1) - Fraction(p)
            total *= Fraction(1) - none_true
        return total

    @pytest.mark.parametrize("eps", [1e-9, 1e-12, 1e-15])
    def test_wide_clause_tiny_probabilities(self, eps):
        n_vars = 8
        store = self.tiny_store(eps, n_vars)
        clause = [var_greater_const(o, 0, 0) for o in range(n_vars)]
        condition = Condition.of([clause])
        exact = self.exact_fraction(store, [clause])
        value = adpll_probability(condition, store)
        assert exact > 0
        assert value == pytest.approx(float(exact), rel=1e-9, abs=0)

    def test_many_independent_clauses(self):
        n_vars = 12
        store = self.tiny_store(1e-7, n_vars)
        clauses = [
            [var_greater_const(o, 0, 0) for o in range(start, start + 4)]
            for start in (0, 4, 8)
        ]
        condition = Condition.of(clauses)
        exact = self.exact_fraction(store, clauses)
        value = adpll_probability(condition, store)
        assert value == pytest.approx(float(exact), rel=1e-9, abs=0)

    @given(
        st.floats(min_value=1e-15, max_value=0.5),
        st.integers(2, 10),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_against_fraction_reference(self, eps, n_vars):
        store = self.tiny_store(eps, n_vars)
        clause = [var_greater_const(o, 0, 0) for o in range(n_vars)]
        condition = Condition.of([clause])
        exact = self.exact_fraction(store, [clause])
        value = adpll_probability(condition, store)
        assert value == pytest.approx(float(exact), rel=1e-9, abs=0)

    def test_certain_expression_short_circuits(self):
        # p == 1.0 inside a clause must not reach log1p(-1)
        pmf = np.array([0.0, 1.0])
        store = DistributionStore({V: pmf, W: np.array([0.5, 0.5])})
        condition = Condition.of([[var_greater_const(0, 0, 0)]])
        assert adpll_probability(condition, store) == 1.0


# ----------------------------------------------------------------------
# the hub kernel: one branch over a variable shared by variable-disjoint
# residuals, evaluated without building the residuals
# ----------------------------------------------------------------------
HUB = (0, 1)


def substitute_loop(condition, hub, store):
    """The per-value reference: build each residual, then apply the
    independent-clause rules to it (the recursion the kernel replaces)."""
    pmf = store.pmf(hub)
    total = 0.0
    for value in store.support(hub).tolist():
        residual = condition.substitute(hub, value)
        if residual.is_constant:
            p = 1.0 if residual.is_true else 0.0
        else:
            assert residual.is_variable_disjoint()
            p = _independent_probability(residual, store)
        total += float(pmf[value]) * p
    return total


def hub_kernel(condition, hub, store):
    support = store.support(hub)
    return _hub_probability(
        condition, hub, support.tolist(), store.pmf(hub)[support].tolist(), store
    )


@st.composite
def hub_condition_and_store(draw):
    """A condition in which every variable but ``HUB`` occurs exactly once.

    The hub (attribute 1) sits on either side of var-const and var-var
    expressions; its partners and the non-hub variables (attribute 0)
    have domains smaller and larger than the hub's and pmfs with zero
    cells; out-of-domain constants give non-hub expressions with p = 1
    and p = 0; clauses of hub-vs-constant expressions alone are emptied
    by some values; an optional crowd answer narrows the hub's support.
    """
    hub_domain = draw(st.integers(2, 4))

    def pmf(size):
        weights = draw(
            st.lists(st.integers(0, 4), min_size=size, max_size=size).filter(any)
        )
        weights = np.array(weights, dtype=float)
        return weights / weights.sum()

    pmfs = {HUB: pmf(hub_domain)}
    fresh_left = [4]  # bounds the naive enumeration

    def fresh():
        variable = (len(pmfs), 0)
        pmfs[variable] = pmf(draw(st.integers(1, hub_domain + 2)))
        fresh_left[0] -= 1
        return variable

    kinds = ["hub>c", "c>hub", "hub>y", "y>hub", "z>c", "c>z", "z>w"]
    clauses = []
    for __ in range(draw(st.integers(1, 4))):
        clause = []
        for __ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(kinds if fresh_left[0] >= 2 else kinds[:2]))
            if kind == "hub>c":
                c = draw(st.integers(-1, hub_domain))
                clause.append(Expression(Var(*HUB), Const(c)))
            elif kind == "c>hub":
                c = draw(st.integers(0, hub_domain + 1))
                clause.append(Expression(Const(c), Var(*HUB)))
            elif kind == "hub>y":
                clause.append(Expression(Var(*HUB), Var(*fresh())))
            elif kind == "y>hub":
                clause.append(Expression(Var(*fresh()), Var(*HUB)))
            elif kind == "z>c":
                z = fresh()
                c = draw(st.integers(-1, len(pmfs[z])))
                clause.append(Expression(Var(*z), Const(c)))
            elif kind == "c>z":
                z = fresh()
                c = draw(st.integers(0, len(pmfs[z]) + 1))
                clause.append(Expression(Const(c), Var(*z)))
            else:
                clause.append(Expression(Var(*fresh()), Var(*fresh())))
        clauses.append(clause)
    constraints = VariableConstraints([hub_domain + 2, hub_domain])
    if draw(st.booleans()):
        c = draw(st.integers(0, hub_domain - 1))
        relation = draw(st.sampled_from([Relation.GREATER, Relation.LESS]))
        constraints.apply_answer(var_greater_const(HUB[0], HUB[1], c), relation)
    return Condition.of(clauses), DistributionStore(pmfs, constraints)


class TestHubKernel:
    @given(hub_condition_and_store())
    @settings(max_examples=200, deadline=None)
    def test_matches_substitute_loop_and_naive(self, pair):
        condition, store = pair
        if condition.is_constant or HUB not in condition.variables():
            return
        value = hub_kernel(condition, HUB, store)
        assert value == pytest.approx(substitute_loop(condition, HUB, store), abs=1e-12)
        exact = naive_probability(condition, store)
        assert value == pytest.approx(exact, abs=1e-9)
        assert ADPLL(store).probability(condition) == pytest.approx(exact, abs=1e-9)

    def test_certain_and_impossible_clauses(self):
        # (hub > 1) alone is emptied for hub in {0, 1}; (z > -1) is certain
        store = uniform_store(domain=4, variables=(HUB, V, W))
        condition = Condition.of(
            [
                [Expression(Var(*HUB), Const(1))],
                [Expression(Var(*V), Const(-1)), Expression(Const(3), Var(*HUB))],
                [Expression(Var(*W), Var(*HUB))],
            ]
        )
        expected = naive_probability(condition, store)
        assert hub_kernel(condition, HUB, store) == pytest.approx(expected, abs=1e-15)
        assert ADPLL(store).probability(condition) == pytest.approx(expected, abs=1e-15)

    def test_tails_match_expression_probabilities(self):
        store = DistributionStore({V: np.array([0.1, 0.2, 0.3, 0.4])})
        gt, lt = store.tails(V)
        for c in range(4):
            assert gt[c] == store.prob_expression(var_greater_const(0, 0, c))
            assert lt[c] == store.prob_expression(const_greater_var(c, 0, 0))


class TestHubKernelPrecision:
    """The kernel keeps the log-space accuracy of the independent rules.

    Wide clauses of tiny-probability expressions, some of them over the
    hub's partners, against the exact ``Fraction`` sum over hub values
    (the helpers of :class:`TestIndependentProbabilityPrecision`).
    """

    reference = TestIndependentProbabilityPrecision()

    def hub_store(self, eps, n_vars):
        store = self.reference.tiny_store(eps, n_vars)
        pmfs = {v: store.pmf(v) for v in store.variables()}
        pmfs[HUB] = np.array([0.25, 0.75])
        return DistributionStore(pmfs)

    def hub_condition(self, n_vars):
        # hub = 0: both clauses are wide ors of tiny probabilities, the
        # second over the hub's partners (Pr(z > 0) = eps); hub = 1 makes
        # the first clause certain and empties the second
        half = n_vars // 2
        return Condition.of(
            [
                [var_greater_const(o, 0, 0) for o in range(half)]
                + [Expression(Var(*HUB), Const(0))],
                [Expression(Var(o, 0), Var(*HUB)) for o in range(half, n_vars)],
            ]
        )

    def exact_hub_fraction(self, store, condition):
        total = Fraction(0)
        pmf = store.pmf(HUB)
        for value in (0, 1):
            residual = condition.substitute(HUB, value)
            if residual.is_false:
                continue
            clauses = [] if residual.is_true else residual.clauses
            total += Fraction(float(pmf[value])) * self.reference.exact_fraction(
                store, clauses
            )
        return total

    @pytest.mark.parametrize("eps", [1e-9, 1e-12, 1e-15])
    def test_wide_hub_clauses_tiny_probabilities(self, eps):
        store = self.hub_store(eps, 16)
        condition = self.hub_condition(16)
        exact = self.exact_hub_fraction(store, condition)
        assert 0 < exact < Fraction(1, 10**12)
        value = hub_kernel(condition, HUB, store)
        assert value == pytest.approx(float(exact), rel=1e-9, abs=0)
        assert adpll_probability(condition, store) == pytest.approx(
            float(exact), rel=1e-9, abs=0
        )

    @given(
        st.floats(min_value=1e-15, max_value=0.5),
        st.integers(4, 20),
    )
    @settings(max_examples=80, deadline=None)
    def test_hub_property_against_fraction_reference(self, eps, n_vars):
        store = self.hub_store(eps, n_vars)
        condition = self.hub_condition(n_vars)
        exact = self.exact_hub_fraction(store, condition)
        value = hub_kernel(condition, HUB, store)
        assert value == pytest.approx(float(exact), rel=1e-9, abs=0)


def two_hub_store(hub_support=3):
    """Hubs ``HUB`` and ``(9, 1)``, each narrowed to ``hub_support`` of 4 values."""
    constraints = VariableConstraints([4, 4])
    for hub in (HUB, (9, 1)):
        constraints.apply_answer(
            var_greater_const(hub[0], hub[1], 3 - hub_support), Relation.GREATER
        )
    return uniform_store(
        domain=4, variables=[HUB, (9, 1)] + [(o, 0) for o in range(1, 7)],
        constraints=constraints,
    )


def hub_clauses(hub, partners):
    return [
        [Expression(Var(*hub), Const(1)), Expression(Var(*partners[0]), Var(*hub))],
        [Expression(Const(2), Var(*hub)), Expression(Var(*partners[1]), Const(1))],
        [Expression(Var(*hub), Var(*partners[2]))],
    ]


class TestHubKernelGuards:
    """Guards are checked at branch entry and count one node per value."""

    def test_branch_count_is_support_size(self):
        store = two_hub_store(hub_support=3)
        condition = Condition.of(hub_clauses(HUB, [(1, 0), (2, 0), (3, 0)]))
        solver = ADPLL(store)
        solver.probability(condition)
        assert solver.branch_count == len(store.support(HUB)) == 3
        # two independent hub components: one branch each
        both = Condition.of(
            hub_clauses(HUB, [(1, 0), (2, 0), (3, 0)])
            + hub_clauses((9, 1), [(4, 0), (5, 0), (6, 0)])
        )
        solver = ADPLL(store)
        solver.probability(both)
        assert solver.branch_count == 6

    def test_budget_below_count_trips_and_memo_stays_clean(self):
        store = two_hub_store(hub_support=3)
        both = Condition.of(
            hub_clauses(HUB, [(1, 0), (2, 0), (3, 0)])
            + hub_clauses((9, 1), [(4, 0), (5, 0), (6, 0)])
        )
        solver = ADPLL(store, node_budget=3)
        with pytest.raises(ResourceBudgetError):
            solver.probability(both)
        assert solver.guard_trips == 1
        assert both not in solver._memo
        # every entry left behind is a completed hub component, not a residual
        assert all(
            HUB in c.variables() or (9, 1) in c.variables() for c in solver._memo
        )
        solver.node_budget = 0
        assert solver.probability(both) == ADPLL(store).probability(both)

    def test_guarded_matches_unguarded_bitwise(self):
        store = two_hub_store(hub_support=4)
        both = Condition.of(
            hub_clauses(HUB, [(1, 0), (2, 0), (3, 0)])
            + hub_clauses((9, 1), [(4, 0), (5, 0), (6, 0)])
        )
        plain = ADPLL(store).probability(both)
        guarded = ADPLL(store, node_budget=10**9, deadline_s=3600.0).probability(both)
        assert guarded == plain
        faithful = ADPLL(store, use_components=False, use_memo=False)
        assert faithful.probability(both) == pytest.approx(plain, abs=1e-12)

    def spy_hubs(self, monkeypatch):
        calls = []

        def spy(condition, hub, values, weights, store):
            calls.append((condition, hub))
            return _hub_probability(condition, hub, values, weights, store)

        monkeypatch.setattr(adpll_module, "_hub_probability", spy)
        return calls

    def test_two_shared_variables_recurse(self, monkeypatch):
        # HUB is in every clause, (1, 0) in two: the first branch (on HUB)
        # must substitute; its residuals share (1, 0) and hit the kernel.
        store = two_hub_store(hub_support=4)
        condition = Condition.of(
            [
                [Expression(Var(*HUB), Const(1)), Expression(Var(1, 0), Const(2))],
                [Expression(Var(*HUB), Var(2, 0)), Expression(Const(2), Var(1, 0))],
                [Expression(Var(3, 0), Var(*HUB)), Expression(Var(1, 0), Var(4, 0))],
            ]
        )
        calls = self.spy_hubs(monkeypatch)
        value = ADPLL(store).probability(condition)
        assert calls and all(c != condition and hub == (1, 0) for c, hub in calls)
        assert value == pytest.approx(naive_probability(condition, store), abs=1e-12)

    def test_first_heuristic_on_unshared_variable_recurses(self, monkeypatch):
        # "first" picks (1, 0) over the hub (9, 1); (1, 0) occurs once, so
        # the branch substitutes
        store = two_hub_store(hub_support=4)
        condition = Condition.of(hub_clauses((9, 1), [(1, 0), (2, 0), (3, 0)]))
        calls = self.spy_hubs(monkeypatch)
        value = ADPLL(store, branch_heuristic="first").probability(condition)
        assert all(c != condition for c, __ in calls)
        assert value == pytest.approx(naive_probability(condition, store), abs=1e-12)


# ----------------------------------------------------------------------
# the branch kernel: every candidate's Pr(phi[e:=T]) and Pr(phi[e:=F])
# from one pass over the condition
# ----------------------------------------------------------------------
def covered_expressions(condition):
    """Expressions whose component has at most one repeated variable."""
    covered = set()
    for component in condition.connected_components():
        counts = component.variable_counts()
        if sum(1 for count in counts.values() if count > 1) <= 1:
            covered.update(component.distinct_expressions())
    return covered


@st.composite
def multi_component_condition(draw):
    """Disjoint, hub and two-shared-variable components side by side.

    Hubs (attribute 1) sit on both sides of var-const and var-var
    expressions, and one hub-vs-constant expression repeats across the
    hub component's clauses.  Unit clauses let ``e := F`` empty a
    clause; a candidate in every clause of its component lets ``e := T``
    drop it.  Out-of-domain constants give p = 1 and p = 0, pmfs have
    zero cells, and an optional crowd answer narrows the hub's support.
    """
    domain = draw(st.integers(2, 3))
    pmfs = {}
    fresh_left = [6]  # bounds the naive enumeration

    def pmf(size):
        weights = draw(
            st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(any)
        )
        weights = np.array(weights, dtype=float)
        return weights / weights.sum()

    def fresh():
        variable = (len(pmfs), 0)
        pmfs[variable] = pmf(draw(st.integers(1, domain + 1)))
        fresh_left[0] -= 1
        return variable

    def var_const(variable, size):
        if draw(st.booleans()):
            return Expression(Var(*variable), Const(draw(st.integers(-1, size))))
        return Expression(Const(draw(st.integers(0, size + 1))), Var(*variable))

    clauses = []
    hub = (len(pmfs), 1)
    pmfs[hub] = pmf(domain)
    repeated = var_const(hub, domain)
    for __ in range(draw(st.integers(1, 3))):
        clause = []
        for __ in range(draw(st.integers(1, 3))):
            kinds = ["repeated", "hub-const"]
            if fresh_left[0] > 2:
                kinds += ["hub>y", "y>hub", "z-const"]
            kind = draw(st.sampled_from(kinds))
            if kind == "repeated":
                clause.append(repeated)
            elif kind == "hub-const":
                clause.append(var_const(hub, domain))
            elif kind == "hub>y":
                clause.append(Expression(Var(*hub), Var(*fresh())))
            elif kind == "y>hub":
                clause.append(Expression(Var(*fresh()), Var(*hub)))
            else:
                z = fresh()
                clause.append(var_const(z, len(pmfs[z])))
        clauses.append(clause)
    for __ in range(draw(st.integers(0, 2))):  # disjoint, often unit clauses
        if fresh_left[0] > 2:
            z = fresh()
            clause = [var_const(z, len(pmfs[z]))]
            if draw(st.booleans()):
                clause.append(Expression(Var(*fresh()), Var(*fresh())))
            clauses.append(clause)
    if draw(st.booleans()):  # two shared variables: not covered
        a, b = (len(pmfs), 1), (len(pmfs) + 1, 1)
        pmfs[a], pmfs[b] = pmf(domain), pmf(domain)
        clauses.append([Expression(Var(*a), Var(*b))])
        clauses.append([var_const(a, domain), var_const(b, domain)])
    if draw(st.booleans()):  # a unit clause in the hub component
        clauses.append([draw(st.sampled_from([repeated, var_const(hub, domain)]))])
    constraints = VariableConstraints([domain + 1, domain])
    if draw(st.booleans()):
        c = draw(st.integers(0, domain - 2))
        relation = draw(st.sampled_from([Relation.GREATER, Relation.LESS]))
        constraints.apply_answer(var_greater_const(hub[0], hub[1], c), relation)
    return Condition.of(clauses), DistributionStore(pmfs, constraints)


class TestBranchKernel:
    @given(multi_component_condition())
    @settings(max_examples=200, deadline=None)
    def test_matches_residual_solves_and_naive(self, pair):
        condition, store = pair
        if condition.is_constant:
            return
        expressions = sorted(condition.distinct_expressions(), key=Expression.sort_key)
        branches = ADPLL(store).branch_probabilities(condition, expressions)
        assert set(branches) == covered_expressions(condition)
        for expression, (p_true, p_false) in branches.items():
            for truth, value in ((True, p_true), (False, p_false)):
                residual = condition.assign_expression(expression, truth)
                assert value == pytest.approx(
                    ADPLL(store).probability(residual), abs=1e-12
                )
                assert value == pytest.approx(
                    naive_probability(residual, store), abs=1e-9
                )

    def test_dropped_component_is_exactly_one_and_emptied_clause_zero(self):
        store = uniform_store(domain=4, variables=(HUB, V, W, U))
        unit = Expression(Var(*V), Const(1))
        repeated = Expression(Var(*HUB), Const(2))
        condition = Condition.of(
            [
                [unit],
                [repeated, Expression(Var(*W), Var(*HUB))],
                [repeated, Expression(Const(1), Var(*HUB))],
                [repeated, Expression(Var(*U), Const(0))],
            ]
        )
        branches = ADPLL(store).branch_probabilities(condition, [unit, repeated])
        hub_part = Condition.of(c for c in condition.clauses if unit not in c)
        assert branches[unit][0] == pytest.approx(
            ADPLL(store).probability(hub_part), abs=1e-15
        )
        assert branches[unit][1] == 0.0
        # repeated := T drops its whole component: the unit clause is left
        assert branches[repeated][0] == pytest.approx(0.5, abs=1e-15)

    def test_only_requested_covered_candidates(self):
        store = uniform_store(domain=4, variables=(V, W, U, HUB))
        hub_e = Expression(Var(*HUB), Const(1))
        condition = Condition.of(
            [
                [Expression(Var(*V), Var(*W))],
                [Expression(Var(*V), Const(2)), Expression(Const(1), Var(*W))],
                [hub_e, Expression(Var(*U), Const(0))],
            ]
        )
        solver = ADPLL(store)
        pair_e = condition.clauses[0][0]
        assert solver.branch_probabilities(condition, [pair_e]) == {}
        assert set(solver.branch_probabilities(condition, [pair_e, hub_e])) == {hub_e}
