"""Tests for the circuit-forest probability backend's compiler.

Covers the compiler itself (parity with ADPLL and naive enumeration
under generated conditions and answer sequences, circuit structure
invariants, node-budget enforcement), incremental re-weighting and
sharing inside ``CircuitForest`` (propagate-not-recompile, recompile
attribution, eviction, budget rollback), and the engine integration
(``backend="forest"`` ladder through the compile breaker down to
ADPLL/sampling, counters, config knobs, obs verification).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BayesCrowd, BayesCrowdConfig
from repro.ctable import (
    Condition,
    Expression,
    Relation,
    Var,
    VariableConstraints,
    const_greater_var,
    var_greater_const,
    var_greater_var,
)
from repro.datasets import generate_nba
from repro.errors import ResourceBudgetError
from repro.obs.__main__ import verify_probability
from repro.probability import (
    ADPLL,
    DEFAULT_CIRCUIT_CACHE_SIZE,
    DEFAULT_COMPILE_NODE_BUDGET,
    CircuitForest,
    DistributionStore,
    ProbabilityEngine,
    naive_probability,
)
from repro.probability.forest import NODE_LEAF_SET

V, W, U = (0, 0), (1, 0), (2, 0)


def uniform_store(domain=4, variables=(V, W, U), constraints=None):
    pmf = np.full(domain, 1.0 / domain)
    return DistributionStore({v: pmf.copy() for v in variables}, constraints)


def branching_condition():
    """Clauses sharing variables, so compilation needs decision nodes."""
    return Condition.of(
        [
            [var_greater_var(0, 1, 0), var_greater_const(2, 0, 1)],
            [var_greater_var(1, 2, 0), const_greater_var(2, 0, 0)],
            [var_greater_var(0, 2, 0)],
        ]
    )


# ----------------------------------------------------------------------
# hypothesis strategy: condition + constrained store + answer sequence
# ----------------------------------------------------------------------
@st.composite
def condition_store_answers(draw):
    """A condition, a constraint-backed store, and weight-moving answers.

    Answers are drawn as ``Var > c`` facts over the condition's own
    variables (true or false), so applying them narrows pmfs -- the
    re-weighting workload the forest backend exists for.
    """
    domain = draw(st.integers(2, 4))
    variables = [(o, 0) for o in range(4)]
    pmfs = {}
    for v in variables:
        weights = np.array(
            [draw(st.integers(1, 5)) for __ in range(domain)], dtype=float
        )
        pmfs[v] = weights / weights.sum()
    clauses = []
    for __ in range(draw(st.integers(1, 3))):
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
    condition = Condition.of(clauses)
    answers = []
    for __ in range(draw(st.integers(0, 3))):
        obj = draw(st.sampled_from(range(4)))
        cut = draw(st.integers(0, domain - 2))
        relation = draw(st.sampled_from([Relation.GREATER, Relation.LESS]))
        answers.append((var_greater_const(obj, 0, cut), relation))
    constraints = VariableConstraints([domain])
    store = DistributionStore(pmfs, constraints)
    return condition, store, constraints, answers


class TestCompileParity:
    @given(condition_store_answers())
    @settings(max_examples=150, deadline=None)
    def test_compiled_matches_adpll_and_naive(self, drawn):
        condition, store, constraints, answers = drawn
        if condition.is_constant:
            return
        exact = naive_probability(condition, store)
        assert ADPLL(store).probability(condition) == pytest.approx(exact, abs=1e-9)
        assert CircuitForest(store).probability(condition) == pytest.approx(
            exact, abs=1e-9
        )

    @given(condition_store_answers())
    @settings(max_examples=100, deadline=None)
    def test_propagate_tracks_answer_sequences(self, drawn):
        """One compile, then re-weight per answer: always matches naive."""
        condition, store, constraints, answers = drawn
        if condition.is_constant:
            return
        forest = CircuitForest(store)
        forest.probability(condition)
        for expression, relation in answers:
            try:
                constraints.apply_answer(expression, relation)
            except ValueError:
                continue  # contradicting answer sequence; constraints refuse
            exact = naive_probability(condition, store)
            assert forest.probability(condition) == pytest.approx(exact, abs=1e-9)
            # a fresh ADPLL sees the same weights
            assert ADPLL(store).probability(condition) == pytest.approx(
                exact, abs=1e-9
            )
        assert forest.stats()["circuits_compiled"] == 1

    @pytest.mark.parametrize("heuristic", ["frequency", "min_domain", "first"])
    def test_all_branch_heuristics_exact(self, heuristic):
        store = uniform_store()
        condition = branching_condition()
        exact = naive_probability(condition, store)
        forest = CircuitForest(store, heuristic=heuristic)
        assert forest.probability(condition) == pytest.approx(exact, abs=1e-9)
        assert ADPLL(store, branch_heuristic=heuristic).probability(
            condition
        ) == pytest.approx(exact, abs=1e-9)

    def test_unsmoothed_circuit_same_probability(self):
        store = uniform_store()
        condition = branching_condition()
        smoothed = CircuitForest(store, smooth=True)
        plain = CircuitForest(store, smooth=False)
        assert smoothed.probability(condition) == pytest.approx(
            plain.probability(condition), abs=1e-12
        )
        assert plain.forest_nodes <= smoothed.forest_nodes


class TestCircuitStructure:
    def test_constants_compile_to_trivial_circuits(self):
        forest = CircuitForest(uniform_store())
        assert forest.register(Condition.true()) == forest.TRUE
        assert forest.register(Condition.false()) == forest.FALSE
        assert forest.probability(Condition.true()) == 1.0
        assert forest.probability(Condition.false()) == 0.0
        assert forest.forest_nodes == 0

    def test_independent_condition_compiles_without_decisions(self):
        # disjoint variables: determinstic clause sums only, so the node
        # count stays tiny and no variable is branched on
        forest = CircuitForest(uniform_store())
        condition = Condition.of(
            [[var_greater_const(0, 0, 1)], [var_greater_const(1, 0, 2)]]
        )
        forest.register(condition)
        assert forest.forest_nodes < 10

    def test_dedup_shares_identical_residuals(self):
        # the same residual reached along different branches must compile
        # to the same node: circuit size grows far slower than the trace
        store = uniform_store(domain=4)
        condition = branching_condition()
        forest = CircuitForest(store)
        forest.register(condition)
        trace_nodes = ADPLL(store, use_memo=False)
        trace_nodes.probability(condition)
        assert forest.forest_nodes < trace_nodes.branch_count * 4

    def test_decision_covers_full_base_domain(self):
        """Branching spans the base domain even when constraints narrow it.

        This is what keeps the circuit valid when an answer's exclusion is
        later overwritten (contradiction handling can re-expand a pmf).
        """
        constraints = VariableConstraints([4])
        store = uniform_store(constraints=constraints)
        condition = branching_condition()
        constraints.apply_answer(var_greater_const(0, 0, 2), Relation.GREATER)
        forest = CircuitForest(store)
        before = forest.probability(condition)
        # the branch on V keeps value literals for the values the answer
        # already excluded (their weight is just 0 for now)
        literals = set()
        for slot in forest.live_slots():
            if forest.kinds[slot] == NODE_LEAF_SET:
                variable, values = forest.payloads[slot]
                if variable == V and values is not None and len(values) == 1:
                    literals.update(values)
        excluded = {value for value, mass in enumerate(store.pmf(V)) if mass == 0}
        assert excluded and literals & excluded
        constraints.apply_answer(var_greater_const(1, 0, 1), Relation.GREATER)
        exact = naive_probability(condition, store)
        after = forest.probability(condition)
        assert after == pytest.approx(exact, abs=1e-9)
        assert before != pytest.approx(after, abs=0)
        assert forest.stats()["recompiles"] == 0

    def test_children_precede_parents(self):
        forest = CircuitForest(uniform_store())
        forest.register(branching_condition())
        for slot in forest.live_slots():
            assert all(
                forest.seqs[child] < forest.seqs[slot]
                for child in forest.children[slot]
            )

    def test_node_budget_trips(self):
        forest = CircuitForest(uniform_store(), node_budget=4)
        with pytest.raises(ResourceBudgetError) as err:
            forest.register(branching_condition())
        assert "circuit node budget" in str(err.value)

    def test_rejects_bad_parameters(self):
        store = uniform_store()
        with pytest.raises(ValueError):
            CircuitForest(store, heuristic="magic")
        with pytest.raises(ValueError):
            CircuitForest(store, node_budget=-1)


class TestCircuitForest:
    """Store-scoped sharing, re-weighting and refcounted eviction."""

    def make(self, domain=4, **kwargs):
        constraints = VariableConstraints([domain])
        store = uniform_store(domain=domain, constraints=constraints)
        return CircuitForest(store, **kwargs), store, constraints

    def conditions(self, n=8):
        """Overlapping conditions so subcircuit sharing actually occurs."""
        out = [branching_condition()]
        for o in range(n - 1):
            out.append(
                Condition.of(
                    [
                        [var_greater_var(o % 3, (o + 1) % 3, 0)],
                        [var_greater_const(o % 3, 0, 1 + o % 2)],
                    ]
                )
            )
        return out

    def check_invariants(self, forest):
        """Refcount/unique-table consistency over the live slot pool."""
        for key, slot in forest._unique.items():
            assert forest._keys[slot] == key
        for slot in forest.live_slots():
            if slot not in (forest.TRUE, forest.FALSE):
                assert forest.refs[slot] >= 1, slot

    def test_compile_once_then_reuse(self):
        forest, store, constraints = self.make()
        condition = branching_condition()
        first = forest.probability(condition)
        second = forest.probability(condition)
        assert first == second
        stats = forest.stats()
        assert stats["circuits_compiled"] == 1
        assert stats["circuit_reuses"] == 1
        assert stats["propagations"] == 0

    def test_answers_propagate_without_recompiling(self):
        forest, store, constraints = self.make()
        condition = branching_condition()
        forest.probability(condition, obj=7)
        for cut, obj in ((1, 0), (0, 1), (2, 2)):
            constraints.apply_answer(
                var_greater_const(obj, 0, cut), Relation.GREATER
            )
            value = forest.probability(condition, obj=7)
            assert value == pytest.approx(
                naive_probability(condition, store), abs=1e-9
            )
        stats = forest.stats()
        assert stats["circuits_compiled"] == 1
        assert stats["recompiles"] == 0
        assert stats["propagations"] == 3

    def test_changed_condition_counts_recompile(self):
        forest, store, constraints = self.make()
        condition = branching_condition()
        forest.probability(condition, obj=7)
        simplified = condition.assign_expression(var_greater_var(0, 1, 0), True)
        assert simplified != condition
        forest.probability(simplified, obj=7)
        stats = forest.stats()
        assert stats["circuits_compiled"] == 2
        assert stats["recompiles"] == 1

    def test_constants_short_circuit(self):
        forest, __, ___ = self.make()
        assert forest.probability(Condition.true()) == 1.0
        assert forest.probability(Condition.false()) == 0.0
        assert forest.stats()["circuits_compiled"] == 0
        assert len(forest) == 0

    def test_cross_condition_sharing(self):
        forest, store, __ = self.make()
        conditions = self.conditions()
        for i, condition in enumerate(conditions):
            forest.register(condition, obj=i)
        stats = forest.stats()
        assert stats["nodes_shared"] > 0
        assert 0.0 < stats["shared_fraction"] < 1.0
        # shared forest is strictly smaller than the sum of circuit sizes
        individual = 0
        for condition in conditions:
            alone = CircuitForest(store)
            alone.register(condition)
            individual += alone.forest_nodes
        assert stats["forest_nodes"] < individual
        for condition in conditions:
            assert forest.probability(condition) == pytest.approx(
                naive_probability(condition, store), abs=1e-9
            )

    def test_eviction_under_mid_run_store_mutation(self):
        """Capacity churn while answers move weights: exact + consistent."""
        forest, store, constraints = self.make(capacity=3)
        conditions = self.conditions(9)
        for i, condition in enumerate(conditions):
            forest.probability(condition)
            if i % 3 == 2:  # mutate the store mid-run
                constraints.apply_answer(
                    var_greater_const(i % 3, 0, i % 2), Relation.GREATER
                )
            self.check_invariants(forest)
            assert len(forest) <= 3
        assert forest.stats()["forest_evictions"] > 0
        # survivors still track the mutated store exactly
        for condition in conditions[-3:]:
            assert forest.probability(condition) == pytest.approx(
                naive_probability(condition, store), abs=1e-9
            )

    def test_evicted_condition_recompiles(self):
        forest, __, ___ = self.make(capacity=1)
        a = Condition.of([[var_greater_const(0, 0, 1)]])
        b = Condition.of([[var_greater_const(1, 0, 2)]])
        forest.register(a)
        forest.register(b)  # evicts a's root pin
        forest.register(a)
        assert forest.stats()["recompiles"] == 1
        self.check_invariants(forest)

    def test_eviction_recompile_is_counted(self):
        forest, __, ___ = self.make(capacity=1)
        a = Condition.of([[var_greater_const(0, 0, 1)]])
        b = Condition.of([[var_greater_const(1, 0, 2)]])
        forest.probability(a)
        forest.probability(b)  # evicts a
        forest.probability(a)  # recompile of a previously compiled condition
        assert forest.stats()["recompiles"] == 1
        assert forest.stats()["circuits_compiled"] == 3

    def test_budget_rollback_leaves_forest_clean(self):
        forest, __, ___ = self.make(node_budget=4)
        with pytest.raises(ResourceBudgetError):
            forest.register(branching_condition())
        assert forest.forest_nodes == 0
        assert len(forest) == 0
        self.check_invariants(forest)
        # and the forest still works for conditions within budget
        small = Condition.of([[var_greater_const(0, 0, 1)]])
        value = forest.probability(small)
        assert 0.0 <= value <= 1.0

    def test_budget_trip_leaves_counters_clean(self):
        forest, __, ___ = self.make(node_budget=4)
        with pytest.raises(ResourceBudgetError):
            forest.probability(branching_condition())
        assert forest.stats()["circuits_compiled"] == 0
        assert forest.stats()["circuit_nodes"] == 0

    def test_propagate_without_recompiling(self):
        forest, store, constraints = self.make()
        conditions = self.conditions()
        for condition in conditions:
            forest.probability(condition)
        for cut, obj in ((1, 0), (0, 1), (2, 2)):
            constraints.apply_answer(
                var_greater_const(obj, 0, cut), Relation.GREATER
            )
            for condition in conditions:
                assert forest.probability(condition) == pytest.approx(
                    naive_probability(condition, store), abs=1e-9
                )
        stats = forest.stats()
        assert stats["recompiles"] == 0
        assert stats["circuits_compiled"] == len(set(self.conditions()))


class TestEngineCompiledBackend:
    """The engine's compiled-circuit path: ``backend="forest"``."""

    def test_rejects_bad_backend_combinations(self):
        with pytest.raises(ValueError):
            ProbabilityEngine(uniform_store(), backend="magic")
        with pytest.raises(ValueError):
            ProbabilityEngine(uniform_store(), backend="compiled")
        with pytest.raises(ValueError):
            ProbabilityEngine(uniform_store(), method="naive", backend="forest")

    def test_compiled_matches_adpll_engine(self):
        constraints = VariableConstraints([4])
        forest = ProbabilityEngine(
            uniform_store(constraints=constraints), backend="forest"
        )
        plain = ProbabilityEngine(uniform_store(constraints=constraints))
        condition = branching_condition()
        assert forest.probability(condition) == pytest.approx(
            plain.probability(condition), abs=1e-9
        )
        stats = forest.stats()
        assert stats["probability_backend"] == "forest"
        assert stats["circuits_compiled"] == 1
        assert stats["compile_fallbacks"] == 0

    def test_probability_many_objects_threading(self):
        constraints = VariableConstraints([4])
        store = uniform_store(constraints=constraints)
        engine = ProbabilityEngine(store, backend="forest")
        conditions = [
            branching_condition(),
            Condition.of([[var_greater_const(0, 0, 1)]]),
        ]
        values = engine.probability_many(conditions, objects=[11, 12])
        expected = [naive_probability(c, store) for c in conditions]
        assert values == pytest.approx(expected, abs=1e-9)
        assert engine.stats()["recompiles"] == 0
        # the objects align with their conditions: object 11's condition
        # simplified by an answer is a recompile, object 12's is not
        simplified = conditions[0].assign_expression(var_greater_var(0, 1, 0), True)
        engine.probability_many([conditions[1], simplified], objects=[12, 11])
        assert engine.stats()["recompiles"] == 1
        with pytest.raises(ValueError):
            engine.probability_many(conditions, objects=[11])

    def test_budget_trip_degrades_to_adpll_exactly(self):
        constraints = VariableConstraints([4])
        store = uniform_store(constraints=constraints)
        engine = ProbabilityEngine(store, backend="forest", compile_node_budget=4)
        condition = branching_condition()
        value = engine.probability(condition)
        assert value == pytest.approx(naive_probability(condition, store), abs=1e-9)
        assert value == pytest.approx(ADPLL(store).probability(condition), abs=1e-9)
        stats = engine.stats()
        assert stats["compile_fallbacks"] == 1
        assert stats["circuits_compiled"] == 0

    def test_repeated_trips_open_compile_breaker(self):
        constraints = VariableConstraints([4])
        store = uniform_store(constraints=constraints)
        engine = ProbabilityEngine(
            store,
            backend="forest",
            compile_node_budget=4,
            breaker_threshold=2,
            use_cache=False,
        )
        condition = branching_condition()
        for __ in range(4):
            engine.probability(condition)
        stats = engine.stats()
        assert stats["compile_breaker_state"] == "open"
        assert stats["compile_breaker_trips"] >= 1
        assert stats["compile_fallbacks"] >= 2
        # every value still exact through the ADPLL fallback
        assert engine.probability(condition) == pytest.approx(
            naive_probability(condition, store), abs=1e-9
        )

    def test_precompile_never_spends_breaker_probe(self):
        """Precompiling computes no probability, so an open breaker's
        probe schedule must not move -- and the next real computations
        still reach the half-open probe on time."""
        constraints = VariableConstraints([4])
        store = uniform_store(constraints=constraints)
        engine = ProbabilityEngine(
            store,
            backend="forest",
            compile_node_budget=4,
            breaker_threshold=2,
            use_cache=False,
        )
        condition = branching_condition()
        for __ in range(3):
            engine.probability(condition)
        stats = engine.stats()
        assert stats["compile_breaker_state"] == "open"
        assert stats["compile_breaker_skipped"] == 1
        for __ in range(40):
            assert engine.precompile_many([condition]) == 0
        stats = engine.stats()
        assert stats["compile_breaker_state"] == "open"
        assert stats["compile_breaker_skipped"] == 1
        probe_interval = engine.compile_breaker.probe_interval
        failures = stats["compile_breaker_failures"]
        for __ in range(probe_interval - 1):
            engine.probability(condition)
        # the probe ran (and tripped the budget again): one more failure
        assert engine.stats()["compile_breaker_failures"] == failures + 1
        assert engine.stats()["compile_breaker_state"] == "open"

    def test_precompile_trips_feed_the_breaker(self):
        constraints = VariableConstraints([4])
        store = uniform_store(constraints=constraints)
        engine = ProbabilityEngine(
            store, backend="forest", compile_node_budget=4, breaker_threshold=2
        )
        doomed = [
            branching_condition(),
            Condition.of(
                [
                    [var_greater_var(1, 0, 0), var_greater_const(2, 0, 1)],
                    [var_greater_var(2, 1, 0), const_greater_var(2, 0, 0)],
                    [var_greater_var(1, 2, 0)],
                ]
            ),
            Condition.of(
                [
                    [var_greater_var(2, 0, 0), var_greater_const(1, 0, 1)],
                    [var_greater_var(0, 1, 0), const_greater_var(2, 1, 0)],
                    [var_greater_var(2, 1, 0)],
                ]
            ),
        ]
        assert engine.precompile_many(doomed) == 0
        stats = engine.stats()
        # two consecutive trips open the breaker; the third is never tried
        assert stats["compile_breaker_failures"] == 2
        assert stats["compile_breaker_state"] == "open"
        assert stats["compile_breaker_skipped"] == 0
        assert stats["compile_fallbacks"] == 0

    def test_full_ladder_compiled_to_guarded_sampler(self):
        """Compile budget trips AND ADPLL budget trips: the sampler catches."""
        constraints = VariableConstraints([4])
        store = uniform_store(constraints=constraints)
        engine = ProbabilityEngine(
            store,
            backend="forest",
            compile_node_budget=4,
            node_budget=1,
        )
        condition = branching_condition()
        value = engine.probability(condition)
        assert 0.0 <= value <= 1.0
        detail = engine.probability_detailed(condition)
        assert not detail.exact
        assert detail.error_bound > 0.0
        stats = engine.stats()
        assert stats["compile_fallbacks"] == 1
        assert stats["guard_fallbacks"] == 1
        # a condition within the compile budget stays exact under the guard
        small = Condition.of([[var_greater_const(0, 0, 1)]])
        detail = engine.probability_detailed(small)
        assert detail.exact
        assert detail.value == pytest.approx(
            naive_probability(small, store), abs=1e-9
        )

    def test_pool_path_matches_sequential(self):
        constraints = VariableConstraints([4])
        store = uniform_store(constraints=constraints)
        conditions = [branching_condition()] + [
            Condition.of([[var_greater_const(o % 3, 0, c)]])
            for o in range(3)
            for c in range(3)
        ]
        sequential = ProbabilityEngine(store, backend="forest").probability_many(
            conditions
        )
        pooled = ProbabilityEngine(
            store, backend="forest", n_jobs=2
        ).probability_many(conditions, chunk_size=2)
        assert pooled == pytest.approx(sequential, abs=1e-12)
        assert sequential == pytest.approx(
            [naive_probability(c, store) for c in conditions], abs=1e-9
        )


class TestConfigAndQuery:
    def test_config_knobs_validate(self):
        config = BayesCrowdConfig(probability_backend="forest")
        assert config.compile_node_budget == DEFAULT_COMPILE_NODE_BUDGET
        assert config.circuit_cache_size == DEFAULT_CIRCUIT_CACHE_SIZE
        with pytest.raises(ValueError):
            BayesCrowdConfig(probability_backend="magic")
        with pytest.raises(ValueError):
            BayesCrowdConfig(probability_backend="compiled")
        with pytest.raises(ValueError):
            BayesCrowdConfig(
                probability_backend="forest", probability_method="naive"
            )
        with pytest.raises(ValueError):
            BayesCrowdConfig(compile_node_budget=-1)
        with pytest.raises(ValueError):
            BayesCrowdConfig(compile_node_budget=True)
        with pytest.raises(ValueError):
            BayesCrowdConfig(circuit_cache_size=-1)
        with pytest.raises(ValueError):
            BayesCrowdConfig(circuit_cache_size=True)

    def test_end_to_end_compiled_query_matches_adpll(self):
        dataset = generate_nba(n_objects=25, missing_rate=0.4, seed=5)
        results = {}
        for backend in ("adpll", "forest"):
            config = BayesCrowdConfig(
                alpha=0.1,
                budget=12,
                latency=3,
                probability_backend=backend,
                worker_accuracy=1.0,
                seed=5,
            )
            result = BayesCrowd(dataset, config).run()
            results[backend] = result
        assert results["forest"].answers == results["adpll"].answers
        for obj, p in results["forest"].answer_probabilities.items():
            assert p == pytest.approx(
                results["adpll"].answer_probabilities[obj], abs=1e-9
            )
        stats = results["forest"].engine_stats
        assert stats["probability_backend"] == "forest"
        assert stats["circuits_compiled"] > 0
        assert stats["circuit_nodes"] >= stats["circuits_compiled"]


class TestObsVerifier:
    def snapshot(self, **overrides):
        counters = {
            "engine_circuits_compiled": 10,
            "engine_circuit_nodes": 120,
            "engine_propagations": 4,
            "engine_recompiles": 2,
            "engine_compile_fallbacks": 1,
            "engine_forest_nodes": 80,
            "engine_nodes_shared": 15,
        }
        gauges = {"engine_shared_fraction": 0.125}
        counters.update(
            {k: v for k, v in overrides.items() if k.startswith("engine_") and "fraction" not in k}
        )
        gauges.update(
            {k: v for k, v in overrides.items() if "fraction" in k}
        )
        return {"counters": counters, "gauges": gauges}

    def test_consistent_snapshot_passes(self):
        assert verify_probability(self.snapshot(), require=True) == []

    def test_missing_counters_only_fail_when_required(self):
        assert verify_probability({"counters": {}}, require=False) == []
        problems = verify_probability({"counters": {}}, require=True)
        assert problems and "missing" in problems[0]

    def test_recompiles_cannot_exceed_compiles(self):
        problems = verify_probability(
            self.snapshot(engine_recompiles=11), require=True
        )
        assert any("exceeds" in p for p in problems)

    def test_nodes_lower_bound(self):
        problems = verify_probability(
            self.snapshot(engine_circuit_nodes=3), require=True
        )
        assert any("at least one node" in p for p in problems)

    def test_negative_counters_rejected(self):
        problems = verify_probability(
            self.snapshot(engine_propagations=-1), require=True
        )
        assert any("non-negative" in p for p in problems)

    def test_shared_fraction_gauge_bounds(self):
        problems = verify_probability(
            self.snapshot(engine_shared_fraction=1.5), require=True
        )
        assert any("outside [0, 1]" in p for p in problems)

    def test_shared_nodes_require_live_forest(self):
        problems = verify_probability(
            self.snapshot(engine_forest_nodes=0, engine_nodes_shared=3),
            require=True,
        )
        assert any("empty forest" in p for p in problems)
