"""Tests for the circuit-forest array kernel.

Covers hypothesis parity of the numpy structure-of-arrays sweep against
naive enumeration and ADPLL over random conditions *and* answer
sequences, suffix propagation, masked worker sweeps
(``evaluate_roots``), the shared-memory array round-trip, and the
engine-level forest backend (batched rounds, precompile, pool fan-out).
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.ctable import Condition, Relation, VariableConstraints, var_greater_const
from repro.probability import (
    ADPLL,
    CircuitForest,
    ForestProgram,
    ProbabilityEngine,
    naive_probability,
)
from repro.probability.engine import _forest_chunk
from repro.parallel import SharedArrayBundle, detach_all

from tests.test_compile import (
    branching_condition,
    condition_store_answers,
    uniform_store,
)


def make_forest(domain=4, **kwargs):
    constraints = VariableConstraints([domain])
    store = uniform_store(domain=domain, constraints=constraints)
    return CircuitForest(store, **kwargs), store, constraints


class TestKernelParity:
    """The array sweep must match the reference counters exactly."""

    @given(condition_store_answers())
    @settings(max_examples=120, deadline=None)
    def test_numpy_kernel_matches_naive(self, drawn):
        condition, store, constraints, answers = drawn
        if condition.is_constant:
            return
        exact = naive_probability(condition, store)
        assert CircuitForest(store).probability(condition) == pytest.approx(
            exact, abs=1e-9
        )
        assert ADPLL(store).probability(condition) == pytest.approx(exact, abs=1e-9)

    @given(condition_store_answers())
    @settings(max_examples=80, deadline=None)
    def test_propagate_tracks_answer_sequences(self, drawn):
        """Suffix re-sweeps after each answer match naive enumeration."""
        condition, store, constraints, answers = drawn
        if condition.is_constant:
            return
        forest = CircuitForest(store)
        forest.probability(condition)
        for expression, relation in answers:
            try:
                constraints.apply_answer(expression, relation)
            except ValueError:
                continue  # contradicting sequence; constraints refuse
            exact = naive_probability(condition, store)
            assert forest.probability(condition) == pytest.approx(exact, abs=1e-9)

    def test_shared_forest_matches_naive(self):
        forest, store, constraints = make_forest()
        conditions = [branching_condition()] + [
            Condition.of([[var_greater_const(o, 0, c)]])
            for o in range(3)
            for c in (1, 2)
        ]
        for condition in conditions:
            assert forest.probability(condition) == pytest.approx(
                naive_probability(condition, store), abs=1e-9
            )
        constraints.apply_answer(var_greater_const(0, 0, 1), Relation.GREATER)
        for condition in conditions:
            assert forest.probability(condition) == pytest.approx(
                naive_probability(condition, store), abs=1e-9
            )
        assert forest.stats()["recompiles"] == 0


class TestForestProgram:
    def registered_forest(self):
        forest, store, constraints = make_forest()
        conditions = [branching_condition()] + [
            Condition.of(
                [
                    [var_greater_const(o, 0, 1)],
                    [var_greater_const((o + 1) % 3, 0, 2)],
                ]
            )
            for o in range(3)
        ]
        roots = [forest.register(c) for c in conditions]
        forest.refresh()
        return forest, store, conditions, roots

    def test_masked_roots_match_full_sweep(self):
        forest, store, conditions, roots = self.registered_forest()
        program = forest.ensure_program()
        pmf_flat = program.gather_pmfs(store)
        full = program.evaluate(
            np.zeros(program.n_slots), pmf_flat
        )
        subset = roots[::2]
        masked = program.evaluate_roots(subset, pmf_flat)
        for root in subset:
            assert masked[root] == pytest.approx(full[root], abs=1e-12)

    def test_array_roundtrip_preserves_values(self):
        forest, store, conditions, roots = self.registered_forest()
        program = forest.ensure_program()
        pmf_flat = program.gather_pmfs(store)
        arrays = program.to_arrays()
        rebuilt = ForestProgram.from_arrays(arrays)
        original = program.evaluate_roots(roots, pmf_flat)
        copy = rebuilt.evaluate_roots(roots, np.array(pmf_flat))
        for root in roots:
            assert copy[root] == pytest.approx(original[root], abs=1e-12)

    def test_from_arrays_copies_out_of_shared_buffers(self):
        """Workers must survive the parent unlinking the segments."""
        forest, store, conditions, roots = self.registered_forest()
        program = forest.ensure_program()
        arrays = dict(program.to_arrays())
        arrays["leaf_pmf_flat"] = program.gather_pmfs(store)
        bundle = SharedArrayBundle.publish(arrays)
        try:
            payload = (bundle.handle, roots)
            values = _forest_chunk(payload)
        finally:
            bundle.unlink()
            detach_all()
        full = program.evaluate(
            np.zeros(program.n_slots), program.gather_pmfs(store)
        )
        assert values == pytest.approx([full[r] for r in roots], abs=1e-12)

    def test_suffix_sweep_equals_full_resweep(self):
        forest, store, conditions, roots = self.registered_forest()
        # grow the forest after the first sweep: refresh must cover the
        # new suffix without disturbing (or needing) the old prefix
        extra = Condition.of([[var_greater_const(2, 0, 2)]])
        forest.probability(extra)
        fresh = CircuitForest(store)
        for condition in conditions + [extra]:
            assert forest.value(condition) == pytest.approx(
                fresh.probability(condition), abs=1e-12
            )
        assert forest.stats()["forest_suffix_sweeps"] >= 1


class TestEngineForestBackend:
    def make_engine(self, **kwargs):
        constraints = VariableConstraints([4])
        store = uniform_store(constraints=constraints)
        return ProbabilityEngine(store, backend="forest", **kwargs), store, constraints

    def conditions(self):
        return [branching_condition()] + [
            Condition.of([[var_greater_const(o % 3, 0, c)]])
            for o in range(3)
            for c in range(3)
        ]

    def test_batch_rounds_match_adpll(self):
        engine, store, constraints = self.make_engine()
        plain = ProbabilityEngine(
            uniform_store(constraints=constraints)
        )
        conditions = self.conditions()
        for cut, obj in ((None, None), (1, 0), (0, 1), (2, 2)):
            if cut is not None:
                constraints.apply_answer(
                    var_greater_const(obj, 0, cut), Relation.GREATER
                )
            got = engine.probability_many(conditions)
            want = [naive_probability(c, store) for c in conditions]
            assert got == pytest.approx(want, abs=1e-9)
        stats = engine.stats()
        assert stats["probability_backend"] == "forest"
        assert stats["recompiles"] == 0
        assert stats["compile_fallbacks"] == 0
        assert stats["nodes_shared"] > 0
        assert 0.0 < stats["shared_fraction"] < 1.0

    def test_batch_larger_than_circuit_cache(self):
        """Roots evicted mid-batch must not lose (or mix up) values."""
        engine, store, constraints = self.make_engine(circuit_cache_size=2)
        conditions = self.conditions()
        values = engine.probability_many(conditions)
        assert values == pytest.approx(
            [naive_probability(c, store) for c in conditions], abs=1e-9
        )
        assert engine.stats()["circuit_cache_size"] <= 2
        assert engine.stats()["compile_fallbacks"] == 0

    def test_precompile_then_batch_compiles_nothing_new(self):
        engine, store, constraints = self.make_engine(use_cache=False)
        conditions = self.conditions()
        compiled = engine.precompile_many(conditions)
        assert compiled == len(set(conditions))
        before = engine.stats()["circuits_compiled"]
        values = engine.probability_many(conditions)
        assert engine.stats()["circuits_compiled"] == before
        assert values == pytest.approx(
            [naive_probability(c, store) for c in conditions], abs=1e-9
        )

    def test_precompile_noop_on_other_backends(self):
        constraints = VariableConstraints([4])
        engine = ProbabilityEngine(uniform_store(constraints=constraints))
        assert engine.precompile_many(self.conditions()) == 0

    def test_budget_trip_falls_back_exactly(self):
        engine, store, constraints = self.make_engine(compile_node_budget=4)
        conditions = self.conditions()
        values = engine.probability_many(conditions)
        assert values == pytest.approx(
            [naive_probability(c, store) for c in conditions], abs=1e-9
        )
        assert engine.stats()["compile_fallbacks"] >= 1

    def test_pool_fan_out_matches_sequential(self):
        engine, store, constraints = self.make_engine()
        conditions = self.conditions()
        sequential = engine.probability_many(conditions)
        pooled_engine, pooled_store, __ = self.make_engine(n_jobs=2)
        roots = {c: pooled_engine._forest.register(c) for c in conditions}
        pooled = pooled_engine._sweep_parallel_forest(roots, 2, 4)
        assert [pooled[c] for c in conditions] == pytest.approx(
            sequential, abs=1e-12
        )
        assert pooled_engine.forest_bundle_bytes > 0
        assert pooled_engine.stats()["parallel_chunks"] >= 2

    def test_scalar_and_cached_pool_decisions_recorded(self):
        engine, store, constraints = self.make_engine()
        condition = branching_condition()
        engine.probability(condition)
        assert "scalar" in engine.stats()["pool_decision"]
        engine.probability_many([condition])
        first = engine.stats()["pool_decision"]
        assert "no batch computed yet" not in first
        engine.probability_many([condition])  # fully cache-served
        assert "cache" in engine.stats()["pool_decision"]
