"""Tests for resource-guarded probability computation.

Covers the ADPLL node-budget/deadline guards, the exact-path circuit
breaker, the engine's degrade-to-sampling fallback, and the end-to-end
guarantee that every reported answer probability is flagged exact or
approximate (with a finite error bound).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BayesCrowd, BayesCrowdConfig
from repro.ctable import (
    Condition,
    Expression,
    Var,
    const_greater_var,
    var_greater_const,
    var_greater_var,
)
from repro.datasets import generate_nba
from repro.errors import ResourceBudgetError
from repro.probability import (
    ADPLL,
    CircuitBreaker,
    DistributionStore,
    GuardedProbability,
    ProbabilityEngine,
    adpll_probability,
)

V, W, U = (0, 0), (1, 0), (2, 0)


def uniform_store(domain=4, variables=(V, W, U)):
    pmf = np.full(domain, 1.0 / domain)
    return DistributionStore({v: pmf.copy() for v in variables})


def branching_condition():
    """Clauses sharing variables, so ADPLL must branch (not just multiply
    independent clause probabilities)."""
    return Condition.of(
        [
            [var_greater_var(0, 1, 0), var_greater_const(2, 0, 1)],
            [var_greater_var(1, 2, 0), const_greater_var(2, 0, 0)],
            [var_greater_var(0, 2, 0)],
        ]
    )


class TestGuardedProbability:
    def test_exact_has_zero_bound(self):
        detail = GuardedProbability(0.5, exact=True)
        assert detail.error_bound == 0.0
        assert detail.interval() == (0.5, 0.5)

    def test_exact_with_bound_rejected(self):
        with pytest.raises(ValueError):
            GuardedProbability(0.5, exact=True, error_bound=0.1)

    def test_interval_clamped_to_unit(self):
        detail = GuardedProbability(0.05, exact=False, error_bound=0.1)
        low, high = detail.interval()
        assert low == 0.0
        assert high == pytest.approx(0.15)


class TestADPLLGuards:
    def test_node_budget_trips(self):
        solver = ADPLL(uniform_store(), node_budget=1)
        with pytest.raises(ResourceBudgetError) as excinfo:
            solver.probability(branching_condition())
        assert excinfo.value.spent >= excinfo.value.limit
        assert solver.guard_trips == 1

    def test_deadline_trips(self):
        solver = ADPLL(uniform_store(), deadline_s=1e-12)
        with pytest.raises(ResourceBudgetError):
            solver.probability(branching_condition())
        assert solver.guard_trips == 1

    def test_budget_resets_per_call(self):
        # Large enough for one call; the counter must not accumulate
        # across calls and trip on the second.
        solver = ADPLL(uniform_store(), node_budget=10_000)
        first = branching_condition()
        second = Condition.of(
            [
                [var_greater_var(1, 0, 0), var_greater_const(2, 0, 2)],
                [var_greater_var(2, 1, 0), const_greater_var(3, 0, 0)],
                [var_greater_var(2, 0, 0)],
            ]
        )
        solver.probability(first)
        spent_first = solver.branch_count
        solver.probability(second)  # fresh per-call allowance, no trip
        assert solver.guard_trips == 0
        assert solver.branch_count >= spent_first

    def test_rejects_negative_limits(self):
        with pytest.raises(ValueError):
            ADPLL(uniform_store(), node_budget=-1)
        with pytest.raises(ValueError):
            ADPLL(uniform_store(), deadline_s=-0.5)

    def test_abort_does_not_poison_memo(self):
        """A tripped computation must leave no partial memo entries: the
        same solver with the guard effectively lifted recomputes the
        exact answer."""
        store = uniform_store()
        condition = branching_condition()
        solver = ADPLL(store, node_budget=1)
        with pytest.raises(ResourceBudgetError):
            solver.probability(condition)
        solver.node_budget = 0  # lift the guard
        assert solver.probability(condition) == pytest.approx(
            adpll_probability(condition, uniform_store()), abs=1e-12
        )

    def test_unguarded_result_matches_guarded_headroom(self):
        """With generous limits the guard must be invisible bit-for-bit."""
        store = uniform_store()
        condition = branching_condition()
        plain = ADPLL(uniform_store()).probability(condition)
        guarded = ADPLL(store, node_budget=10**9, deadline_s=3600.0).probability(
            condition
        )
        assert guarded == plain


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        for __ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.stats()["breaker_trips"] == 1

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_open_skips_then_probes(self):
        breaker = CircuitBreaker(failure_threshold=1, probe_interval=4)
        breaker.record_failure()
        assert breaker.state == "open"
        decisions = [breaker.allow_exact() for __ in range(4)]
        assert decisions == [False, False, False, True]
        assert breaker.state == "half-open"

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, probe_interval=1)
        breaker.record_failure()
        assert breaker.allow_exact()  # probe
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow_exact()

    def test_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, probe_interval=1)
        breaker.record_failure()
        assert breaker.allow_exact()
        breaker.record_failure()
        assert breaker.state == "open"

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(probe_interval=0)

    def test_full_lifecycle_closed_open_halfopen_closed(self):
        """The whole state machine in one pass, with stats checked per leg."""
        breaker = CircuitBreaker(failure_threshold=2, probe_interval=3)
        # leg 1: closed, absorbing sub-threshold failures
        assert breaker.state == "closed"
        assert breaker.allow_exact()
        breaker.record_failure()
        assert breaker.state == "closed"
        # leg 2: threshold reached -> open
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.stats()["breaker_trips"] == 1
        # leg 3: open skips probe_interval - 1 calls, then half-open probe
        assert [breaker.allow_exact() for __ in range(3)] == [False, False, True]
        assert breaker.state == "half-open"
        assert breaker.stats()["breaker_skipped"] == 2
        # leg 4: probe succeeds -> closed again, failure streak forgotten
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow_exact()
        breaker.record_failure()  # one failure: still under threshold
        assert breaker.state == "closed"
        stats = breaker.stats()
        assert stats["breaker_state"] == "closed"
        assert stats["breaker_trips"] == 1
        assert stats["breaker_successes"] == 1
        assert stats["breaker_failures"] == 3

    def test_lifecycle_with_failed_probe_detour(self):
        """open -> half-open -> (probe fails) -> open -> half-open -> closed."""
        breaker = CircuitBreaker(failure_threshold=1, probe_interval=2)
        breaker.record_failure()
        assert breaker.state == "open"
        assert [breaker.allow_exact() for __ in range(2)] == [False, True]
        breaker.record_failure()  # failed probe: straight back to open
        assert breaker.state == "open"
        # a failed probe re-opens but is not a fresh trip
        assert breaker.stats()["breaker_trips"] == 1
        assert [breaker.allow_exact() for __ in range(2)] == [False, True]
        breaker.record_success()  # second probe lands
        assert breaker.state == "closed"


class TestEngineGuardedFallback:
    def test_fallback_produces_flagged_approximation(self):
        engine = ProbabilityEngine(uniform_store(), node_budget=1)
        condition = branching_condition()
        value = engine.probability(condition)
        assert 0.0 <= value <= 1.0
        detail = engine.probability_detailed(condition)
        assert isinstance(detail, GuardedProbability)
        assert not detail.exact
        assert 0.0 < detail.error_bound < 1.0
        assert detail.value == value
        stats = engine.stats()
        assert stats["guard_fallbacks"] >= 1
        assert stats["guard_trips"] >= 1
        assert stats["guard_active"] == 1

    def test_unguarded_engine_reports_exact(self):
        engine = ProbabilityEngine(uniform_store())
        condition = branching_condition()
        engine.probability(condition)
        detail = engine.probability_detailed(condition)
        assert detail.exact
        assert detail.error_bound == 0.0
        assert "guard_active" in engine.stats()

    def test_constants_always_exact(self):
        engine = ProbabilityEngine(uniform_store(), node_budget=1)
        assert engine.probability_detailed(Condition.true()) == GuardedProbability(
            1.0, exact=True
        )
        assert engine.probability_detailed(Condition.false()).value == 0.0

    def test_breaker_switches_to_approx_first(self):
        """After repeated exact-path blowups the breaker opens and the
        engine stops even attempting exact computation."""
        engine = ProbabilityEngine(
            uniform_store(), node_budget=1, breaker_threshold=2
        )
        conditions = [
            Condition.of(
                [
                    [var_greater_var(0, 1, 0), var_greater_const(2, 0, k)],
                    [var_greater_var(1, 2, 0)],
                    [var_greater_var(0, 2, 0)],
                ]
            )
            for k in range(3)
        ]
        for condition in conditions:
            engine.probability(condition)
        stats = engine.stats()
        assert stats["breaker_state"] != "closed" or stats["breaker_trips"] >= 1
        # Once open, exact attempts are skipped entirely.
        assert stats["breaker_skipped"] >= 1


# ----------------------------------------------------------------------
# property: the guard is bit-for-bit invisible while not exhausted
# ----------------------------------------------------------------------
@st.composite
def guarded_case(draw):
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
    return Condition.of(clauses), pmfs


class TestGuardBitForBit:
    @given(guarded_case())
    @settings(max_examples=100, deadline=None)
    def test_guarded_equals_unguarded_when_not_exhausted(self, case):
        condition, pmfs = case
        plain = ADPLL(DistributionStore(pmfs)).probability(condition)
        guarded_solver = ADPLL(
            DistributionStore(pmfs), node_budget=10**9, deadline_s=3600.0
        )
        assert guarded_solver.probability(condition) == plain
        assert guarded_solver.guard_trips == 0


# ----------------------------------------------------------------------
# end-to-end: a deadline-starved run flags every probability correctly
# ----------------------------------------------------------------------
class TestDeadlineEndToEnd:
    def test_every_probability_flagged(self):
        dataset = generate_nba(n_objects=30, missing_rate=0.4, seed=3)
        config = BayesCrowdConfig(
            budget=30,
            latency=5,
            worker_accuracy=0.95,
            alpha=0.1,
            seed=3,
            adpll_deadline_s=1e-9,
        )
        result = BayesCrowd(dataset, config).run()
        assert set(result.probability_exact) == set(result.answers)
        for obj in result.answers:
            probability = result.answer_probabilities.get(obj, 1.0)
            assert 0.0 <= probability <= 1.0
            bound = result.probability_error_bounds.get(obj, 0.0)
            if result.probability_exact[obj]:
                assert bound == 0.0
            else:
                assert np.isfinite(bound)
                assert bound > 0.0
        # The starved run must actually have exercised the fallback.
        assert result.approximate_objects()
        assert result.engine_stats.get("guard_fallbacks", 0) >= 1
