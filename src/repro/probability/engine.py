"""Probability engine: method dispatch + caching for ``Pr(phi(o))``.

Task selection recomputes condition probabilities many times per round
(entropy ranking, marginal utilities); the engine memoizes results keyed
by the (hashable) condition and invalidates whenever the constraint store
version changes, i.e. whenever a crowd answer could alter a distribution.
The result cache is LRU-bounded: long crowdsourcing runs otherwise grow
it monotonically with stale-version entries that are never evicted.

:meth:`ProbabilityEngine.probability_many` is the batch entry point.  It
deduplicates conditions, serves cached results, and solves the rest in
order.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ctable.condition import Condition
from ..ctable.construction import INERT_KEYWORDS, check_inert
from ..ctable.expression import Expression
from ..errors import ResourceBudgetError
from ..lru import LRUCache
from .adpll import ADPLL
from .approxcount import adaptive_approx_probability, approx_probability
from .distributions import DistributionStore
from .guard import CircuitBreaker, GuardedProbability
from .naive import naive_probability

#: Supported computation methods.
METHODS = ("adpll", "naive", "approx")

#: Default bound on the condition-probability cache.
DEFAULT_CACHE_SIZE = 65_536


#: Widening of :meth:`ProbabilityEngine.bounds_many` brackets: far above
#: the float rounding of any exact solve, far below any decision margin.
BOUND_SLACK = 1e-9


def _brackets(
    values: np.ndarray, widths: np.ndarray, counts: np.ndarray
) -> List[Tuple[float, float]]:
    """Boole/Frechet brackets of symbolic CNF conditions, in one numpy pass.

    ``values`` holds every occurrence's leaf probability clause after
    clause, ``widths`` each clause's width and ``counts`` each
    condition's clause count.  ``reduceat`` takes each clause's sum and
    max and each condition's min and sum over its clauses.  Symbolic
    conditions hold no empty clause, so no segment is empty.
    """
    clause_starts = np.zeros(len(widths), dtype=np.intp)
    np.cumsum(widths[:-1], out=clause_starts[1:])
    condition_starts = np.zeros(len(counts), dtype=np.intp)
    np.cumsum(counts[:-1], out=condition_starts[1:])
    totals = np.add.reduceat(values, clause_starts)
    best = np.maximum.reduceat(values, clause_starts)
    hi = np.minimum.reduceat(np.minimum(totals, 1.0), condition_starts)
    missing = np.add.reduceat(1.0 - best, condition_starts)
    lo = np.maximum(0.0, 1.0 - missing) - BOUND_SLACK
    return list(zip(lo.tolist(), (hi + BOUND_SLACK).tolist()))


class ProbabilityEngine:
    """Computes and caches condition probabilities against one store."""

    def __init__(
        self,
        store: DistributionStore,
        method: str = "adpll",
        use_cache: bool = True,
        approx_samples: int = 2000,
        rng: Optional[np.random.Generator] = None,
        use_components: bool = True,
        cache_size: int = DEFAULT_CACHE_SIZE,
        # pool residue: drivers.replay_query passes it (ROADMAP item 1)
        n_jobs: int = INERT_KEYWORDS["n_jobs"],
        node_budget: int = 0,
        deadline_s: float = 0.0,
        breaker_threshold: int = 3,
        # forest residue: drivers.replay_query passes it (ROADMAP item 1)
        backend: str = INERT_KEYWORDS["backend"],
        # forest residue: drivers.replay_query passes it (ROADMAP item 1)
        compile_node_budget: int = INERT_KEYWORDS["compile_node_budget"],
        # forest residue: drivers.replay_query passes it (ROADMAP item 1)
        circuit_cache_size: int = INERT_KEYWORDS["circuit_cache_size"],
    ) -> None:
        if method not in METHODS:
            raise ValueError("unknown method %r; expected one of %r" % (method, METHODS))
        check_inert(
            n_jobs=n_jobs,
            backend=backend,
            compile_node_budget=compile_node_budget,
            circuit_cache_size=circuit_cache_size,
        )
        self.store = store
        self.method = method
        self._use_cache = use_cache
        self._approx_samples = approx_samples
        self._rng = rng or np.random.default_rng(0)
        self._adpll = ADPLL(
            store,
            use_components=use_components,
            node_budget=node_budget,
            deadline_s=deadline_s,
        )
        #: resource guard: active when exact ADPLL runs under a node
        #: budget or deadline; exhaustion degrades the condition to
        #: adaptive sampling and feeds the circuit breaker
        self.guard_active = method == "adpll" and (node_budget > 0 or deadline_s > 0)
        self.breaker: Optional[CircuitBreaker] = (
            CircuitBreaker(failure_threshold=breaker_threshold)
            if self.guard_active
            else None
        )
        #: condition -> (exact?, error bound) for guarded computations
        self._guard_info: Dict[Condition, Tuple[bool, float]] = {}
        self.n_guard_fallbacks = 0
        #: cooperative cancellation token (None = not attached); checked
        #: at per-condition boundaries so a session cancel/deadline stops
        #: the engine between conditions, never mid-solve
        self._cancellation = None
        #: condition -> (probability, store version when computed)
        self._cache: "LRUCache[Condition, Tuple[float, int]]" = LRUCache(cache_size)
        self.n_computations = 0
        self.n_cache_hits = 0
        # --- batch perf counters --------------------------------------
        self.n_batches = 0
        self.n_batch_conditions = 0
        self.n_batch_pending = 0
        self.batch_seconds = 0.0

    # ------------------------------------------------------------------
    def attach_cancellation(self, token) -> None:
        """Attach a session :class:`CancellationToken` to this engine.

        Once attached, :meth:`probability` / :meth:`probability_many`
        observe the token at condition boundaries (raising the typed
        ``SessionCancelledError``), and a session deadline additionally
        clamps the guarded ADPLL per-call deadline so one exact solve can
        never outlive the session's remaining time.
        """
        self._cancellation = token

    def _cached(self, condition: Condition, version: int) -> Optional[float]:
        cached = self._cache.get(condition)
        if cached is None:
            return None
        value, cached_version = cached
        if cached_version == version:
            return value
        if self.store.variables_unchanged_since(condition.variables(), cached_version):
            # Refresh the stored version: the per-variable scan proved the
            # entry current, so subsequent hits at this version must match
            # on version equality instead of re-paying the scan each time.
            self._cache[condition] = (value, version)
            return value
        return None

    def probability(self, condition: Condition) -> float:
        """``Pr(condition)`` under the current distributions."""
        if condition.is_true:
            return 1.0
        if condition.is_false:
            return 0.0
        if self._cancellation is not None:
            self._cancellation.check("probability")
        if self._use_cache:
            value = self._cached(condition, self.store.version)
            if value is not None:
                self.n_cache_hits += 1
                return value
        value = self._compute(condition)
        self.n_computations += 1
        if self._use_cache:
            self._cache[condition] = (value, self.store.version)
        return value

    def probability_many(
        self,
        conditions: Sequence[Condition],
        # forest residue: drivers.replay_query passes it (ROADMAP item 1)
        objects: Optional[Sequence[int]] = None,
    ) -> List[float]:
        """``Pr(condition)`` for every condition, batched.

        Identical conditions are computed once and cached results are
        reused.
        """
        start = time.perf_counter()
        version = self.store.version
        results: Dict[Condition, float] = {}
        for condition in conditions:
            # Condition hashes canonically: duplicates in the batch are
            # computed once.
            if condition in results:
                continue
            if condition.is_constant:
                results[condition] = 1.0 if condition.is_true else 0.0
                continue
            if self._use_cache:
                value = self._cached(condition, version)
                if value is not None:
                    self.n_cache_hits += 1
                    results[condition] = value
                    continue
            if self._cancellation is not None:
                self._cancellation.check("probability")
            value = self._compute(condition)
            results[condition] = value
            if self._use_cache:
                self._cache[condition] = (value, version)
            self.n_computations += 1
            self.n_batch_pending += 1

        self.n_batches += 1
        self.n_batch_conditions += len(conditions)
        self.batch_seconds += time.perf_counter() - start
        return [results[condition] for condition in conditions]

    def bounds_many(self, conditions: Sequence[Condition]) -> List[Tuple[float, float]]:
        """``(lo, hi)`` brackets of ``Pr(condition)``, one per condition.

        For ``phi = AND_i C_i`` with clauses ``C_i = OR_e e``, Boole and
        Frechet give ``hi = min_i min(1, sum_e Pr(e))`` and
        ``lo = max(0, 1 - sum_i (1 - max_e Pr(e)))`` whatever the
        dependence between expressions; both are then widened by
        :data:`BOUND_SLACK` so float rounding in the exact solvers (which
        can return ``1.0000000000000002``) stays inside, which makes these
        brackets sound.  The leaf probabilities are one
        :meth:`DistributionStore.expression_values` gather over the
        conditions' expression ids.  A condition with a cached exact value gets
        ``(p, p)``: the solver's value, sound only to within the solver's
        rounding (it can miss the true probability by an ulp).  It is not
        widened, because the lazy ranking orders its heap by these pairs.
        An engine whose values are not exact (``approx``, or the resource
        guard active) answers ``(0, 1)`` for every symbolic condition, so
        bound-first callers solve everything.
        """
        out: List[Tuple[float, float]] = []
        exact = self.method != "approx" and not self.guard_active
        version = self.store.version
        unsolved: List[int] = []
        for index, condition in enumerate(conditions):
            if condition.is_constant:
                value = 1.0 if condition.is_true else 0.0
                out.append((value, value))
                continue
            if exact and self._use_cache:
                value = self._cached(condition, version)
                if value is not None:
                    out.append((value, value))
                    continue
            out.append((0.0, 1.0))
            if exact:
                unsolved.append(index)
        if unsolved:
            pending = [conditions[index] for index in unsolved]
            # the table of the first condition that has one, else the store's
            table = next(
                (c.expression_table for c in pending if c.expression_table is not None),
                self.store.expressions,
            )
            ids: List[int] = []
            widths: List[int] = []
            counts: List[int] = []
            for condition in pending:
                condition_ids, condition_widths = condition.expression_ids(table)
                ids += condition_ids
                widths += condition_widths
                counts.append(len(condition_widths))
            values = self.store.expression_values(table, np.array(ids))
            brackets = _brackets(values, np.array(widths), np.array(counts))
            for index, bracket in zip(unsolved, brackets):
                out[index] = bracket
        return out

    def branch_probabilities(
        self, condition: Condition, expressions: Sequence[Expression]
    ) -> Dict[Expression, Tuple[float, float]]:
        """``(Pr(phi[e:=T]), Pr(phi[e:=F]))`` for the candidates one pass covers.

        Serves :class:`repro.core.utility_engine.UtilityEngine` from
        :meth:`ADPLL.branch_probabilities` when probabilities are exact,
        unguarded ADPLL (``method="adpll"``, no node budget or deadline).  Any other configuration, and every candidate
        the kernel does not cover, gets no entry: its caller builds the
        residual conditions and asks :meth:`probability_many` for them.
        Values are read fresh from the store; nothing is cached.
        """
        if self.method != "adpll" or self.guard_active:
            return {}
        if self._cancellation is not None:
            self._cancellation.check("probability")
        return self._adpll.branch_probabilities(condition, expressions)

    def _compute(self, condition: Condition) -> float:
        if self.method == "adpll":
            return self._compute_exact(condition)
        if self.method == "naive":
            return naive_probability(condition, self.store)
        return approx_probability(
            condition, self.store, n_samples=self._approx_samples, rng=self._rng
        ).probability

    def _compute_exact(self, condition: Condition) -> float:
        """ADPLL, under the resource guard when one is configured."""
        if self.breaker is None:
            return self._adpll.probability(condition)
        return self._compute_guarded(condition)

    def _compute_guarded(self, condition: Condition) -> float:
        """Exact ADPLL under the resource guard, sampling on exhaustion.

        While the guard never trips, the returned value is bit-for-bit
        the unguarded ADPLL result.  On a trip the condition degrades to
        adaptive Monte Carlo; the circuit breaker turns *repeated* trips
        into approximate-first (skipping the doomed exact attempt).
        """
        breaker = self.breaker
        if breaker.allow_exact():
            # Deadline propagation: the exact attempt may not outlive the
            # session's remaining time, so the per-call ADPLL deadline is
            # clamped to min(configured, session-remaining) for this call.
            prior_deadline = self._adpll.deadline_s
            remaining = (
                self._cancellation.remaining()
                if self._cancellation is not None
                else None
            )
            if remaining is not None:
                clamped = (
                    min(prior_deadline, remaining)
                    if prior_deadline > 0
                    else remaining
                )
                self._adpll.deadline_s = max(clamped, 1e-9)
            try:
                value = self._adpll.probability(condition)
            except ResourceBudgetError:
                breaker.record_failure()
                self.n_guard_fallbacks += 1
            else:
                breaker.record_success()
                self._guard_info[condition] = (True, 0.0)
                return value
            finally:
                self._adpll.deadline_s = prior_deadline
        estimate = adaptive_approx_probability(condition, self.store, rng=self._rng)
        self._guard_info[condition] = (False, estimate.half_width)
        return estimate.probability

    def probability_detailed(self, condition: Condition) -> GuardedProbability:
        """``Pr(condition)`` plus how it was obtained.

        Constants and unguarded computations are exact by construction;
        guarded computations report whether the resource guard degraded
        this condition to sampling, with the Wilson-interval error bound.
        """
        value = self.probability(condition)
        if condition.is_constant or not self.guard_active:
            return GuardedProbability(value, exact=True)
        exact, error_bound = self._guard_info.get(condition, (True, 0.0))
        return GuardedProbability(value, exact=exact, error_bound=error_bound)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Perf counter snapshot (cache behavior, batch activity)."""
        lookups = self.n_cache_hits + self.n_computations
        stats: Dict[str, float] = {
            "computations": self.n_computations,
            "cache_hits": self.n_cache_hits,
            "cache_hit_rate": self.n_cache_hits / lookups if lookups else 0.0,
            "cache_size": len(self._cache),
            "cache_evictions": self._cache.evictions,
            "memo_size": len(self._adpll._memo),
            "memo_evictions": self._adpll._memo.evictions,
            "batches": self.n_batches,
            "batch_conditions": self.n_batch_conditions,
            "batch_pending": self.n_batch_pending,
            "batch_seconds": self.batch_seconds,
            "probabilities_per_sec": (
                self.n_batch_conditions / self.batch_seconds
                if self.batch_seconds > 0
                else 0.0
            ),
        }
        stats["guard_active"] = 1 if self.guard_active else 0
        stats["guard_fallbacks"] = self.n_guard_fallbacks
        stats["guard_trips"] = self._adpll.guard_trips
        if self.breaker is not None:
            for key, value in self.breaker.stats().items():
                stats[key] = value
        return stats

    def __call__(self, condition: Condition) -> float:
        return self.probability(condition)
