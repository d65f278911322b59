"""Probability engine: method dispatch + caching for ``Pr(phi(o))``.

Task selection recomputes condition probabilities many times per round
(entropy ranking, marginal utilities); the engine memoizes results keyed
by the (hashable) condition and invalidates whenever the constraint store
version changes, i.e. whenever a crowd answer could alter a distribution.
The result cache is LRU-bounded: long crowdsourcing runs otherwise grow
it monotonically with stale-version entries that are never evicted.

:meth:`ProbabilityEngine.probability_many` is the batch entry point.  It
deduplicates conditions, serves cached results, and -- when
:func:`repro.parallel.decide_workers` approves -- partitions the
independent conditions across the shared-memory process pool of
:mod:`repro.parallel`: the frozen store snapshot is published to shared
memory once per batch (workers attach lazily and cache per process)
instead of being pickled into every chunk payload.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ctable.condition import Condition
from ..ctable.expression import Expression
from ..errors import ResourceBudgetError
from ..lru import LRUCache
from ..parallel import (
    PoolDecision,
    SharedArrayBundle,
    attach_arrays,
    decide_workers,
    detach_all,
    run_sharded,
    usable_cpu_count,
)
from .adpll import ADPLL
from .approxcount import adaptive_approx_probability, approx_probability
from .distributions import DistributionStore
from .guard import CircuitBreaker, GuardedProbability
from .naive import naive_probability

#: Supported computation methods.
METHODS = ("adpll", "naive", "approx")

#: The one value each inert keyword of :class:`ProbabilityEngine` accepts.
INERT_KEYWORDS = {
    "backend": "adpll",
    "compile_node_budget": 200_000,
    "circuit_cache_size": 16_384,
}

#: Default bound on the condition-probability cache.
DEFAULT_CACHE_SIZE = 65_536

#: Below this many uncached conditions a pool is never worth its fork +
#: pickling overhead; the batch falls back to the in-process path.
MIN_CONDITIONS_PER_WORKER = 8

#: Pool decisions for runs that never reach the pool policy, recorded so
#: ``stats()['pool_decision']`` always describes the *actual* run (the
#: fig03 sequential row used to report the pre-init placeholder).
_DECISION_SCALAR = PoolDecision(1, "sequential: scalar per-condition path")
_DECISION_ALL_CACHED = PoolDecision(1, "sequential: batch fully served from cache")


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


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalize an ``n_jobs`` knob: ``None``/1 sequential, 0 = all cores."""
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs == 0:
        return usable_cpu_count()
    return max(1, n_jobs)


#: Per-process cache of stores rebuilt from shared memory, keyed by the
#: bundle handle: chunks of one batch landing on the same worker reuse
#: the rebuilt store (and its warm caches) instead of re-attaching.
_WORKER_STORES: Dict[tuple, DistributionStore] = {}


def _worker_store(handle) -> DistributionStore:
    store = _WORKER_STORES.get(handle.key)
    if store is None:
        store = DistributionStore.from_packed(attach_arrays(handle))
        _WORKER_STORES.clear()  # one live snapshot per worker is enough
        _WORKER_STORES[handle.key] = store
    return store


def _compute_chunk(payload) -> List[float]:
    """Pool worker: solve one chunk of conditions against the shared store.

    Module-level so it pickles by reference; the payload carries only a
    :class:`SharedArrayHandle` to the published snapshot plus the
    conditions themselves -- the pmf data never rides in the pickle.
    """
    handle, method, conditions, approx_samples, seed = payload
    store = _worker_store(handle)
    if method == "adpll":
        solver = ADPLL(store)
        return [solver.probability(condition) for condition in conditions]
    if method == "naive":
        return [naive_probability(condition, store) for condition in conditions]
    rng = np.random.default_rng(seed)
    return [
        approx_probability(
            condition, store, n_samples=approx_samples, rng=rng
        ).probability
        for condition in conditions
    ]


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
        n_jobs: int = 1,
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
        given = {
            "backend": backend,
            "compile_node_budget": compile_node_budget,
            "circuit_cache_size": circuit_cache_size,
        }
        for name, value in given.items():
            if value != INERT_KEYWORDS[name]:
                raise ValueError(
                    "%s is inert and accepts only %r, got %r"
                    % (name, INERT_KEYWORDS[name], value)
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
        #: default worker count for :meth:`probability_many`
        self.n_jobs = resolve_n_jobs(n_jobs)
        #: cooperative cancellation token (None = not attached); checked
        #: at per-condition boundaries so a session cancel/deadline stops
        #: the engine between conditions, never mid-solve
        self._cancellation = None
        #: condition -> (probability, store version when computed)
        self._cache: "LRUCache[Condition, Tuple[float, int]]" = LRUCache(cache_size)
        self.n_computations = 0
        self.n_cache_hits = 0
        # --- batch/pool perf counters ---------------------------------
        self.n_batches = 0
        self.n_batch_conditions = 0
        self.n_batch_pending = 0
        self.n_parallel_chunks = 0
        self.parallel_seconds = 0.0
        self.batch_seconds = 0.0
        #: last pool auto-selection decision (see repro.parallel)
        self._pool_decision = PoolDecision(1, "sequential: no batch computed yet")
        #: per-chunk wall times of the last parallel batch
        self.parallel_worker_seconds: List[float] = []

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
        self._pool_decision = _DECISION_SCALAR
        value = self._compute(condition)
        self.n_computations += 1
        if self._use_cache:
            self._cache[condition] = (value, self.store.version)
        return value

    def probability_many(
        self,
        conditions: Sequence[Condition],
        n_jobs: Optional[int] = None,
        chunk_size: Optional[int] = None,
        # forest residue: drivers.replay_query passes it (ROADMAP item 1)
        objects: Optional[Sequence[int]] = None,
    ) -> List[float]:
        """``Pr(condition)`` for every condition, batched.

        Identical conditions are computed once and cached results are
        reused.  With
        ``n_jobs > 1`` the uncached conditions are partitioned across a
        process pool; conditions are independent given the store snapshot,
        so chunks need no coordination.  Falls back to the sequential path
        for small batches where a pool cannot amortize its startup.
        """
        start = time.perf_counter()
        n_jobs = self.n_jobs if n_jobs is None else resolve_n_jobs(n_jobs)
        version = self.store.version
        results: Dict[Condition, float] = {}
        pending: List[Condition] = []
        seen = set()
        for condition in conditions:
            # Dedup up front (Condition hashes canonically): duplicates in
            # the batch are computed once.
            if condition in seen:
                continue
            seen.add(condition)
            if condition.is_constant:
                results[condition] = 1.0 if condition.is_true else 0.0
                continue
            if self._use_cache:
                value = self._cached(condition, version)
                if value is not None:
                    self.n_cache_hits += 1
                    results[condition] = value
                    continue
            pending.append(condition)

        self.n_batch_pending += len(pending)
        if pending:
            computed = self._compute_batch(pending, n_jobs, chunk_size)
            self.n_computations += len(pending)
            for condition, value in zip(pending, computed):
                results[condition] = value
                if self._use_cache:
                    self._cache[condition] = (value, version)
        else:
            self._pool_decision = _DECISION_ALL_CACHED

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

    def _compute_batch(
        self,
        pending: List[Condition],
        n_jobs: int,
        chunk_size: Optional[int],
    ) -> List[float]:
        """Pool auto-selection, then per-condition."""
        # The guard's circuit-breaker state cannot be shared across a
        # process pool, so guarded batches always run in-process;
        # everything else goes through the substrate's auto-selection
        # (single-core hosts, oversubscribed n_jobs and small batches
        # all fall back to sequential instead of paying pool overhead).
        if self.guard_active and n_jobs > 1:
            decision = PoolDecision(
                1, "sequential: resource guard active, breaker state is process-local"
            )
        else:
            decision = decide_workers(n_jobs, len(pending), MIN_CONDITIONS_PER_WORKER)
        self._pool_decision = decision
        if decision.parallel:
            return self._compute_parallel(pending, decision.n_workers, chunk_size)
        computed = []
        for condition in pending:
            if self._cancellation is not None:
                self._cancellation.check("probability")
            computed.append(self._compute(condition))
        return computed

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

    def _compute_parallel(
        self,
        pending: List[Condition],
        n_workers: int,
        chunk_size: Optional[int],
    ) -> List[float]:
        """Shard ``pending`` over the shared-memory pool; order-preserving.

        The frozen snapshot is published to shared memory once; chunk
        payloads carry only the handle and the conditions.  Pool
        *infrastructure* failures fall back to in-process execution
        inside :func:`repro.parallel.run_sharded`.
        """
        # Balance chunks by condition size: sort heavy-first, deal
        # round-robin, then restore the original order on merge.
        order = sorted(
            range(len(pending)),
            key=lambda i: -pending[i].n_expression_occurrences(),
        )
        if chunk_size is not None:
            n_chunks = max(1, -(-len(pending) // max(1, int(chunk_size))))
        else:
            n_chunks = n_workers
        chunks: List[List[int]] = [[] for __ in range(n_chunks)]
        for position, index in enumerate(order):
            chunks[position % n_chunks].append(index)
        chunks = [chunk for chunk in chunks if chunk]

        seeds = self._rng.integers(0, 2**31 - 1, size=len(chunks))
        bundle = SharedArrayBundle.publish(self.store.pack_snapshot())
        start = time.perf_counter()
        try:
            payloads = [
                (
                    bundle.handle,
                    self.method,
                    [pending[i] for i in chunk],
                    self._approx_samples,
                    int(seed),
                )
                for chunk, seed in zip(chunks, seeds)
            ]
            run = run_sharded(_compute_chunk, payloads, n_workers)
        finally:
            bundle.unlink()
            # run_sharded's in-process fallback attaches in this process;
            # rebuilt stores copy the pmfs, so unmapping is safe
            detach_all()
            self.parallel_seconds += time.perf_counter() - start
        self.n_parallel_chunks += len(chunks)
        self.parallel_worker_seconds = list(run.worker_seconds)
        out: List[float] = [0.0] * len(pending)
        for chunk, values in zip(chunks, run.results):
            for index, value in zip(chunk, values):
                out[index] = value
        return out

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
        """Perf counter snapshot (cache behavior, batch/pool activity)."""
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
            "parallel_chunks": self.n_parallel_chunks,
            "parallel_seconds": self.parallel_seconds,
            "pool_workers": self._pool_decision.n_workers,
            "pool_decision": self._pool_decision.reason,
            "probabilities_per_sec": (
                self.n_batch_conditions / self.batch_seconds
                if self.batch_seconds > 0
                else 0.0
            ),
            "n_jobs": self.n_jobs,
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
