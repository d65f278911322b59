"""Batched marginal-utility scoring for the selection phase.

UBS/HHS need ``G(o, e)`` (Eq. 4) for many candidate ``(condition,
expression)`` pairs per round.  The scalar path builds both residual
conditions ``phi[e:=true]`` / ``phi[e:=false]`` per candidate and solves
each, serially, and forgets everything between rounds.  The
:class:`UtilityEngine` scores a round's pairs together:

* a round's candidate pairs arrive together through :meth:`gains`;
* every finished gain is cached keyed ``(condition, expression)``
  together with the :class:`DistributionStore` version it was computed
  at; a later round revalidates entries via
  ``variables_unchanged_since``, so pairs untouched by newer crowd
  answers are free;
* the remaining pairs are grouped by condition, and
  :meth:`ProbabilityEngine.branch_probabilities` gives both branch
  probabilities of every pair it covers from one pass over the
  condition, building no residual (exact, unguarded ADPLL only; see
  :meth:`repro.probability.adpll.ADPLL.branch_probabilities`);
* the pairs it does not cover -- and every pair in ``"conditional"``
  mode (the conjunction ``phi ^ e``) -- take the residual path: the
  residual conditions are materialized once per distinct pair and
  LRU-cached (they are purely syntactic rewrites, so these entries never
  invalidate), deduplicated, and evaluated through one
  :meth:`ProbabilityEngine.probability_many` batch.

Gains match :func:`repro.core.utility.marginal_utility` (within 1e-12
where the kernel scores them, bit for bit on the residual path): both
paths share :func:`repro.core.utility.gain_from_probabilities`.

Counter semantics (surfaced via :meth:`stats` and the ``repro.obs``
verifier): every pair passed to :meth:`gains` increments
``utility_candidates_total`` and exactly one of ``utility_evals_total``
(a fresh gain computation, by the kernel or the residual path),
``residual_cache_hits`` (served from the cross-round gain cache or a
duplicate within the batch) or ``utility_skipped_total``
(short-circuited at ``H(o) == 0``).  ``utility_probability_requests``,
``_submitted`` and ``_computed`` count only the residual path's branch
lookups.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..ctable.condition import Condition
from ..ctable.expression import Expression
from ..lru import LRUCache
from ..probability.engine import ProbabilityEngine
from .utility import UTILITY_MODES, conjoin, entropy, gain_from_probabilities

#: Default bound on the gain and residual-condition caches.
DEFAULT_UTILITY_CACHE_SIZE = 65_536

#: A candidate pair: one object's condition and one of its expressions.
CandidatePair = Tuple[Condition, Expression]


class UtilityEngine:
    """Batched, cached ``G(o, e)`` evaluation against one probability engine."""

    def __init__(
        self,
        engine: ProbabilityEngine,
        mode: str = "syntactic",
        cache_size: int = DEFAULT_UTILITY_CACHE_SIZE,
    ) -> None:
        if mode not in UTILITY_MODES:
            raise ValueError("unknown utility mode %r" % mode)
        self.engine = engine
        self.mode = mode
        #: (condition, expression) -> (gain, store version when computed)
        self._gains: "LRUCache[CandidatePair, Tuple[float, int]]" = LRUCache(cache_size)
        #: (condition, expression, truth) -> residual condition; truth is
        #: None for the "conditional" mode's conjunction
        self._residuals: "LRUCache[Tuple[Condition, Expression, Optional[bool]], Condition]" = (
            LRUCache(cache_size)
        )
        self.candidates_total = 0
        self.evals_total = 0
        self.cache_hits = 0
        self.skipped_total = 0
        self.batches = 0
        #: residual conditions handed to :meth:`gains`' residual path,
        #: before within-batch dedup
        self.probability_requests = 0
        #: distinct conditions actually submitted to ``probability_many``
        self.probability_submitted = 0
        #: fresh solves those submissions actually triggered (the rest
        #: were served by the engine's version-validated LRU)
        self.probability_computed = 0
        self.seconds = 0.0

    # ------------------------------------------------------------------
    def gains(self, pairs: Sequence[CandidatePair]) -> List[float]:
        """``G(o, e)`` for every pair, served from cache where possible.

        One call per round (or per HHS chunk) replaces the scalar path's
        per-candidate serial ADPLL calls: the base conditions of all
        cache-missing pairs go through one ``probability_many`` batch,
        the kernel scores what it covers, and the residuals of the rest
        go through a second batch.
        """
        if not pairs:
            return []
        start = time.perf_counter()
        store = self.engine.store
        version = store.version
        out: List[Optional[float]] = [None] * len(pairs)
        #: first-seen order of cache-missing pairs -> their output indices
        fresh: Dict[CandidatePair, List[int]] = {}
        for i, pair in enumerate(pairs):
            self.candidates_total += 1
            indices = fresh.get(pair)
            if indices is not None:
                # Duplicate within the batch: computed once, served twice.
                self.cache_hits += 1
                indices.append(i)
                continue
            cached = self._gains.get(pair)
            if cached is not None:
                value, cached_version = cached
                if cached_version == version or store.variables_unchanged_since(
                    self._pair_variables(pair), cached_version
                ):
                    self.cache_hits += 1
                    out[i] = value
                    continue
            fresh[pair] = [i]

        if fresh:
            ordered = list(fresh)
            base_probs = self.engine.probability_many([c for c, __ in ordered])
            pending: List[Tuple[CandidatePair, float]] = []
            for pair, p_phi in zip(ordered, base_probs):
                if entropy(p_phi) == 0.0:
                    # Decided (or numerically certain) objects carry no
                    # information to gain; no residual work needed.
                    self.skipped_total += 1
                    self._finish(pair, 0.0, version, fresh, out)
                else:
                    pending.append((pair, p_phi))
            if pending:
                branches = self._kernel_branches(pending)
                residual = [item for item in pending if item[0] not in branches]
                if residual:
                    conditions = self._branch_conditions(residual)
                    self.probability_requests += len(conditions)
                    probs = iter(self._probability_many(conditions))
                    per_pair = len(conditions) // len(residual)
                    for pair, __ in residual:
                        branches[pair] = (
                            next(probs),
                            next(probs) if per_pair == 2 else 0.0,
                        )
                for pair, p_phi in pending:
                    p_true, p_false = branches[pair]
                    gain = gain_from_probabilities(
                        p_phi,
                        store.prob_expression(pair[1]),
                        p_true,
                        p_false,
                        mode=self.mode,
                    )
                    self.evals_total += 1
                    self._finish(pair, gain, version, fresh, out)
            self.batches += 1

        self.seconds += time.perf_counter() - start
        return out  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _kernel_branches(
        self, pending: Sequence[Tuple[CandidatePair, float]]
    ) -> Dict[CandidatePair, Tuple[float, float]]:
        """Both syntactic branches of every pair the engine's one-pass
        kernel covers, asked once per condition with its pending
        expressions (:meth:`ProbabilityEngine.branch_probabilities`)."""
        branches: Dict[CandidatePair, Tuple[float, float]] = {}
        if self.mode != "syntactic":
            return branches
        by_condition: Dict[Condition, List[Expression]] = {}
        for (condition, expression), __ in pending:
            by_condition.setdefault(condition, []).append(expression)
        for condition, expressions in by_condition.items():
            covered = self.engine.branch_probabilities(condition, expressions)
            for expression, branch in covered.items():
                branches[(condition, expression)] = branch
        return branches

    @staticmethod
    def _pair_variables(pair: CandidatePair):
        condition, expression = pair
        return condition.variables().union(expression.variables())

    def _branch_conditions(
        self, pending: Sequence[Tuple[CandidatePair, float]]
    ) -> List[Condition]:
        """Residual conditions of every pending pair, in pair order."""
        branches: List[Condition] = []
        if self.mode == "syntactic":
            for (condition, expression), __ in pending:
                branches.append(self._residual(condition, expression, True))
                branches.append(self._residual(condition, expression, False))
        else:
            for (condition, expression), __ in pending:
                branches.append(self._residual(condition, expression, None))
        return branches

    def _residual(
        self, condition: Condition, expression: Expression, truth: Optional[bool]
    ) -> Condition:
        """``phi[e:=truth]`` (or ``phi ^ e`` for ``truth=None``), cached.

        Residuals are syntactic rewrites of immutable conditions: the
        cache needs no version validation, only LRU bounding.
        """
        key = (condition, expression, truth)
        residual = self._residuals.get(key)
        if residual is None:
            if truth is None:
                residual = conjoin(condition, expression)
            else:
                residual = condition.assign_expression(expression, truth)
            self._residuals[key] = residual
        return residual

    def _probability_many(self, conditions: Sequence[Condition]) -> List[float]:
        """Engine batch with explicit within-batch dedup accounting."""
        unique: List[Condition] = []
        seen = set()
        for condition in conditions:
            if condition not in seen:
                seen.add(condition)
                unique.append(condition)
        self.probability_submitted += len(unique)
        computed_before = self.engine.n_computations
        values = self.engine.probability_many(unique)
        self.probability_computed += self.engine.n_computations - computed_before
        lookup = dict(zip(unique, values))
        return [lookup[condition] for condition in conditions]

    def _finish(
        self,
        pair: CandidatePair,
        value: float,
        version: int,
        fresh: Dict[CandidatePair, List[int]],
        out: List[Optional[float]],
    ) -> None:
        self._gains[pair] = (value, version)
        indices = fresh[pair]
        for i in indices:
            out[i] = value

    # ------------------------------------------------------------------
    @property
    def dedup_ratio(self) -> float:
        """Fraction of probability requests removed by within-batch dedup."""
        if self.probability_requests == 0:
            return 0.0
        return 1.0 - self.probability_submitted / self.probability_requests

    def stats(self) -> Dict[str, float]:
        """Counter snapshot under the names the obs layer exports."""
        return {
            "utility_candidates_total": self.candidates_total,
            "utility_evals_total": self.evals_total,
            "residual_cache_hits": self.cache_hits,
            "utility_skipped_total": self.skipped_total,
            "utility_batches": self.batches,
            "utility_probability_requests": self.probability_requests,
            "utility_probability_submitted": self.probability_submitted,
            "utility_probability_computed": self.probability_computed,
            "utility_batch_dedup_ratio": float(self.dedup_ratio),
            "utility_gain_cache_size": len(self._gains),
            "utility_residual_cache_size": len(self._residuals),
            "utility_batch_seconds": float(self.seconds),
        }
