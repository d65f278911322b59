"""Step two of each iteration: expression (task) selection strategies.

Given the entropy-ranked top-k objects, each strategy picks one expression
from each chosen object's condition (Section 6.2):

* **FBS** (frequency-based): the expression appearing most often across
  the chosen objects' conditions -- answering it simplifies many
  conditions at once.  Cheapest, least accurate.
* **UBS** (utility-based): the expression with the highest marginal
  utility ``G(o, e)`` (Eq. 4).  Most accurate, needs many probability
  computations.
* **HHS** (hybrid heuristic, Algorithm 4): scans expressions in
  non-ascending frequency order, computing utilities, and stops early once
  ``m`` consecutive expressions fail to improve on the best seen.

All strategies honour the round's conflict rule by never picking an
expression that touches an already-banned variable.

When :attr:`SelectionContext.utility_engine` is set, UBS and HHS become
thin policies over batched gain tables: :meth:`prefetch_round` warms the
:class:`repro.core.utility_engine.UtilityEngine` with one batch per
round (HHS only with each condition's first frequency-ordered chunk of
size ``m``, preserving its early-stop cost profile), and the per-object
walk is then served from the gain cache.  The engine scores most pairs
from one pass per condition instead of solving residual conditions.
Prefetching is sound because gains do not depend on the round's growing
banned-variable set -- only candidate *eligibility* does, and that is
still filtered per object at selection time.

The scalar path (no utility engine) calls
:func:`repro.core.utility.marginal_utility` per candidate, solving both
residual conditions.  It is the reference: the batched gains match it
within 1e-12, so the two paths select the same expressions unless two
candidates' gains tie to within that.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

from ..ctable.condition import Condition
from ..ctable.expression import Expression
from ..datasets.dataset import Variable
from ..probability.engine import ProbabilityEngine
from .utility import entropy, marginal_utility
from .utility_engine import UtilityEngine


@dataclass
class SelectionContext:
    """Shared state for one round of expression selection."""

    engine: ProbabilityEngine
    #: occurrences of each expression across the chosen objects' conditions
    frequencies: Counter = field(default_factory=Counter)
    utility_mode: str = "syntactic"
    #: fresh utility evaluations performed this round (actual ADPLL work;
    #: candidates served from the batched gain cache do not count)
    utility_evaluations: int = 0
    #: candidates short-circuited at ``H(o) == 0`` without ADPLL work
    utility_skipped: int = 0
    #: probability lookups the scalar path issued while scoring (one per
    #: ``H(o)`` probe plus base + residual lookups per candidate); the
    #: batched path tracks the equivalent inside the engine instead
    probability_requests: int = 0
    #: fresh ADPLL solves those scalar lookups actually triggered
    probability_computed: int = 0
    #: batched gain scorer; ``None`` selects the scalar per-candidate path
    utility_engine: Optional[UtilityEngine] = None


def expression_frequencies(conditions: Sequence[Condition]) -> Counter:
    """Occurrence counts of expressions across a set of conditions.

    Repeated occurrences inside one condition all count, matching "the
    expression appearance times in conditions of the chosen top-k objects".
    Sums each condition's memoized :meth:`Condition.expression_counts`, so
    per-round recounts share work across rounds.
    """
    counts: Counter = Counter()
    for condition in conditions:
        counts.update(condition.expression_counts())
    return counts


def _eligible(
    condition: Condition, banned: Set[Variable]
) -> List[Expression]:
    """Distinct expressions of a condition not touching banned variables."""
    out = []
    for expression in sorted(condition.distinct_expressions(), key=Expression.sort_key):
        if not banned.intersection(expression.variables()):
            out.append(expression)
    return out


def _frequency_order(
    expressions: List[Expression], frequencies: Counter
) -> List[Expression]:
    """Non-ascending frequency; ties break on the canonical sort key.

    The explicit secondary key makes the order independent of the input
    list's order (and therefore of ``Counter`` iteration order), which
    previously leaked into HHS's scan order.
    """
    return sorted(expressions, key=lambda e: (-frequencies[e], e.sort_key()))


def _scored(
    condition: Condition,
    candidates: Sequence[Expression],
    context: SelectionContext,
) -> List[float]:
    """``G(condition, e)`` for each candidate, batched when possible.

    The scalar fallback reproduces the historical per-candidate loop
    (including its ``H(o) == 0`` short-circuit, now counted separately as
    ``utility_skipped``); with a :class:`UtilityEngine` the whole chunk is
    served from one deduplicated, cross-round-cached batch.
    """
    scorer = context.utility_engine
    if scorer is not None:
        evals_before = scorer.evals_total
        skipped_before = scorer.skipped_total
        gains = scorer.gains([(condition, e) for e in candidates])
        context.utility_evaluations += scorer.evals_total - evals_before
        context.utility_skipped += scorer.skipped_total - skipped_before
        return gains
    engine = context.engine
    computed_before = engine.n_computations
    context.probability_requests += 1  # the H(o) probe below
    h_now = entropy(engine.probability(condition))
    # Each marginal_utility call looks up Pr(phi) again plus the residual
    # branch(es): two in syntactic mode, one conjunction in conditional.
    per_eval = 3 if context.utility_mode == "syntactic" else 2
    gains = []
    for expression in candidates:
        if h_now == 0.0:
            context.utility_skipped += 1
            gains.append(0.0)
            continue
        gains.append(
            marginal_utility(condition, expression, engine, mode=context.utility_mode)
        )
        context.utility_evaluations += 1
        context.probability_requests += per_eval
    context.probability_computed += engine.n_computations - computed_before
    return gains


class TaskSelectionStrategy(ABC):
    """Picks one expression per chosen object, avoiding banned variables."""

    name: str = "base"

    def prefetch_round(
        self,
        conditions: Sequence[Condition],
        context: SelectionContext,
        banned: Set[Variable],
    ) -> None:
        """Warm the batched scorer with a round's candidates (no-op default).

        Called once per round with the chosen top-k conditions before the
        per-object selection walk; strategies that score utilities override
        it to move all fresh ADPLL work into one global deduplicated batch.
        """

    @abstractmethod
    def select_expression(
        self,
        condition: Condition,
        context: SelectionContext,
        banned: Set[Variable],
    ) -> Optional[Expression]:
        """The chosen expression, or ``None`` if every candidate conflicts."""


class FrequencyStrategy(TaskSelectionStrategy):
    """FBS: most frequent expression first."""

    name = "fbs"

    def select_expression(
        self,
        condition: Condition,
        context: SelectionContext,
        banned: Set[Variable],
    ) -> Optional[Expression]:
        candidates = _eligible(condition, banned)
        if not candidates:
            return None
        return _frequency_order(candidates, context.frequencies)[0]


class UtilityStrategy(TaskSelectionStrategy):
    """UBS: highest marginal utility, evaluating every candidate."""

    name = "ubs"

    def prefetch_round(
        self,
        conditions: Sequence[Condition],
        context: SelectionContext,
        banned: Set[Variable],
    ) -> None:
        if context.utility_engine is None:
            return
        pairs = []
        for condition in conditions:
            for expression in _eligible(condition, banned):
                pairs.append((condition, expression))
        _prefetch(pairs, context)

    def select_expression(
        self,
        condition: Condition,
        context: SelectionContext,
        banned: Set[Variable],
    ) -> Optional[Expression]:
        candidates = _eligible(condition, banned)
        if not candidates:
            return None
        gains = _scored(condition, candidates, context)
        best = None
        best_gain = -1.0
        for expression, gain in zip(candidates, gains):
            if gain > best_gain:
                best_gain = gain
                best = expression
        return best


class HybridStrategy(TaskSelectionStrategy):
    """HHS: frequency-ordered utility scan with early stop after ``m`` misses."""

    name = "hhs"

    def __init__(self, m: int = 15) -> None:
        if m < 1:
            raise ValueError("m must be at least 1")
        self.m = m

    def prefetch_round(
        self,
        conditions: Sequence[Condition],
        context: SelectionContext,
        banned: Set[Variable],
    ) -> None:
        if context.utility_engine is None:
            return
        # Only each condition's first frequency-ordered chunk: the scan
        # usually stops within the first ``m`` candidates, so prefetching
        # further would evaluate gains the early stop was meant to skip.
        pairs = []
        for condition in conditions:
            candidates = _eligible(condition, banned)
            ordered = _frequency_order(candidates, context.frequencies)
            for expression in ordered[: self.m]:
                pairs.append((condition, expression))
        _prefetch(pairs, context)

    def select_expression(
        self,
        condition: Condition,
        context: SelectionContext,
        banned: Set[Variable],
    ) -> Optional[Expression]:
        candidates = _eligible(condition, banned)
        if not candidates:
            return None
        ordered = _frequency_order(candidates, context.frequencies)
        # With a batched scorer, request gains in frequency-ordered chunks
        # of size m (the most the early stop can consume before deciding);
        # the scalar path keeps chunk size 1, i.e. the historical loop.
        chunk = self.m if context.utility_engine is not None else 1
        best = None
        best_gain = -1.0
        misses = 0
        position = 0
        while position < len(ordered):
            batch = ordered[position : position + chunk]
            gains = _scored(condition, batch, context)
            position += len(batch)
            for expression, gain in zip(batch, gains):
                if gain > best_gain:
                    best_gain = gain
                    best = expression
                    misses = 0
                else:
                    misses += 1
                    if misses == self.m:
                        return best
        return best


def _prefetch(pairs, context: SelectionContext) -> None:
    """Push a pair batch through the scorer, keeping context counters true."""
    scorer = context.utility_engine
    if scorer is None or not pairs:
        return
    evals_before = scorer.evals_total
    skipped_before = scorer.skipped_total
    scorer.gains(pairs)
    context.utility_evaluations += scorer.evals_total - evals_before
    context.utility_skipped += scorer.skipped_total - skipped_before


#: Registry used by the configuration layer.
def make_strategy(name: str, m: int = 15) -> TaskSelectionStrategy:
    """Instantiate a strategy by its paper name (``fbs`` / ``ubs`` / ``hhs``)."""
    name = name.lower()
    if name == "fbs":
        return FrequencyStrategy()
    if name == "ubs":
        return UtilityStrategy()
    if name == "hhs":
        return HybridStrategy(m=m)
    raise ValueError("unknown strategy %r (expected fbs, ubs or hhs)" % name)
