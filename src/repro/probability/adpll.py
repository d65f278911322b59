"""ADPLL: adaptive DPLL search for condition probabilities (Algorithm 3).

Computing ``Pr(phi(o))`` is at least as hard as #SAT (weighted model
counting): variables range over multi-value discrete domains instead of
{0, 1}.  ADPLL adapts DPLL-style model counting:

* when the condition is constant the answer is immediate;
* when the clauses are *independent* (no variable appears in two different
  expressions) the probability follows directly from the special
  conjunctive rule ``Pr(p ^ q) = Pr(p) * Pr(q)`` and the general
  disjunctive rule ``Pr(p v q) = 1 - Pr(!p ^ !q)``;
* otherwise it branches on the variable occurring most often, summing
  ``p(v = a) * Pr(phi[v := a])`` over the variable's support, which breaks
  clause correlation "as quickly as possible".

On top of the paper's algorithm this implementation adds two standard
model-counting refinements (both can be disabled for ablation):

* **connected-component decomposition** -- clauses sharing no variable
  factorize, so each component is solved independently and multiplied;
* **sub-condition memoization** -- identical residual conditions reached
  along different branches are computed once.

A third refinement is always on: the **hub kernel**.  In ``phi(o)`` the
object's own missing variable typically appears in every clause, while each
dominator's variables appear only in that dominator's clause.  So a
branch usually fixes one shared ("hub") variable and leaves residuals
in which every variable occurs once.  When that holds, the branch
skips building ``phi[x := v]`` for each value and evaluates
``sum_v p(x = v) * Pr(phi[x := v])`` in one pass over the clauses
(:func:`_hub_probability`).  It applies under the faithful
``use_components=False, use_memo=False`` ablation too, and stays exact
there: each residual is variable-disjoint, so Algorithm 3 itself would
answer it with the conjunctive and disjunctive rules.  The kernel
applies the same rules to the same expression probabilities, only
without building the residual conditions or caching them in the memo.
Every other branch keeps the substitute-and-recurse loop.

Exact model counting is worst-case exponential, so the solver can run
under a **resource guard**: ``node_budget`` bounds the branch nodes one
``probability`` call may expand and ``deadline_s`` its wall time; on
exhaustion the call raises :class:`repro.errors.ResourceBudgetError`
(callers degrade to sampling; see :mod:`repro.probability.guard`).  The
memo is only written after a subtree completes, so an aborted call never
poisons it, and a guarded call that does *not* trip returns bit-for-bit
the same value as an unguarded one.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, bisect_right
from typing import Callable, List, Optional, Tuple

from ..ctable.condition import Condition
from ..ctable.expression import Var
from ..datasets.dataset import Variable
from ..errors import ResourceBudgetError
from ..lru import LRUCache
from .distributions import DistributionStore

#: Default bound on the sub-condition memo table.  Long crowdsourcing
#: runs accumulate stale-version entries (conditions whose variables were
#: constrained later are never looked up again); LRU eviction caps the
#: table while keeping the recently hot residuals.
DEFAULT_MEMO_SIZE = 262_144

#: available branching-variable heuristics (shared with the circuit
#: compiler, which splits on the same variable order):
#: ``frequency``  -- most occurrences in the condition (the paper's);
#: ``min_domain`` -- smallest domain under ``domain_size`` (fail-first);
#: ``first``      -- smallest variable id (arbitrary-but-fixed control).
BRANCH_HEURISTICS = ("frequency", "min_domain", "first")


def pick_branch_variable(
    condition: Condition,
    heuristic: str = "frequency",
    domain_size: Optional[Callable[[Variable], int]] = None,
) -> Variable:
    """The next variable to split on, shared by ADPLL and the compiler.

    ``domain_size`` supplies the per-variable size for ``min_domain``
    (ADPLL passes remaining support, the compiler the base domain).  Ties
    break on the smallest variable id so runs are reproducible (the paper
    breaks ties randomly).
    """
    counts = condition.variable_counts()
    if heuristic == "frequency":
        return min(counts, key=lambda v: (-counts[v], v))
    if heuristic == "min_domain":
        if domain_size is None:
            raise ValueError("min_domain needs a domain_size callback")
        return min(counts, key=lambda v: (domain_size(v), v))
    return min(counts)


def _independent_probability(condition: Condition, store: DistributionStore) -> float:
    """Direct evaluation via the conjunctive + disjunctive rules.

    Accumulated in log space: a wide clause's complement product
    ``prod(1 - p_i)`` multiplies many factors near 1 (tiny ``p_i``), where
    the naive running-product loop loses one ulp per step and can drift
    past the engine's 1e-9 parity budget -- and a long conjunction of
    near-zero clause probabilities underflows to 0 earlier than the log
    sum does.  ``fsum(log1p(-p))`` keeps both exact to the last rounding.
    """
    log_result = 0.0
    for clause in condition.clauses:
        log_none_true = []
        certain = False
        for expression in clause:
            p = store.prob_expression(expression)
            if p >= 1.0:
                # A certainly-true expression satisfies the clause: the
                # factor is exactly 1 (log1p(-1) would raise instead).
                certain = True
                break
            log_none_true.append(math.log1p(-p))
        if certain:
            continue
        clause_p = -math.expm1(math.fsum(log_none_true))
        if clause_p <= 0.0:
            return 0.0
        log_result += math.log(clause_p)
    return math.exp(log_result)


def _hub_probability(
    condition: Condition,
    hub: Variable,
    values: List[int],
    weights: List[float],
    store: DistributionStore,
) -> float:
    """``sum_v weight_v * Pr(condition[hub := v])`` in one pass over the clauses.

    Valid when every variable other than ``hub`` occurs exactly once, so
    every residual ``condition[hub := v]`` is variable-disjoint.  The
    result is what substituting each value and applying
    :func:`_independent_probability` to the residual gives, with the same
    certain-clause and zero-clause rules, but no residual is built:

    * an expression without ``hub`` keeps its probability for every value,
      so its ``log1p(-p)`` is summed once per clause;
    * ``hub > c`` / ``c > hub`` make the clause certain for ``v > c`` /
      ``v < c`` and vanish otherwise;
    * ``hub > y`` / ``y > hub`` become ``v > y`` / ``y > v``, read from
      ``y``'s cumulative arrays (:meth:`DistributionStore.tails`).

    Each value keeps its own running log of the clause product; a clause
    that cannot hold sends it to ``-inf``.
    ``values`` must be ascending, as :meth:`DistributionStore.support`
    returns them.
    """
    log1p = math.log1p
    log_prob = [0.0] * len(values)
    for clause in condition.clauses:
        static = []  # log1p(-p) of the expressions without the hub
        above = math.inf  # the clause is certain for v > above ...
        below = -math.inf  # ... and for v < below
        partners = []  # (cumulative array as a list, hub is the left side)
        for expression in clause:
            variables = expression.variables()
            if hub not in variables:
                p = store.prob_expression(expression)
                if p >= 1.0:
                    break  # certain for every value
                static.append(log1p(-p))
            elif len(variables) == 1:
                if isinstance(expression.left, Var):  # hub > c
                    c = expression.right.value
                    if c < above:
                        above = c
                else:  # c > hub
                    c = expression.left.value
                    if c > below:
                        below = c
            elif variables[0] == hub:
                if variables[1] != hub:  # hub > y: Pr(y < v)
                    partners.append((store.tails(variables[1])[1].tolist(), True))
            else:  # y > hub: Pr(y > v)
                partners.append((store.tails(variables[0])[0].tolist(), False))
        else:
            # only values[lo:hi] leave every hub-vs-constant expression false
            lo = bisect_left(values, below)
            hi = bisect_right(values, above)
            static_sum = math.fsum(static)
            if not partners:
                clause_p = -math.expm1(static_sum)
                log_p = math.log(clause_p) if clause_p > 0.0 else -math.inf
                for i in range(lo, hi):
                    log_prob[i] += log_p
                continue
            for i in range(lo, hi):
                v = values[i]
                terms = [static_sum]
                for tail, hub_left in partners:
                    # lt[0] = 0 exactly; past the domain y < v always holds
                    # and y > v never does
                    if v < len(tail):
                        p = tail[v]
                    else:
                        p = 1.0 if hub_left else 0.0
                    if p >= 1.0:
                        break
                    terms.append(log1p(-p))
                else:
                    clause_p = -math.expm1(math.fsum(terms))
                    log_prob[i] += math.log(clause_p) if clause_p > 0.0 else -math.inf
    total = 0.0
    for weight, log_p in zip(weights, log_prob):
        total += weight * math.exp(log_p)
    return total


class ADPLL:
    """Reusable ADPLL solver bound to one distribution store.

    ``use_components`` / ``use_memo`` toggle the refinements for ablation;
    with both off, :meth:`probability` is a faithful rendering of the
    paper's Algorithm 3 (with deterministic smallest-variable tie-breaking
    instead of a random one, for reproducibility).
    """

    #: see the module-level :data:`BRANCH_HEURISTICS` (shared with the
    #: circuit compiler); kept as a class attribute for callers
    BRANCH_HEURISTICS = BRANCH_HEURISTICS

    def __init__(
        self,
        store: DistributionStore,
        use_components: bool = True,
        use_memo: bool = True,
        branch_heuristic: str = "frequency",
        use_absorption: bool = False,
        memo_size: int = DEFAULT_MEMO_SIZE,
        node_budget: int = 0,
        deadline_s: float = 0.0,
    ) -> None:
        if branch_heuristic not in self.BRANCH_HEURISTICS:
            raise ValueError(
                "unknown branch heuristic %r; expected one of %r"
                % (branch_heuristic, self.BRANCH_HEURISTICS)
            )
        if node_budget < 0:
            raise ValueError("node_budget must be non-negative (0 = unlimited)")
        if deadline_s < 0:
            raise ValueError("deadline_s must be non-negative (0 = no deadline)")
        self._store = store
        self._use_components = use_components
        self._use_memo = use_memo
        self._branch_heuristic = branch_heuristic
        self._use_absorption = use_absorption
        #: per-call cap on branch nodes (0 = unlimited)
        self.node_budget = int(node_budget)
        #: per-call wall-clock deadline in seconds (0 = none)
        self.deadline_s = float(deadline_s)
        #: condition -> (probability, store version when computed), bounded
        #: LRU (``memo_size <= 0`` keeps it unbounded)
        self._memo: "LRUCache[Condition, Tuple[float, int]]" = LRUCache(memo_size)
        #: number of branching (variable assignment) steps taken so far
        self.branch_count = 0
        #: probability calls aborted by the resource guard
        self.guard_trips = 0
        self._call_branch_start = 0
        self._deadline_at: Optional[float] = None

    def probability(self, condition: Condition) -> float:
        """``Pr(condition)`` under the store's current distributions.

        With a ``node_budget`` or ``deadline_s`` configured, raises
        :class:`ResourceBudgetError` when this one call exceeds either;
        the memo stays clean (only completed subtrees are ever cached).
        """
        self._call_branch_start = self.branch_count
        self._deadline_at = (
            time.perf_counter() + self.deadline_s if self.deadline_s > 0 else None
        )
        try:
            return self._probability(condition)
        except ResourceBudgetError:
            self.guard_trips += 1
            raise
        finally:
            self._deadline_at = None

    def _check_guards(self) -> None:
        if self.node_budget:
            spent = self.branch_count - self._call_branch_start
            if spent >= self.node_budget:
                raise ResourceBudgetError(
                    "ADPLL node budget", float(spent), float(self.node_budget)
                )
        if self._deadline_at is not None:
            now = time.perf_counter()
            if now >= self._deadline_at:
                raise ResourceBudgetError(
                    "ADPLL deadline",
                    self.deadline_s + (now - self._deadline_at),
                    self.deadline_s,
                )

    # ------------------------------------------------------------------
    def _memo_get(self, condition: Condition) -> Optional[float]:
        cached = self._memo.get(condition)
        if cached is None:
            return None
        value, cached_version = cached
        version = self._store.version
        if cached_version == version:
            return value
        if self._store.variables_unchanged_since(condition.variables(), cached_version):
            # The scan proved the entry still valid at the current version:
            # store that, so the next hit matches on version equality
            # instead of re-paying the per-variable scan every time.
            self._memo[condition] = (value, version)
            return value
        return None

    def _probability(self, condition: Condition) -> float:
        if condition.is_true:
            return 1.0
        if condition.is_false:
            return 0.0
        if self._use_memo:
            cached = self._memo_get(condition)
            if cached is not None:
                return cached
        if condition.is_variable_disjoint():
            result = _independent_probability(condition, self._store)
        elif self._use_components:
            result = 1.0
            for component in condition.connected_components():
                result *= self._solve_component(component)
        else:
            result = self._branch(condition)
        if self._use_memo:
            self._memo[condition] = (result, self._store.version)
        return result

    def _solve_component(self, component: Condition) -> float:
        if self._use_memo:
            cached = self._memo_get(component)
            if cached is not None:
                return cached
        if component.is_variable_disjoint():
            result = _independent_probability(component, self._store)
        else:
            result = self._branch(component)
        if self._use_memo:
            self._memo[component] = (result, self._store.version)
        return result

    def _pick_branch_variable(self, condition: Condition) -> Variable:
        return pick_branch_variable(
            condition,
            self._branch_heuristic,
            domain_size=lambda v: len(self._store.support(v)),
        )

    def _branch(self, condition: Condition) -> float:
        """Sum over the support of the chosen branching variable."""
        if self.node_budget or self._deadline_at is not None:
            self._check_guards()
        if self._use_absorption:
            condition = condition.absorbed()
            if condition.is_constant:
                return 1.0 if condition.is_true else 0.0
        variable = self._pick_branch_variable(condition)
        pmf = self._store.pmf(variable)
        support = self._store.support(variable)
        # One bulk ndarray->list conversion instead of a float()/indexing
        # pair per iteration: this loop is the deepest hot path.
        values = support.tolist()
        weights = pmf[support].tolist()
        counts = condition.variable_counts()
        if sum(counts.values()) == counts[variable] + len(counts) - 1:
            # Every other variable occurs once: each residual is
            # variable-disjoint, so evaluate them all without building them.
            self.branch_count += len(values)
            return _hub_probability(condition, variable, values, weights, self._store)
        total = 0.0
        for value, weight in zip(values, weights):
            residual = condition.substitute(variable, value)
            self.branch_count += 1
            total += weight * self._probability(residual)
        return total


def adpll_probability(
    condition: Condition,
    store: DistributionStore,
    use_components: bool = True,
    use_memo: bool = True,
) -> float:
    """One-shot convenience wrapper around :class:`ADPLL`."""
    return ADPLL(store, use_components=use_components, use_memo=use_memo).probability(
        condition
    )
