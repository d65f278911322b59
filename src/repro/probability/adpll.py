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

The clause rules live in one routine, :func:`_clause_log_factor`, which
gives a clause's log probability at each hub value (or its one factor
when there is no hub); :func:`_independent_probability` and
:func:`_hub_probability` both sum its output in clause order.  The same
routine serves the **branch kernel** of the selection phase,
:meth:`ADPLL.branch_probabilities`: for one condition it returns every
candidate expression ``e``'s ``Pr(phi[e:=T])`` and ``Pr(phi[e:=F])`` in
one pass, without building a residual condition.  It applies to the
candidates whose variable-connected component has at most one shared
variable; setting ``e`` true or false only changes the factors of the
clauses holding ``e``.

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..ctable.condition import Clause, Condition
from ..ctable.expression import Expression, Var
from ..datasets.dataset import Variable
from ..errors import ResourceBudgetError
from ..lru import LRUCache
from .distributions import DistributionStore

#: Default bound on the sub-condition memo table.  Long crowdsourcing
#: runs accumulate stale-version entries (conditions whose variables were
#: constrained later are never looked up again); LRU eviction caps the
#: table while keeping the recently hot residuals.
DEFAULT_MEMO_SIZE = 262_144

#: available branching-variable heuristics:
#: ``frequency``  -- most occurrences in the condition (the paper's);
#: ``min_domain`` -- smallest domain under ``domain_size`` (fail-first);
#: ``first``      -- smallest variable id (arbitrary-but-fixed control).
BRANCH_HEURISTICS = ("frequency", "min_domain", "first")

#: the hub values of a clause factor without a hub (ignored there)
_NO_VALUES: List[int] = []

#: a clause's factor, as :func:`_clause_log_factor` returns it
_Factor = Optional[Tuple[int, int, Union[float, List[float]]]]


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


def _clause_log_factor(
    clause: Clause,
    hub: Optional[Variable],
    values: List[int],
    store: DistributionStore,
) -> _Factor:
    """``log q_c(v)``: the log probability of one clause at each hub value.

    The one per-clause routine of the exact kernels.  ``hub`` is the
    variable shared across clauses (``None`` when there is none, then
    ``values`` is ignored and the clause has a single factor); every
    other variable of the clause must occur in it once.

    Returns ``None`` when the clause holds for every value, else
    ``(lo, hi, logs)``: the clause holds for values outside
    ``values[lo:hi]``, and ``logs`` is either one float for all of
    ``values[lo:hi]`` or a list over them (``0.0`` where the clause
    holds, ``-inf`` where it cannot).  An empty clause is ``-inf``
    everywhere.

    * an expression without ``hub`` keeps its probability for every
      value, so its ``log1p(-p)`` is summed once; ``p >= 1`` makes the
      clause certain (``log1p(-1)`` would raise instead);
    * ``hub > c`` / ``c > hub`` make the clause certain for ``v > c`` /
      ``v < c`` and vanish otherwise;
    * ``hub > y`` / ``y > hub`` become ``v > y`` / ``y > v``, read from
      ``y``'s cumulative arrays (:meth:`DistributionStore.tails`).

    Accumulated in log space: a wide clause's complement product
    ``prod(1 - p_i)`` multiplies many factors near 1 (tiny ``p_i``), where
    a running product loses one ulp per step and can drift past the
    engine's 1e-9 parity budget.  ``fsum(log1p(-p))`` keeps it exact to
    the last rounding.  ``values`` must be ascending, as
    :meth:`DistributionStore.support` returns them.
    """
    log1p = math.log1p
    static = []  # log1p(-p) of the expressions without the hub
    above = math.inf  # the clause is certain for v > above ...
    below = -math.inf  # ... and for v < below
    partners = []  # (cumulative array as a list, hub is the left side)
    for expression in clause:
        variables = expression.variables()
        if hub not in variables:
            p = store.prob_expression(expression)
            if p >= 1.0:
                return None  # certain for every value
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
    static_sum = math.fsum(static)
    if hub is None:
        lo, hi = 0, 1
    else:
        # only values[lo:hi] leave every hub-vs-constant expression false
        lo = bisect_left(values, below)
        hi = bisect_right(values, above)
    if not partners:
        clause_p = -math.expm1(static_sum)
        return lo, hi, math.log(clause_p) if clause_p > 0.0 else -math.inf
    logs = []
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
                logs.append(0.0)
                break
            terms.append(log1p(-p))
        else:
            clause_p = -math.expm1(math.fsum(terms))
            logs.append(math.log(clause_p) if clause_p > 0.0 else -math.inf)
    return lo, hi, logs


def _independent_probability(condition: Condition, store: DistributionStore) -> float:
    """Direct evaluation via the conjunctive + disjunctive rules.

    The clause factors' logs are summed, so a long conjunction of
    near-zero clause probabilities underflows to 0 later than a running
    product would.
    """
    log_result = 0.0
    for clause in condition.clauses:
        factor = _clause_log_factor(clause, None, _NO_VALUES, store)
        if factor is None:
            continue
        if factor[2] == -math.inf:
            return 0.0
        log_result += factor[2]
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
    certain-clause and zero-clause rules (:func:`_clause_log_factor`), but
    no residual is built.  Each value keeps its own running log of the
    clause product, in clause order; a clause that cannot hold sends it
    to ``-inf``.
    """
    log_prob = [0.0] * len(values)
    for clause in condition.clauses:
        factor = _clause_log_factor(clause, hub, values, store)
        if factor is None:
            continue
        lo, hi, logs = factor
        if isinstance(logs, list):
            for i, log_p in enumerate(logs, lo):
                log_prob[i] += log_p
        else:
            for i in range(lo, hi):
                log_prob[i] += logs
    total = 0.0
    for weight, log_p in zip(weights, log_prob):
        total += weight * math.exp(log_p)
    return total


def _accumulate(
    factor: _Factor,
    finite: List[float],
    zeros: List[int],
    sign: int,
) -> None:
    """Add (``sign=1``) or take out (``sign=-1``) one clause factor.

    A product of clause factors is kept per hub value as the sum of its
    finite logs plus the number of zero (``-inf``) factors, so a factor
    can be taken out again without dividing.
    """
    if factor is None:
        return
    lo, hi, logs = factor
    if not isinstance(logs, list):
        logs = [logs] * (hi - lo)
    for i, log_p in enumerate(logs, lo):
        if log_p == -math.inf:
            zeros[i] += sign
        else:
            finite[i] += sign * log_p


def _mixture(weights: List[float], finite: List[float], zeros: List[int]) -> float:
    """``sum_v weight_v * prod_c q_c(v)`` from :func:`_accumulate`'s sums."""
    total = 0.0
    for weight, log_p, n_zero in zip(weights, finite, zeros):
        if not n_zero:
            total += weight * math.exp(log_p)
    return total


class _Part:
    """Clauses of a condition whose product one hub pass evaluates.

    ``hub`` is the part's one shared variable, or ``None`` when no
    variable occurs twice.  Holds each clause's factor and their per-value
    sums, so a candidate's branches only revisit the clauses that hold it.
    """

    __slots__ = (
        "clauses", "store", "hub", "values", "weights", "factors", "finite", "zeros"
    )

    def __init__(
        self,
        hub: Optional[Variable],
        clauses: Sequence[Clause],
        indices: Sequence[int],
        store: DistributionStore,
    ) -> None:
        self.clauses = clauses
        self.store = store
        self.hub = hub
        if hub is None:
            self.values, self.weights = _NO_VALUES, [1.0]
        else:
            support = store.support(hub)
            self.values = support.tolist()
            self.weights = store.pmf(hub)[support].tolist()
        width = len(self.weights)
        self.finite = [0.0] * width
        self.zeros = [0] * width
        self.factors: Dict[int, _Factor] = {}
        for index in indices:
            factor = _clause_log_factor(clauses[index], hub, self.values, store)
            self.factors[index] = factor
            _accumulate(factor, self.finite, self.zeros, 1)

    def value(self) -> float:
        return _mixture(self.weights, self.finite, self.zeros)

    def branches(
        self, expression: Expression, holders: Sequence[int]
    ) -> Tuple[float, float]:
        """This part's ``(Pr[e:=T], Pr[e:=F])``; ``e`` is in ``holders``.

        ``e := T`` takes out the factors of the clauses holding ``e``;
        ``e := F`` puts back each of them with ``e`` removed.  Removing
        ``e`` can make two clauses equal only when both hold nothing but
        hub-vs-constant expressions, whose factors are ``0`` or ``-inf``
        per value, so counting such a clause twice changes nothing.
        """
        width = len(self.weights)
        if len(holders) == len(self.factors):
            p_true = 1.0
            finite, zeros = [0.0] * width, [0] * width
        else:
            finite, zeros = self.finite[:], self.zeros[:]
            for index in holders:
                _accumulate(self.factors[index], finite, zeros, -1)
            p_true = _mixture(self.weights, finite, zeros)
        for index in holders:
            rest = tuple(x for x in self.clauses[index] if x != expression)
            factor = _clause_log_factor(rest, self.hub, self.values, self.store)
            _accumulate(factor, finite, zeros, 1)
        return p_true, _mixture(self.weights, finite, zeros)


class ADPLL:
    """Reusable ADPLL solver bound to one distribution store.

    ``use_components`` / ``use_memo`` toggle the refinements for ablation;
    with both off, :meth:`probability` is a faithful rendering of the
    paper's Algorithm 3 (with deterministic smallest-variable tie-breaking
    instead of a random one, for reproducibility).
    """

    #: see the module-level :data:`BRANCH_HEURISTICS`; kept as a class
    #: attribute for callers
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

    def branch_probabilities(
        self, condition: Condition, expressions: Sequence[Expression]
    ) -> Dict[Expression, Tuple[float, float]]:
        """``(Pr(phi[e:=T]), Pr(phi[e:=F]))`` for each covered candidate ``e``.

        One pass over ``condition`` serves every candidate, and no
        residual condition is built.  The clauses are split into
        variable-connected components; a candidate's variables all lie in
        one, so each branch is that component's branch times the other
        components' probabilities.  A component is *covered* when at most
        one variable occurs in it more than once: then its probability is
        ``sum_v p(v) prod_c q_c(v)`` over that hub's values (one term for
        a variable-disjoint component), and a candidate only changes the
        factors of the clauses holding it (:class:`_Part`).  Candidates in
        other components are left out of the result; the probabilities of
        those components, when a covered candidate needs them, come from
        :meth:`probability`.
        """
        if condition.is_constant:
            return {}
        clauses = condition.clauses
        wanted = set(expressions)
        holders: Dict[Expression, List[int]] = {}
        for index, clause in enumerate(clauses):
            for expression in clause:
                if expression in wanted:
                    held = holders.setdefault(expression, [])
                    if not held or held[-1] != index:
                        held.append(index)
        # A variable's count in its component is its count in the
        # condition.  The components without a shared variable form one
        # hubless part.
        counts = condition.variable_counts()
        parts: List[Tuple[List[Variable], List[int]]] = []
        hubless: List[int] = []
        for group in condition.clause_components():
            shared = {
                variable
                for index in group
                for expression in clauses[index]
                for variable in expression.variables()
                if counts[variable] > 1
            }
            if shared:
                parts.append((list(shared), group))
            else:
                hubless.extend(group)
        if hubless:
            parts.append(([], hubless))
        part_of = [0] * len(clauses)
        for k, (__, indices) in enumerate(parts):
            for index in indices:
                part_of[index] = k
        candidates = [
            e for e in holders if len(parts[part_of[holders[e][0]]][0]) <= 1
        ]
        if not candidates:
            return {}
        store = self._store
        solved: Dict[int, _Part] = {}
        values: List[float] = []
        for k, (shared, indices) in enumerate(parts):
            if len(shared) <= 1:
                hub = shared[0] if shared else None
                solved[k] = _Part(hub, clauses, indices, store)
                values.append(solved[k].value())
            else:
                # one clause component: an ascending, already canonical run
                values.append(
                    self.probability(Condition(tuple(clauses[i] for i in indices)))
                )
        # others[k]: the product of every part's probability but part k's
        others = [1.0] * len(values)
        prefix = suffix = 1.0
        for k, value in enumerate(values):
            others[k] = prefix
            prefix *= value
        for k in range(len(values) - 1, -1, -1):
            others[k] *= suffix
            suffix *= values[k]
        out: Dict[Expression, Tuple[float, float]] = {}
        for expression in candidates:
            k = part_of[holders[expression][0]]
            p_true, p_false = solved[k].branches(expression, holders[expression])
            out[expression] = (p_true * others[k], p_false * others[k])
        return out

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
