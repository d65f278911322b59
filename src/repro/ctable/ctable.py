"""The c-table: object -> condition mapping plus the answer knowledge base.

Definition 3 of the paper: a c-table is a set of ``<object, phi(object)>``
pairs.  This class additionally owns the :class:`VariableConstraints`
gathered from crowd answers and keeps conditions simplified against them,
which is how "some conditions will turn true or false, some shall be
simplified or remain the same" after each round (Algorithm 4, line 25).

An answer's work is proportional to the expressions it decides.  The store
reports the variables the answer touched; an expression's truth under the
store changes only when one of its variables is touched.  So the *decided
set* of an answer is the open expressions over those variables that now
resolve, each resolved once, and a condition changes only in the clauses
holding one of them.  That is exact because of the class invariant: no
condition holds an expression the store decides.  The build emits no
expression the domain alone decides (``0 > Var(o, a)``; ``Var(o, a) > 5``
when 5 is the top of the domain), each answer drops what it decides, and
:meth:`CTable.set_condition` simplifies a condition against the store
when it is stored.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import InitVar, dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..datasets.dataset import IncompleteDataset, Variable
from .condition import Condition
from .constraints import VariableConstraints
from .expression import Expression, Relation
from .expression_table import ExpressionTable


@dataclass
class CTable:
    """Conditions for every object of one skyline query."""

    dataset: IncompleteDataset
    conditions: Dict[int, Condition]
    pruned: FrozenSet[int] = frozenset()
    #: answer-inference level: "direct", "intervals" or "full"
    inference_mode: str = "full"
    #: construction perf counters (backend, seconds, pairs/sec, ...)
    build_stats: Dict[str, float] = field(default_factory=dict)
    #: ``(_open, _var_index, _expr_index, _var_exprs, expressions)`` when
    #: the builder counted them with the conditions and seeded every open
    #: condition's expression ids; omitted, they are recounted and interned
    indexes: InitVar[Optional[tuple]] = None
    constraints: VariableConstraints = field(init=False)
    #: the table every open condition's expression ids index
    expressions: ExpressionTable = field(init=False)
    _var_index: Dict[Variable, Set[int]] = field(init=False)
    #: occurrences of each open expression across all conditions, kept in
    #: sync by the answer-application deltas (no per-round recounting)
    _expr_index: Counter = field(init=False)
    #: the open expressions over each variable (the keys of ``_expr_index``)
    _var_exprs: Dict[Variable, Set[Expression]] = field(init=False)
    #: objects whose condition is symbolic, kept in sync by ``_replace``
    _open: Set[int] = field(init=False)

    def __post_init__(self, indexes: Optional[tuple]) -> None:
        if set(self.conditions) != set(range(self.dataset.n_objects)):
            raise ValueError("c-table must cover every object exactly once")
        self.constraints = VariableConstraints(
            self.dataset.domain_sizes, mode=self.inference_mode
        )
        if indexes is not None:
            (
                self._open,
                self._var_index,
                self._expr_index,
                self._var_exprs,
                self.expressions,
            ) = indexes
            return
        self.expressions = ExpressionTable()
        self._var_index = {}
        self._expr_index = Counter()
        self._var_exprs = {}
        self._open = set()
        for obj, condition in self.conditions.items():
            if condition.is_constant:
                continue
            self._open.add(obj)
            condition.expression_ids(self.expressions)
            for variable in condition.variables():
                self._var_index.setdefault(variable, set()).add(obj)
            self._expr_index.update(condition.expression_counts())
        for expression in self._expr_index:
            for variable in expression.variables():
                self._var_exprs.setdefault(variable, set()).add(expression)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def condition(self, obj: int) -> Condition:
        return self.conditions[obj]

    def certain_answers(self) -> List[int]:
        """Objects whose condition is the constant ``true``."""
        return sorted(o for o, c in self.conditions.items() if c.is_true)

    def certain_non_answers(self) -> List[int]:
        return sorted(o for o, c in self.conditions.items() if c.is_false)

    def undecided(self) -> List[int]:
        """Objects with a symbolic condition (candidates for crowdsourcing)."""
        return sorted(self._open)

    def has_open_expressions(self) -> bool:
        """True while any condition still contains an expression."""
        return bool(self._open)

    def open_expressions(self) -> Iterator[Tuple[int, Expression]]:
        """All ``(object, expression)`` pairs still present in conditions."""
        for obj in self.undecided():
            for expression in self.conditions[obj].distinct_expressions():
                yield obj, expression

    def objects_mentioning(self, variable: Variable) -> FrozenSet[int]:
        return frozenset(self._var_index.get(variable, ()))

    def expression_frequency(self, expression: Expression) -> int:
        """Occurrences of one expression across all conditions (O(1))."""
        return self._expr_index.get(expression, 0)

    def expression_frequencies(self) -> Counter:
        """Occurrences of every open expression across all conditions.

        A copy of the incrementally maintained index; equal to recounting
        every condition's :meth:`Condition.expression_counts` from scratch.
        """
        return Counter(self._expr_index)

    def n_open_expressions(self) -> int:
        return sum(
            len(self.conditions[obj].distinct_expressions()) for obj in self._open
        )

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def apply_answer(
        self, expression: Expression, relation: Relation
    ) -> FrozenSet[int]:
        """Fold one crowd answer into the constraints and re-simplify.

        The affected objects are those mentioning a touched variable: the
        answered variables, plus -- for variable-vs-variable answers in
        ``full`` mode -- their whole ordering component, since transitive
        inference can resolve expressions anywhere inside it.  Each open
        expression over a touched variable is resolved once; those now
        true or false form the decided set.  An affected condition is
        rewritten in the clauses holding a decided expression; one holding
        none keeps its ``Condition`` object.

        Returns every affected object, changed or not, so callers can
        re-rank incrementally: a touched variable's pmf may have narrowed
        even where its condition did not change, and every other object's
        probability is unchanged by this answer.
        """
        variables = self.constraints.apply_answer(expression, relation)
        resolve = self.constraints.resolve
        affected: Set[int] = set()
        open_expressions: Set[Expression] = set()
        for variable in variables:
            affected.update(self._var_index.get(variable, ()))
            open_expressions.update(self._var_exprs.get(variable, ()))
        decided: Dict[Expression, bool] = {}
        for candidate in open_expressions:
            truth = resolve(candidate)
            if truth is not None:
                decided[candidate] = truth
        if decided:
            for obj in affected:
                old = self.conditions[obj]
                new = old.simplify_with(decided)
                if new is not old:
                    self._replace(obj, old, new)
        return frozenset(affected)

    def _replace(self, obj: int, old: Condition, new: Condition) -> None:
        """Swap one object's condition and bring the indexes in line.

        Only the clauses the swap took out or put in are counted.  A
        simplification keeps the clauses it leaves alone as the same tuples,
        so the untouched ones are found by identity, hashing no expression.
        An expression enters ``_var_exprs`` with its first occurrence and
        leaves both expression indexes with its last.
        """
        self.conditions[obj] = new
        if new.is_constant:
            self._open.discard(obj)
        else:
            self._open.add(obj)
        old_ids = set(map(id, old.clauses))
        new_ids = set(map(id, new.clauses))
        index, var_exprs = self._expr_index, self._var_exprs
        for clause in new.clauses:
            if id(clause) not in old_ids:
                for expression in clause:
                    if expression not in index:
                        for variable in expression.variables():
                            var_exprs.setdefault(variable, set()).add(expression)
                    index[expression] += 1
        # additions come first, so a count reaches 0 only with its last
        # occurrence
        for clause in old.clauses:
            if id(clause) in new_ids:
                continue
            for expression in clause:
                count = index[expression] - 1
                if count:
                    index[expression] = count
                    continue
                del index[expression]
                for variable in expression.variables():
                    bucket = var_exprs[variable]
                    bucket.discard(expression)
                    if not bucket:
                        del var_exprs[variable]
        new_vars = new.variables()
        for variable in new_vars - old.variables():
            self._var_index.setdefault(variable, set()).add(obj)
        for variable in old.variables() - new_vars:
            bucket = self._var_index.get(variable)
            if bucket is not None:
                bucket.discard(obj)
                if not bucket:
                    del self._var_index[variable]

    def set_condition(self, obj: int, condition: Condition) -> None:
        """Replace one object's condition (used by tests and extensions).

        The condition is stored simplified against the current store, so
        the expressions earlier answers (or the domain) decide drop now.
        """
        condition = condition.simplify_with(self.constraints.resolve)
        if not condition.is_constant:
            condition.expression_ids(self.expressions)
        self._replace(obj, self.conditions[obj], condition)

    # ------------------------------------------------------------------
    # result inference
    # ------------------------------------------------------------------
    def result_set(
        self,
        probability: Optional["ProbabilityFn"] = None,
        threshold: float = 0.5,
    ) -> List[int]:
        """Infer the current answer set (Section 7: ``true`` or ``Pr > 0.5``).

        ``probability`` maps a symbolic condition to ``Pr(phi)``; when it is
        omitted only certainly-true objects are returned.
        """
        answers = [o for o, c in self.conditions.items() if c.is_true]
        if probability is not None:
            for obj in self.undecided():
                if probability(self.conditions[obj]) > threshold:
                    answers.append(obj)
        return sorted(answers)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "CTable(objects=%d, true=%d, false=%d, open=%d)" % (
            len(self.conditions),
            len(self.certain_answers()),
            len(self.certain_non_answers()),
            len(self.undecided()),
        )


# typing helper (kept at module end to avoid a circular import with
# probability.engine, which depends on Condition)
from typing import Callable  # noqa: E402

ProbabilityFn = Callable[[Condition], float]
