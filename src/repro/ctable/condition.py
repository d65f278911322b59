"""Conditions: CNF formulas over expressions, per the c-table model.

The condition ``phi(o)`` of an object is a conjunction of clauses, one per
potential dominator ``p`` in ``D(o)``; each clause is the disjunction of at
most ``d`` expressions stating "o strictly beats p on some attribute"
(Section 4.1).  A condition can also be the constant ``true`` (``o`` is
certainly a skyline answer) or ``false`` (certainly not).

Conditions are immutable; every simplification returns a new object, which
makes them safe to use as cache keys for probability computation.  Because
ADPLL materializes very many intermediate conditions, the hash, variable
set and occurrence counts are computed once and cached.

A symbolic condition also carries its expressions as integer ids into
an :class:`~repro.ctable.expression_table.ExpressionTable`: the id of
every occurrence, clause after clause, and each clause's width (a CSR
row).  Get-CTable seeds them, and :meth:`Condition.expression_ids`
interns any other condition's (a rewrite, a hand-built one) on first
sight.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from ..datasets.dataset import Variable
from .expression import Expression
from .expression_table import ExpressionTable

Clause = Tuple[Expression, ...]

#: Resolver callback: maps an expression to True / False / None (unknown).
ExpressionResolver = Callable[[Expression], Optional[bool]]


class Condition:
    """A CNF condition, or one of the constants ``true`` / ``false``.

    ``value`` is ``True``/``False`` for constant conditions (with empty
    ``clauses``) and ``None`` for symbolic ones.  Use :meth:`of` to build
    (it normalizes for canonical hashing); the raw constructor trusts its
    input to already be normalized.
    """

    __slots__ = (
        "clauses",
        "value",
        "_hash",
        "_vars",
        "_counts",
        "_expr_counts",
        "_table",
        "_ids",
        "_widths",
    )

    def __init__(
        self, clauses: Tuple[Clause, ...] = (), value: Optional[bool] = None
    ) -> None:
        if value is not None and clauses:
            raise ValueError("constant conditions must carry no clauses")
        if value is None and not clauses:
            raise ValueError("symbolic conditions need at least one clause")
        self.clauses = clauses
        self.value = value
        self._hash = hash((value, clauses))
        self._vars: Optional[FrozenSet[Variable]] = None
        self._counts: Optional[Counter] = None
        self._expr_counts: Optional[Counter] = None
        #: occurrence ids and clause widths under ``_table`` (or ``None``)
        self._table: Optional[ExpressionTable] = None
        self._ids: Optional[List[int]] = None
        self._widths: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def true() -> "Condition":
        return _TRUE

    @staticmethod
    def false() -> "Condition":
        return _FALSE

    @staticmethod
    def of(clauses: Iterable[Iterable[Expression]]) -> "Condition":
        """Build and normalize a condition from clause iterables.

        Normalization dedupes expressions within a clause, dedupes clauses,
        and sorts both levels canonically so logically identical conditions
        compare (and hash) equal.
        """
        normalized = []
        seen_clauses = set()
        for clause in clauses:
            unique = sorted(set(clause), key=Expression.sort_key)
            if not unique:
                return _FALSE
            key = tuple(unique)
            if key not in seen_clauses:
                seen_clauses.add(key)
                normalized.append(key)
        if not normalized:
            return _TRUE
        normalized.sort(key=_clause_sort_key)
        return Condition(clauses=tuple(normalized))

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Condition)
            and other._hash == self._hash
            and other.value == self.value
            and other.clauses == self.clauses
        )

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------
    # predicates / structure
    # ------------------------------------------------------------------
    @property
    def is_true(self) -> bool:
        return self.value is True

    @property
    def is_false(self) -> bool:
        return self.value is False

    @property
    def is_constant(self) -> bool:
        return self.value is not None

    def expressions(self) -> Iterator[Expression]:
        """All expression occurrences, clause by clause (with repeats)."""
        for clause in self.clauses:
            yield from clause

    def distinct_expressions(self) -> FrozenSet[Expression]:
        return frozenset(self.expressions())

    def variables(self) -> FrozenSet[Variable]:
        """Variables mentioned anywhere in the condition (memoized)."""
        if self._vars is None:
            out = set()
            for clause in self.clauses:
                for expression in clause:
                    out.update(expression.variables())
            self._vars = frozenset(out)
        return self._vars

    def variable_counts(self) -> Counter:
        """Occurrence count of each variable (ADPLL's branching heuristic)."""
        if self._counts is None:
            counts: Counter = Counter()
            for clause in self.clauses:
                for expression in clause:
                    for variable in expression.variables():
                        counts[variable] += 1
            self._counts = counts
        return self._counts

    def expression_counts(self) -> Counter:
        """Occurrence count of each expression (memoized; do not mutate).

        Backs the c-table's incremental expression-frequency index and the
        per-round frequency counting of the selection strategies.
        """
        if self._expr_counts is None:
            counts: Counter = Counter()
            for clause in self.clauses:
                for expression in clause:
                    counts[expression] += 1
            self._expr_counts = counts
        return self._expr_counts

    @property
    def expression_table(self) -> Optional[ExpressionTable]:
        """The table its ids index (a rewrite's parent's until it is
        interned), if any."""
        return self._table

    def expression_ids(self, table: ExpressionTable) -> Tuple[List[int], List[int]]:
        """``(ids, widths)``: every occurrence's id under ``table``, clause
        after clause, and each clause's width (lists; do not mutate).

        Seeded ids are returned as they are; otherwise the clauses are
        interned once and the result is kept.
        """
        if self._table is not table or self._ids is None:
            self._ids, self._widths = table.intern_clauses(self.clauses)
            self._table = table
        return self._ids, self._widths  # type: ignore[return-value]

    def n_clauses(self) -> int:
        return len(self.clauses)

    def n_expression_occurrences(self) -> int:
        return sum(len(clause) for clause in self.clauses)

    def is_variable_disjoint(self) -> bool:
        """True when no variable occurs in more than one expression.

        This is ADPLL's "independent" normal form: with every expression
        over distinct variables, the probability follows from
        product/complement rules alone, so no branching is needed.  Constants are trivially disjoint.
        """
        return all(count == 1 for count in self.variable_counts().values())

    def clause_components(self) -> List[List[int]]:
        """Clause indices of each variable-connected group of clauses.

        Two clauses are connected when they share a variable.  Groups come
        in the order of their first clause, indices ascending within each.
        Union-find over clause indices.
        """
        parent = list(range(len(self.clauses)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        owner: Dict[Variable, int] = {}
        for index, clause in enumerate(self.clauses):
            for expression in clause:
                for variable in expression.variables():
                    if variable in owner:
                        root_a, root_b = find(owner[variable]), find(index)
                        if root_a != root_b:
                            parent[root_b] = root_a
                    else:
                        owner[variable] = index
        groups: Dict[int, List[int]] = {}
        for index in range(len(self.clauses)):
            groups.setdefault(find(index), []).append(index)
        return list(groups.values())

    def connected_components(self) -> List["Condition"]:
        """Partition the clauses into variable-connected sub-conditions.

        Maximal groups of connected clauses (:meth:`clause_components`)
        are probabilistically independent, so ADPLL solves them separately
        and multiplies.  Returns ``[self]``
        for constants and single-component conditions (callers check
        ``len() > 1`` before recursing, which also guards against
        infinite recursion).
        """
        if self.is_constant or len(self.clauses) < 2:
            return [self]
        groups = self.clause_components()
        if len(groups) == 1:
            return [self]
        # Each group is an ascending-index subsequence of the canonical
        # clause tuple, so it is canonical as it stands.
        return [Condition(tuple(self.clauses[i] for i in group)) for group in groups]

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    def evaluate(self, assignment: Mapping[Variable, int]) -> bool:
        """Truth under a total assignment of the condition's variables."""
        if self.is_constant:
            return bool(self.value)
        return all(
            any(expression.evaluate(assignment) for expression in clause)
            for clause in self.clauses
        )

    def substitute(self, variable: Variable, value: int) -> "Condition":
        """Fix one variable to a value and simplify (ADPLL's branching step)."""
        if self.is_constant:
            return self
        new_clauses = []
        for clause in self.clauses:
            new_clause = []
            satisfied = False
            changed = False
            for expression in clause:
                if not expression.involves(variable):
                    new_clause.append(expression)
                    continue
                changed = True
                result = expression.substitute(variable, value)
                if result is True:
                    satisfied = True
                    break
                if result is False:
                    continue
                new_clause.append(result)
            if satisfied:
                continue
            if not new_clause:
                return _FALSE
            if changed:
                new_clause.sort(key=Expression.sort_key)
            new_clauses.append(tuple(new_clause))
        if not new_clauses:
            return _TRUE
        new_clauses.sort(key=_clause_sort_key)
        deduped = []
        previous = None
        for clause in new_clauses:
            if clause != previous:
                deduped.append(clause)
                previous = clause
        return Condition(clauses=tuple(deduped))

    def assign_expression(self, target: Expression, truth: bool) -> "Condition":
        """Replace every occurrence of one expression with a truth value.

        This is the paper's syntactic simplification used by the marginal
        utility function ("when an expression is determined, the
        corresponding condition can be simplified").
        """
        return self.simplify_with({target: truth})

    def simplify_with(
        self, resolver: Union[ExpressionResolver, Dict[Expression, bool]]
    ) -> "Condition":
        """Simplify under partial knowledge.

        ``resolver`` returns the known truth of an expression, or ``None``
        when still undetermined (e.g. constraints gathered from crowd
        answers).  It may also be a dict from the decided expressions to
        their truth: then a clause holding none of them is kept without
        looking at its expressions.  Clauses with a true expression drop
        out; false expressions are removed; an emptied clause makes the
        condition ``false``; no remaining clause makes it ``true``.

        The rebuild preserves order instead of re-sorting: clauses left
        alone keep their canonical place, and each shortened clause (still
        sorted, as a subsequence of a sorted clause) is inserted by binary
        search over the clause sort keys, unless an equal clause is
        already there.  The result equals :meth:`of` on the same clauses.
        """
        if self.is_constant:
            return self
        if isinstance(resolver, dict):
            decided = resolver.keys()
            resolve = resolver.get
        else:
            decided = None
            resolve = resolver
        kept: List[Clause] = []
        shortened: List[Clause] = []
        changed = False
        for clause in self.clauses:
            if decided is not None and decided.isdisjoint(clause):
                kept.append(clause)
                continue
            new_clause = []
            satisfied = False
            for expression in clause:
                truth = resolve(expression)
                if truth is True:
                    satisfied = True
                    break
                if truth is not False:
                    new_clause.append(expression)
            if satisfied:
                changed = True
            elif not new_clause:
                return _FALSE
            elif len(new_clause) < len(clause):
                shortened.append(tuple(new_clause))
            else:
                kept.append(clause)
        if not changed and not shortened:
            return self
        for clause in shortened:
            key = _clause_sort_key(clause)
            low, high = 0, len(kept)
            while low < high:
                middle = (low + high) // 2
                if _clause_sort_key(kept[middle]) < key:
                    low = middle + 1
                else:
                    high = middle
            if low == len(kept) or kept[low] != clause:
                kept.insert(low, clause)
        if not kept:
            return _TRUE
        condition = Condition(clauses=tuple(kept))
        # interned under the same table when first asked for ids
        condition._table = self._table
        return condition

    def absorbed(self) -> "Condition":
        """Apply clause absorption: drop clauses that are supersets of others.

        ``(x) AND (x OR y)`` simplifies to ``(x)`` -- the superset clause is
        implied.  Not applied automatically (the paper's conditions are kept
        verbatim); ADPLL can opt in to shrink residual conditions.
        """
        if self.is_constant or len(self.clauses) < 2:
            return self
        clause_sets = [frozenset(clause) for clause in self.clauses]
        keep = []
        for i, candidate in enumerate(clause_sets):
            subsumed = False
            for j, other in enumerate(clause_sets):
                if i == j:
                    continue
                if other < candidate or (other == candidate and j < i):
                    subsumed = True
                    break
            if not subsumed:
                keep.append(self.clauses[i])
        if len(keep) == len(self.clauses):
            return self
        return Condition.of(keep)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        if self.is_constant:
            return "Condition(%s)" % self.value
        return "Condition(clauses=%d)" % len(self.clauses)

    def __str__(self) -> str:
        if self.is_true:
            return "true"
        if self.is_false:
            return "false"
        parts = []
        for clause in self.clauses:
            inner = " ∨ ".join("(%s)" % e for e in clause)
            parts.append("[%s]" % inner)
        return " ∧ ".join(parts)


def _clause_sort_key(clause: Clause) -> Tuple:
    return tuple(e.sort_key() for e in clause)


_TRUE = Condition(clauses=(), value=True)
_FALSE = Condition(clauses=(), value=False)
