"""Expressions: the atoms of c-table conditions and the unit of crowd tasks.

An *expression* (Section 4.1) is a strict inequality between two operands,
at least one of which is a variable ``Var(o, a)``:

* ``Var(o, a) > c``       (object ``o`` must beat an observed constant),
* ``c > Var(o, a)``       (an observed constant beats a missing value),
* ``Var(o, a) > Var(p, a)`` (two missing values of the same attribute).

A *crowd task* asks the three-way relation (less / equal / greater) of the
two operands of an expression; the expression itself is satisfied exactly
when the relation is ``GREATER`` (strictly better), matching Definition 1's
strict-improvement disjuncts.

Expressions are immutable and interned-style cheap to hash: probability
computation hashes millions of them, so hash, sort key and variable tuple
are precomputed at construction.
"""

from __future__ import annotations

import enum
from typing import Mapping, Tuple, Union

from ..datasets.dataset import Variable


class Relation(enum.Enum):
    """Three-way comparison outcome of a crowd task: ``left REL right``."""

    LESS = "<"
    EQUAL = "="
    GREATER = ">"

    def flipped(self) -> "Relation":
        """The relation seen from the right operand's point of view."""
        if self is Relation.LESS:
            return Relation.GREATER
        if self is Relation.GREATER:
            return Relation.LESS
        return Relation.EQUAL

    @staticmethod
    def of(left_value: int, right_value: int) -> "Relation":
        if left_value > right_value:
            return Relation.GREATER
        if left_value < right_value:
            return Relation.LESS
        return Relation.EQUAL


class Const:
    """A constant operand (an observed attribute value)."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = int(value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("const", self.value))

    def __repr__(self) -> str:
        return "Const(%d)" % self.value

    def __str__(self) -> str:
        return str(self.value)


class Var:
    """A variable operand: the missing cell ``Var(o, a)``."""

    __slots__ = ("obj", "attr")

    def __init__(self, obj: int, attr: int) -> None:
        self.obj = int(obj)
        self.attr = int(attr)

    @property
    def variable(self) -> Variable:
        return (self.obj, self.attr)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and other.obj == self.obj and other.attr == self.attr

    def __hash__(self) -> int:
        return hash(("var", self.obj, self.attr))

    def __repr__(self) -> str:
        return "Var(%d, %d)" % (self.obj, self.attr)

    def __str__(self) -> str:
        return "Var(o%d, a%d)" % (self.obj + 1, self.attr + 1)


Operand = Union[Const, Var]


def _operand_sort_key(operand: Operand) -> Tuple[int, int, int]:
    if isinstance(operand, Const):
        return (0, operand.value, -1)
    return (1, operand.obj, operand.attr)


class Expression:
    """The strict inequality ``left > right``.

    Immutable and hashable so expressions can be dictionary keys (frequency
    counting in FBS, probability caching, conflict detection in batches).
    """

    __slots__ = ("left", "right", "_vars", "_key", "_hash")

    def __init__(self, left: Operand, right: Operand) -> None:
        if isinstance(left, Const) and isinstance(right, Const):
            raise ValueError("an expression needs at least one variable")
        self.left = left
        self.right = right
        variables = []
        if isinstance(left, Var):
            variables.append(left.variable)
        if isinstance(right, Var):
            variables.append(right.variable)
        self._vars: Tuple[Variable, ...] = tuple(variables)
        self._key = (_operand_sort_key(left), _operand_sort_key(right))
        self._hash = hash(self._key)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Expression)
            and other._hash == self._hash
            and other._key == self._key
        )

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> Tuple:
        return self._key

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def variables(self) -> Tuple[Variable, ...]:
        """The variables mentioned, left first (one or two)."""
        return self._vars

    def involves(self, variable: Variable) -> bool:
        return variable in self._vars

    def is_var_var(self) -> bool:
        return len(self._vars) == 2

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    def evaluate(self, assignment: Mapping[Variable, int]) -> bool:
        """Truth value under a (total enough) variable assignment."""
        return self._operand_value(self.left, assignment) > self._operand_value(
            self.right, assignment
        )

    @staticmethod
    def _operand_value(operand: Operand, assignment: Mapping[Variable, int]) -> int:
        if isinstance(operand, Const):
            return operand.value
        try:
            return assignment[operand.variable]
        except KeyError:
            raise KeyError("assignment misses variable %s" % (operand,)) from None

    def substitute(self, variable: Variable, value: int) -> Union["Expression", bool]:
        """Replace one variable with a concrete value.

        Returns a boolean once both sides are constant, otherwise a new
        (smaller) expression.
        """
        left = self.left
        right = self.right
        if isinstance(left, Var) and left.variable == variable:
            left = Const(value)
        if isinstance(right, Var) and right.variable == variable:
            right = Const(value)
        if isinstance(left, Const) and isinstance(right, Const):
            return left.value > right.value
        return Expression(left, right)

    def truth_under(self, relation: Relation) -> bool:
        """Truth of the expression given the answered operand relation."""
        return relation is Relation.GREATER

    def true_relation(self, complete_values) -> Relation:
        """The ground-truth relation, resolved against a complete matrix."""

        def resolve(operand: Operand) -> int:
            if isinstance(operand, Const):
                return operand.value
            return int(complete_values[operand.obj, operand.attr])

        return Relation.of(resolve(self.left), resolve(self.right))

    # ------------------------------------------------------------------
    def question(self) -> str:
        """The triple-choice question text posted to crowd workers."""
        return "Is %s larger than, smaller than, or equal to %s?" % (
            self.left,
            self.right,
        )

    def __repr__(self) -> str:
        return "Expression(%r, %r)" % (self.left, self.right)

    def __str__(self) -> str:
        return "%s > %s" % (self.left, self.right)


def var_greater_const(obj: int, attr: int, value: int) -> Expression:
    """``Var(o, a) > c``."""
    return Expression(Var(obj, attr), Const(value))


def const_greater_var(value: int, obj: int, attr: int) -> Expression:
    """``c > Var(o, a)`` -- i.e. the variable must be *smaller* than ``c``."""
    return Expression(Const(value), Var(obj, attr))


def var_greater_var(obj_a: int, obj_b: int, attr: int) -> Expression:
    """``Var(o_a, attr) > Var(o_b, attr)``."""
    return Expression(Var(obj_a, attr), Var(obj_b, attr))
