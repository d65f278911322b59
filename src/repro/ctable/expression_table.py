"""Dense integer ids for expressions, with their parts as columns.

A :class:`ExpressionTable` numbers expressions ``0, 1, 2, ...`` in the
order it first sees them and keeps, per id, the expression's kind, the
keys of its variables and its constant as numpy columns, next to the
:class:`Expression` object itself.  A condition's expression ids
(:meth:`Condition.expression_ids`) index these columns, so a
probability layer can read every leaf of many conditions with one
fancy-index gather per kind instead of one dict walk per occurrence.

Get-CTable fills a table from its integer expression codes in one pass
(the constructor's ``columns``); everything else is interned on first
sight (:meth:`ExpressionTable.intern_clauses`).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datasets.dataset import Variable
from .expression import Const, Expression

#: Expression kinds: ``Var > Const``, ``Const > Var`` and ``Var > Var``.
VAR_CONST, CONST_VAR, VAR_VAR = 0, 1, 2

#: ``variable_key(o, a) = o * KEY_BASE + a``: one sortable int64 per variable.
KEY_BASE = 1 << 32


def variable_key(variable: Variable) -> int:
    obj, attr = variable
    return obj * KEY_BASE + attr


def _row(expression: Expression) -> Tuple[int, int, int, int]:
    """``(kind, key_a, key_b, const)`` of one expression.

    A var-vs-const expression has its variable's key twice; a var-vs-var
    one has its left and right variables' keys and ``const`` ``-1``.
    """
    left, right = expression.left, expression.right
    if isinstance(right, Const):
        key = variable_key(left.variable)
        return VAR_CONST, key, key, right.value
    if isinstance(left, Const):
        key = variable_key(right.variable)
        return CONST_VAR, key, key, left.value
    return VAR_VAR, variable_key(left.variable), variable_key(right.variable), -1


class ExpressionTable:
    """Expressions by dense id; ids are never reused or renumbered."""

    def __init__(
        self,
        expressions: Sequence[Expression] = (),
        columns: Optional[Tuple[np.ndarray, ...]] = None,
    ) -> None:
        #: the expression of each id
        self.expressions: List[Expression] = list(expressions)
        #: expression -> id, built on the first :meth:`intern_clauses`
        self._index: Optional[Dict[Expression, int]] = None
        #: ``(kind, key_a, key_b, const)`` columns of the first ids ...
        self._columns: Tuple[np.ndarray, ...] = columns or tuple(
            np.empty(0, dtype=np.int64) for __ in range(4)
        )
        #: ... and the rows interned since, not yet in the columns
        self._pending: List[Tuple[int, int, int, int]] = []

    def __len__(self) -> int:
        return len(self.expressions)

    def intern_clauses(
        self, clauses: Sequence[Sequence[Expression]]
    ) -> Tuple[List[int], List[int]]:
        """The ids of every occurrence, clause after clause, and the widths."""
        index = self._index
        if index is None:
            index = self._index = dict(
                zip(self.expressions, range(len(self.expressions)))
            )
        ids = []
        for expression in itertools.chain.from_iterable(clauses):
            known = index.get(expression)
            if known is None:
                known = index[expression] = len(self.expressions)
                self.expressions.append(expression)
                self._pending.append(_row(expression))
            ids.append(known)
        return ids, list(map(len, clauses))

    def columns(self) -> Tuple[np.ndarray, ...]:
        """``(kind, key_a, key_b, const)``, one entry per id (see :func:`_row`)."""
        if self._pending:
            rows = np.array(self._pending, dtype=np.int64).T
            self._columns = tuple(map(np.concatenate, zip(self._columns, rows)))
            self._pending = []
        return self._columns
