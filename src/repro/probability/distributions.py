"""Per-variable value distributions used by probability computation.

Each variable ``Var(o, a)`` carries a pmf over its attribute domain --
either the Bayesian-network posterior from preprocessing, an empirical
column marginal, or the zero-knowledge uniform.  Following the paper's
ADPLL (which multiplies ``prob * p(v_a)`` per assigned variable),
variables are treated as mutually independent with these marginals.

The store optionally observes a :class:`VariableConstraints` knowledge
base: crowd answers narrow a variable's allowed values and its pmf is
renormalized onto what remains, so later probability computations
incorporate everything the crowd has said.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..ctable.constraints import VariableConstraints
from ..ctable.expression import Const, Expression, Var
from ..ctable.expression_table import KEY_BASE, VAR_CONST, VAR_VAR, ExpressionTable
from ..datasets.dataset import Variable


def _write_tails(gt: np.ndarray, lt: np.ndarray, pmfs: np.ndarray) -> None:
    """Fill rows of ``gt[c] = Pr(X > c)`` and ``lt[c] = Pr(X < c)``.

    Suffix/prefix sums (not ``1 - cdf``) keep every entry an exact sum
    of pmf cells: nonnegative and identical to per-value summation.
    """
    gt[:, :-1] = np.cumsum(pmfs[:, ::-1], axis=1)[:, ::-1][:, 1:]
    gt[:, -1] = 0.0
    lt[:, 0] = 0.0
    lt[:, 1:] = np.cumsum(pmfs, axis=1)[:, :-1]


class DistributionStore:
    """Maps variables to (possibly constraint-restricted) pmfs."""

    def __init__(
        self,
        base: Mapping[Variable, np.ndarray],
        constraints: Optional[VariableConstraints] = None,
    ) -> None:
        # One Python pass groups the pmfs by domain size; each group is then
        # checked and normalised as one matrix.  A shape error ends the pass,
        # so any value error found in the groups comes before it, and the
        # error raised always names the first bad variable in input order.
        variables: List[Variable] = []
        groups: "defaultdict[int, Tuple[List[int], List[np.ndarray]]]" = (
            defaultdict(lambda: ([], []))
        )
        first_bad: Optional[Tuple[int, str]] = None
        for position, (variable, pmf) in enumerate(base.items()):
            variables.append(variable)
            pmf = np.asarray(pmf, dtype=np.float64)
            if pmf.ndim != 1 or pmf.size == 0:
                first_bad = (position, "must be a non-empty vector")
                break
            positions, pmfs = groups[pmf.size]
            positions.append(position)
            pmfs.append(pmf)
        matrices = []
        for positions, pmfs in groups.values():
            # np.stack copies: no row shares memory with the caller's arrays
            matrix = np.stack(pmfs)
            negative = (matrix < 0).any(axis=1)
            totals = matrix.sum(axis=1)
            bad = np.flatnonzero(negative | ~np.isclose(totals, 1.0, atol=1e-6))
            if bad.size and (first_bad is None or positions[bad[0]] < first_bad[0]):
                row = bad[0]
                first_bad = (
                    positions[row],
                    "has negative entries"
                    if negative[row]
                    else "sums to %r, not 1" % (totals[row],),
                )
            matrices.append(([variables[i] for i in positions], matrix / totals[:, None]))
        if first_bad is not None:
            position, message = first_bad
            raise ValueError("pmf of %s %s" % (variables[position], message))
        self._constraints = constraints
        self._init_tails(matrices)
        self._base = {variable: self._base[variable] for variable in variables}

    def _init_tails(self, matrices: List[Tuple[List[Variable], np.ndarray]]) -> None:
        """Take each domain size's pmf matrix and lay out its tails.

        Every variable gets a slot and, in two flat arrays, a row of its
        size's block: ``gt[c] = Pr(X > c)`` and ``lt[c] = Pr(X < c)``.
        Any set of expression probabilities is then one fancy-index
        gather.  Answers rewrite only the rows of the variables they
        change (:meth:`_sync_tails`).  The base pmfs are rows of
        ``matrices``.
        """
        self._base: Dict[Variable, np.ndarray] = {}
        self._slot: Dict[Variable, int] = {}
        shapes = np.array([m.shape for __, m in matrices], dtype=np.int64).reshape(-1, 2)
        self._row_size = np.repeat(shapes[:, 1], shapes[:, 0])
        self._row_start = np.cumsum(self._row_size) - self._row_size
        self._gt = np.empty(int(self._row_size.sum()))
        self._lt = np.empty_like(self._gt)
        for variables, matrix in matrices:
            first = len(self._slot)
            block = slice(self._row_start[first], self._row_start[first] + matrix.size)
            _write_tails(
                self._gt[block].reshape(matrix.shape),
                self._lt[block].reshape(matrix.shape),
                matrix,
            )
            self._slot.update(zip(variables, range(first, first + len(variables))))
            self._base.update(zip(variables, matrix))
        #: sorted variable keys and their slots, for :meth:`_slots_of`,
        #: closed by a key no variable has
        pairs = np.fromiter(itertools.chain.from_iterable(self._slot), np.int64)
        keys = pairs[::2] * KEY_BASE + pairs[1::2]
        self._keys = (
            np.append(np.sort(keys), np.iinfo(np.int64).max),
            np.append(np.argsort(keys), -1),
        )
        #: constraint version the tail rows reflect
        self._synced = 0
        #: each variable's ``(gt, lt)`` row views, made on first use
        self._tail_rows: Dict[Variable, Tuple[np.ndarray, np.ndarray]] = {}
        #: per expression table read (a c-table's and :attr:`expressions`):
        #: the two variable slots of each id
        self._table_slots: Dict[ExpressionTable, np.ndarray] = {}
        #: ids for expressions met outside any c-table's table (hand-built
        #: conditions)
        self.expressions = ExpressionTable()
        # Hot-path caches, validated against per-variable constraint versions:
        # leaf expressions repeat heavily across ADPLL branches.
        self._pmf_cache: Dict[Variable, "tuple[np.ndarray, int]"] = {}
        self._expr_cache: Dict[Expression, "tuple[float, int]"] = {}

    # ------------------------------------------------------------------
    @property
    def constraints(self) -> Optional[VariableConstraints]:
        """The bound knowledge base, if any."""
        return self._constraints

    @property
    def version(self) -> int:
        """Changes whenever constraint updates may alter any pmf."""
        return self._constraints.version if self._constraints is not None else 0

    def variables_unchanged_since(self, variables, version: int) -> bool:
        """True if the pmfs of ``variables`` are identical to store ``version``.

        Used for selective cache invalidation: a cached ``Pr(phi)`` stays
        valid as long as no variable of ``phi`` was constrained afterwards.
        """
        if self._constraints is None:
            return True
        return self._constraints.variables_unchanged_since(variables, version)

    def variables(self):
        return self._base.keys()

    def pmf(self, variable: Variable) -> np.ndarray:
        """Current pmf: base distribution restricted by constraints."""
        base = self._base.get(variable)
        if base is None:
            raise KeyError("no distribution for variable %s" % (variable,))
        constraints = self._constraints
        if constraints is None:
            return base
        current = constraints.version
        cached = self._pmf_cache.get(variable)
        if cached is not None:
            pmf, version = cached
            if version == current:
                return pmf
            if constraints.variables_unchanged_since((variable,), version):
                # Refresh the stored version after a successful
                # revalidation so later hits at this version short-circuit
                # on equality instead of re-scanning.
                self._pmf_cache[variable] = (pmf, current)
                return pmf
        pmf = constraints.constrain_pmf(variable, base)
        self._pmf_cache[variable] = (pmf, current)
        return pmf

    def support(self, variable: Variable) -> np.ndarray:
        """Domain values with strictly positive current probability."""
        return np.nonzero(self.pmf(variable) > 0.0)[0]

    # ------------------------------------------------------------------
    # expression probabilities (exact, under variable independence)
    # ------------------------------------------------------------------
    def tails(self, variable: Variable) -> "tuple[np.ndarray, np.ndarray]":
        """``(gt, lt)`` with ``gt[c] = Pr(X > c)`` and ``lt[c] = Pr(X < c)``.

        Both have the length of the variable's base domain.  They are the
        variable's rows of the dense tails, rewritten in place when an
        answer changes the variable; callers must not modify them.
        """
        constraints = self._constraints
        if constraints is not None and constraints.version != self._synced:
            self._sync_tails()
        rows = self._tail_rows.get(variable)
        if rows is None:
            slot = self._slot.get(variable)
            if slot is None:
                raise KeyError("no distribution for variable %s" % (variable,))
            start = self._row_start[slot]
            end = start + self._row_size[slot]
            rows = self._tail_rows[variable] = (self._gt[start:end], self._lt[start:end])
        return rows

    def _sync_tails(self) -> None:
        """Rewrite the tail rows of the variables answers changed since the
        last sync, from their constrained pmfs."""
        changed = self._constraints.changed_since(self._synced)
        self._synced = self._constraints.version
        for variable in changed & self._slot.keys():
            gt, lt = self.tails(variable)
            _write_tails(gt[None], lt[None], self.pmf(variable)[None])

    def prob_expression(self, expression: Expression) -> float:
        """``Pr(expression)`` under the current distributions (cached)."""
        current = self.version
        cached = self._expr_cache.get(expression)
        if cached is not None:
            value, version = cached
            if version == current:
                return value
            if self.variables_unchanged_since(expression.variables(), version):
                self._expr_cache[expression] = (value, current)
                return value
        value = self._prob_expression_uncached(expression)
        self._expr_cache[expression] = (value, current)
        return value

    def _prob_expression_uncached(self, expression: Expression) -> float:
        left, right = expression.left, expression.right
        if isinstance(left, Var) and isinstance(right, Const):
            gt, __ = self.tails(left.variable)
            c = right.value
            if c >= len(gt):
                return 0.0
            return float(gt[c]) if c >= 0 else 1.0
        if isinstance(left, Const) and isinstance(right, Var):
            __, lt = self.tails(right.variable)
            c = left.value
            if c <= 0:
                return 0.0
            return float(lt[c]) if c < len(lt) else 1.0
        if isinstance(left, Var) and isinstance(right, Var):
            return self._prob_var_greater_var(left.variable, right.variable)
        raise ValueError("expression without variables")  # pragma: no cover

    def _prob_var_greater_var(self, a: Variable, b: Variable) -> float:
        """``Pr(A > B)`` for independent discrete A, B."""
        pmf_a = self.pmf(a)
        __, lt_b = self.tails(b)  # lt_b[x] = Pr(B < x)
        limit = min(len(pmf_a), len(lt_b))
        total = float(pmf_a[:limit] @ lt_b[:limit])
        # values of A above B's domain always win
        if len(pmf_a) > len(lt_b):
            total += float(pmf_a[len(lt_b) :].sum())
        return total

    def expression_values(self, table: ExpressionTable, ids: np.ndarray) -> np.ndarray:
        """``Pr(e)`` for the expression of every id (repeats allowed).

        One fancy-index gather over the dense tails per kind; each
        distinct var-vs-var leaf is read by :meth:`prob_expression`.
        Every value equals :meth:`prob_expression`'s bit for bit.
        """
        constraints = self._constraints
        if constraints is not None and constraints.version != self._synced:
            self._sync_tails()
        kind, key_a, key_b, const = table.columns()
        slots = self._table_slots.get(table)
        done = 0 if slots is None else slots.shape[1]
        if slots is None or done < len(kind):
            new = self._slots_of(np.stack((key_a[done:], key_b[done:])))
            slots = new if slots is None else np.concatenate((slots, new), axis=1)
            self._table_slots[table] = slots
        slot_a, slot_b = slots
        unknown = ids[(slot_a[ids] < 0) | (slot_b[ids] < 0)]
        if unknown.size:
            raise KeyError(
                "no distribution for a variable of %s" % table.expressions[unknown[0]]
            )
        kind, slot, const = kind[ids], slot_a[ids], const[ids]
        start, size = self._row_start[slot], self._row_size[slot]
        at = start + np.clip(const, 0, size - 1)
        values = np.where(
            kind == VAR_CONST,
            np.where(const >= size, 0.0, np.where(const < 0, 1.0, self._gt[at])),
            np.where(const <= 0, 0.0, np.where(const >= size, 1.0, self._lt[at])),
        )
        is_var_var = kind == VAR_VAR
        if is_var_var.any():
            distinct, inverse = np.unique(ids[is_var_var], return_inverse=True)
            expressions = table.expressions
            read = [self.prob_expression(expressions[i]) for i in distinct.tolist()]
            values[is_var_var] = np.array(read)[inverse]
        return values

    def _slots_of(self, keys: np.ndarray) -> np.ndarray:
        """The slot of each variable key, ``-1`` where the store has none."""
        sorted_keys, slot_of = self._keys
        at = np.searchsorted(sorted_keys, keys)
        return np.where(sorted_keys[at] == keys, slot_of[at], -1)

    # ------------------------------------------------------------------
    def sample_assignment(
        self, variables, rng: np.random.Generator
    ) -> Dict[Variable, int]:
        """Independent sample of the given variables (ApproxCount)."""
        out: Dict[Variable, int] = {}
        for variable in variables:
            pmf = self.pmf(variable)
            out[variable] = int(rng.choice(len(pmf), p=pmf))
        return out
