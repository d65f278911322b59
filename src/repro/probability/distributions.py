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

from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..ctable.constraints import VariableConstraints
from ..ctable.expression import Const, Expression, Var
from ..datasets.dataset import Variable


#: Smallest per-variable expression group worth a vectorized gather in
#: :meth:`DistributionStore.prob_expressions_bulk`.
_BULK_GATHER_MIN = 8


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
        rows: List[np.ndarray] = [None] * len(variables)  # type: ignore[list-item]
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
            for position, pmf in zip(positions, matrix / totals[:, None]):
                rows[position] = pmf
        if first_bad is not None:
            position, message = first_bad
            raise ValueError("pmf of %s %s" % (variables[position], message))
        self._base: Dict[Variable, np.ndarray] = dict(zip(variables, rows))
        self._constraints = constraints
        # Hot-path caches, validated against per-variable constraint versions:
        # leaf expressions repeat heavily across ADPLL branches.
        self._pmf_cache: Dict[Variable, "tuple[np.ndarray, int]"] = {}
        self._expr_cache: Dict[Expression, "tuple[float, int]"] = {}
        # Per-variable cumulative arrays: tails[0][c] = Pr(X > c) and
        # tails[1][c] = Pr(X < c), both length |domain|.  Every expression
        # probability is one lookup (or one dot product) against these.
        self._tail_cache: Dict[Variable, "tuple[np.ndarray, np.ndarray, int]"] = {}

    # ------------------------------------------------------------------
    @property
    def constraints(self) -> Optional[VariableConstraints]:
        """The bound knowledge base, if any (``None`` for frozen snapshots)."""
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

    def has_variable(self, variable: Variable) -> bool:
        return variable in self._base

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
    # frozen snapshots (for process-pool workers)
    # ------------------------------------------------------------------
    def snapshot(self) -> "DistributionStore":
        """A frozen, picklable copy with constraints baked into the pmfs.

        Pool workers compute against the snapshot: it carries no mutable
        knowledge base (``version`` is pinned at 0), so results shipped
        back are valid exactly for the version the snapshot was taken at.
        """
        return DistributionStore(
            {variable: self.pmf(variable).copy() for variable in self._base},
            constraints=None,
        )

    def pack_snapshot(self) -> Dict[str, np.ndarray]:
        """The constraint-baked pmfs as three flat arrays.

        The shared-memory layout for pool workers: variables as an
        ``(n_vars, 2)`` int64 matrix, all pmfs concatenated into one
        float64 vector with an offsets index.  Publishing these once per
        batch replaces pickling a full :meth:`snapshot` into every chunk
        payload.  Rebuild with :meth:`from_packed`.
        """
        variables = sorted(self._base)
        pmfs = [self.pmf(variable) for variable in variables]
        offsets = np.zeros(len(pmfs) + 1, dtype=np.int64)
        if pmfs:
            np.cumsum([len(pmf) for pmf in pmfs], out=offsets[1:])
        return {
            "pmf_variables": np.array(
                variables if variables else [], dtype=np.int64
            ).reshape(len(variables), 2),
            "pmf_offsets": offsets,
            "pmf_flat": (
                np.concatenate(pmfs) if pmfs else np.empty(0, dtype=np.float64)
            ),
        }

    @classmethod
    def from_packed(cls, arrays: Mapping[str, np.ndarray]) -> "DistributionStore":
        """Rebuild a frozen snapshot from :meth:`pack_snapshot` arrays.

        Trusted path: the pmfs were validated and normalized when the
        source store was built, so the validating ``__init__`` is
        bypassed.  The pmfs are copied out of the (possibly shared,
        soon-to-be-unmapped) buffer; the result is constraint-free like
        :meth:`snapshot`.
        """
        variables = arrays["pmf_variables"]
        offsets = arrays["pmf_offsets"]
        flat = arrays["pmf_flat"]
        store = cls.__new__(cls)
        store._base = {
            (int(variables[i, 0]), int(variables[i, 1])): np.array(
                flat[offsets[i]:offsets[i + 1]], dtype=np.float64
            )
            for i in range(len(variables))
        }
        store._constraints = None
        store._pmf_cache = {}
        store._expr_cache = {}
        store._tail_cache = {}
        return store

    # ------------------------------------------------------------------
    # expression probabilities (exact, under variable independence)
    # ------------------------------------------------------------------
    def tails(self, variable: Variable) -> "tuple[np.ndarray, np.ndarray]":
        """``(gt, lt)`` with ``gt[c] = Pr(X > c)`` and ``lt[c] = Pr(X < c)``.

        Both have the length of the variable's base domain and are cached
        per constraint version; callers must not modify them.
        """
        constraints = self._constraints
        cached = self._tail_cache.get(variable)
        if cached is not None:
            gt, lt, version = cached
            if constraints is None or version == constraints.version:
                return gt, lt
            if constraints.variables_unchanged_since((variable,), version):
                self._tail_cache[variable] = (gt, lt, constraints.version)
                return gt, lt
        pmf = self.pmf(variable)
        # Suffix/prefix sums (not 1 - cdf) keep the entries exact sums of
        # pmf cells: nonnegative and identical to per-value summation.
        suffix = np.cumsum(pmf[::-1])[::-1]  # Pr(X >= c)
        gt = np.concatenate((suffix[1:], (0.0,)))  # Pr(X > c)
        lt = np.concatenate(((0.0,), np.cumsum(pmf)[:-1]))  # Pr(X < c)
        self._tail_cache[variable] = (gt, lt, self.version)
        return gt, lt

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

    def prob_expressions_bulk(
        self, expressions: Iterable[Expression]
    ) -> Dict[Expression, float]:
        """Probabilities of many expressions at once, vectorized per variable.

        Variable-vs-constant expressions over the same variable collapse
        into one gather against the variable's cumulative arrays instead
        of per-expression Python arithmetic.  All results are folded into
        the expression cache, so a subsequent ADPLL/naive pass over the
        conditions that produced these leaves starts fully warm.
        """
        out: Dict[Expression, float] = {}
        version = self.version
        var_const: "defaultdict[Variable, List[Tuple[Expression, int]]]" = defaultdict(list)
        const_var: "defaultdict[Variable, List[Tuple[Expression, int]]]" = defaultdict(list)
        var_var: List[Expression] = []
        for expression in expressions:
            if expression in out:
                continue
            cached = self._expr_cache.get(expression)
            if cached is not None:
                if cached[1] == version:
                    out[expression] = cached[0]
                    continue
                if self.variables_unchanged_since(expression.variables(), cached[1]):
                    self._expr_cache[expression] = (cached[0], version)
                    out[expression] = cached[0]
                    continue
            left, right = expression.left, expression.right
            if isinstance(left, Var) and isinstance(right, Const):
                var_const[left.variable].append((expression, right.value))
            elif isinstance(left, Const) and isinstance(right, Var):
                const_var[right.variable].append((expression, left.value))
            else:
                var_var.append(expression)

        for variable, pairs in var_const.items():
            gt, __ = self.tails(variable)
            size = len(gt)
            if len(pairs) < _BULK_GATHER_MIN:
                # ndarray setup costs more than it saves on tiny groups
                for expression, c in pairs:
                    value = 0.0 if c >= size else (float(gt[c]) if c >= 0 else 1.0)
                    out[expression] = value
                    self._expr_cache[expression] = (value, version)
                continue
            cs = np.fromiter((c for __, c in pairs), dtype=np.int64, count=len(pairs))
            values = np.where(
                cs >= size, 0.0, np.where(cs < 0, 1.0, gt[np.clip(cs, 0, size - 1)])
            )
            for (expression, __c), value in zip(pairs, values.tolist()):
                out[expression] = value
                self._expr_cache[expression] = (value, version)
        for variable, pairs in const_var.items():
            __, lt = self.tails(variable)
            size = len(lt)
            if len(pairs) < _BULK_GATHER_MIN:
                for expression, c in pairs:
                    value = 0.0 if c <= 0 else (float(lt[c]) if c < size else 1.0)
                    out[expression] = value
                    self._expr_cache[expression] = (value, version)
                continue
            cs = np.fromiter((c for __, c in pairs), dtype=np.int64, count=len(pairs))
            values = np.where(
                cs <= 0, 0.0, np.where(cs >= size, 1.0, lt[np.clip(cs, 0, size - 1)])
            )
            for (expression, __c), value in zip(pairs, values.tolist()):
                out[expression] = value
                self._expr_cache[expression] = (value, version)
        for expression in var_var:
            out[expression] = self.prob_expression(expression)
        return out

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
