"""Exact inference by variable elimination.

One query at a time: the posterior of one attribute given an evidence
dict.  It answers per-cell posterior requests and is the reference the
batched preprocessing pass (``MissingValuePosteriors.precompute_all``,
Section 3's "probability distributions of missing values leveraging
Bayes rules") is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np


@dataclass
class Factor:
    """A non-negative table over a tuple of variables (attribute indices)."""

    variables: Tuple[int, ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        self.table = np.asarray(self.table, dtype=np.float64)
        if self.table.ndim != len(self.variables):
            raise ValueError("factor rank does not match its scope")

    def restrict(self, variable: int, value: int) -> "Factor":
        """Condition on ``variable = value``, dropping it from the scope."""
        axis = self.variables.index(variable)
        new_vars = self.variables[:axis] + self.variables[axis + 1 :]
        new_table = np.take(self.table, value, axis=axis)
        return Factor(new_vars, new_table)

    def multiply(self, other: "Factor") -> "Factor":
        """Pointwise product over the union scope (broadcasted)."""
        merged = list(self.variables)
        for v in other.variables:
            if v not in merged:
                merged.append(v)
        merged_tuple = tuple(merged)
        left = _broadcast(self, merged_tuple)
        right = _broadcast(other, merged_tuple)
        return Factor(merged_tuple, left * right)

    def marginalize(self, variable: int) -> "Factor":
        """Sum out one variable."""
        axis = self.variables.index(variable)
        new_vars = self.variables[:axis] + self.variables[axis + 1 :]
        return Factor(new_vars, self.table.sum(axis=axis))


def _broadcast(factor: Factor, scope: Tuple[int, ...]) -> np.ndarray:
    """Expand a factor table to a larger scope for multiplication."""
    source_axes = [scope.index(v) for v in factor.variables]
    full_shape = [1] * len(scope)
    for axis, size in zip(source_axes, factor.table.shape):
        full_shape[axis] = size
    # Permute the factor's axes into ascending scope order, then pad with 1s.
    order = np.argsort(source_axes)
    permuted = np.transpose(factor.table, axes=order)
    return permuted.reshape(full_shape)


class VariableElimination:
    """Exact marginal queries against a set of CPT-derived factors."""

    def __init__(self, factors: Sequence[Factor], cardinalities: Sequence[int]) -> None:
        self._factors = list(factors)
        self._cards = list(int(c) for c in cardinalities)

    def query(self, target: int, evidence: Dict[int, int]) -> np.ndarray:
        """Posterior pmf ``P(target | evidence)``.

        Falls back to the uniform pmf when the evidence has zero
        probability under the model (cannot happen with smoothed CPTs).
        """
        if target in evidence:
            point = np.zeros(self._cards[target])
            point[evidence[target]] = 1.0
            return point
        restricted: List[Factor] = []
        for factor in self._factors:
            for variable, value in evidence.items():
                if variable in factor.variables:
                    factor = factor.restrict(variable, value)
            restricted.append(factor)
        return self._eliminate(restricted, target)

    def _eliminate(self, restricted: List[Factor], target: int) -> np.ndarray:
        """Sum out everything but ``target`` from evidence-restricted factors."""
        factors = list(restricted)
        hidden = set()
        for factor in factors:
            hidden.update(factor.variables)
        hidden.discard(target)

        for variable in self._elimination_order(factors, hidden, target):
            involved = [f for f in factors if variable in f.variables]
            if not involved:
                continue
            product = involved[0]
            for factor in involved[1:]:
                product = product.multiply(factor)
            summed = product.marginalize(variable)
            factors = [f for f in factors if variable not in f.variables]
            if summed.variables:
                factors.append(summed)
            else:
                factors.append(Factor((), summed.table))

        result = Factor((target,), np.ones(self._cards[target]))
        for factor in factors:
            if factor.variables == ():
                result = Factor(result.variables, result.table * float(factor.table))
            else:
                result = result.multiply(factor)
        table = result.table.reshape(self._cards[target])
        total = table.sum()
        if total <= 0:
            return np.full(self._cards[target], 1.0 / self._cards[target])
        return table / total

    def _elimination_order(self, factors, hidden, target) -> List[int]:
        """Min-degree heuristic: eliminate the variable in the fewest factors first."""
        remaining = set(hidden)
        order: List[int] = []
        scopes = [set(f.variables) for f in factors]
        while remaining:
            best = min(
                remaining,
                key=lambda v: (sum(1 for s in scopes if v in s), v),
            )
            order.append(best)
            remaining.discard(best)
            merged = set()
            kept = []
            for scope in scopes:
                if best in scope:
                    merged |= scope - {best}
                else:
                    kept.append(scope)
            kept.append(merged)
            scopes = kept
        return order
