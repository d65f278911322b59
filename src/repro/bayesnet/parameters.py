"""Parameter learning: Laplace-smoothed maximum-likelihood CPT estimation.

This stands in for the Infer.Net parameter estimation used by the paper:
for fully discrete networks, Bayesian parameter estimation with a uniform
Dirichlet prior reduces to the smoothed count ratios computed here.

Both estimators accept an optional missingness ``mask`` and then perform
*available-case* analysis: each family ``(node, parents)`` is counted over
the rows that are complete in exactly those columns, so the network can be
trained directly on an incomplete dataset (where no row may be fully
complete) without imputation.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from .cpt import CPT


def family_counts(
    columns: Sequence[np.ndarray],
    observed: Optional[Sequence[np.ndarray]],
    family: Sequence[int],
    shape: Tuple[int, ...],
) -> np.ndarray:
    """Available-case counts of one family's value tuples, as float64.

    ``columns[j]`` is attribute ``j``'s value column and ``observed[j]``
    its boolean not-missing column; ``observed=None`` counts every row.
    The rows observed in every ``family`` column are counted into an array
    of ``shape`` (one axis per family column, in ``family`` order); no
    other row's cells are read.
    """
    if observed is None:
        picked = [columns[c] for c in family]
    else:
        keep = observed[family[0]]
        for c in family[1:]:
            keep = keep & observed[c]
        # one nonzero pass, then integer gathers: cheaper than a boolean
        # index per column
        rows = np.flatnonzero(keep)
        picked = [columns[c][rows] for c in family]
    flat = np.ravel_multi_index(picked, shape)
    counts = np.bincount(flat, minlength=math.prod(shape))
    return counts.reshape(shape).astype(np.float64)


def counts_log_likelihood(counts: np.ndarray) -> float:
    """Maximized log-likelihood of family counts (child on the last axis)."""
    totals = counts.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where(counts > 0, np.log(counts / totals), 0.0)
    return float((counts * log_ratio).sum())


def _matrix_counts(
    data: np.ndarray,
    node: int,
    parents: Tuple[int, ...],
    cardinalities: Sequence[int],
    mask: Optional[np.ndarray],
) -> np.ndarray:
    """:func:`family_counts` of ``parents + (node,)`` over an ``(n, d)`` matrix."""
    shape = tuple(int(cardinalities[a]) for a in parents + (node,))
    observed = None if mask is None else ~np.asarray(mask, dtype=bool).T
    return family_counts(data.T, observed, parents + (node,), shape)


def fit_cpt(
    data: np.ndarray,
    node: int,
    parents: Sequence[int],
    cardinalities: Sequence[int],
    alpha: float = 1.0,
    mask: Optional[np.ndarray] = None,
) -> CPT:
    """Estimate ``P(node | parents)`` from (available-case) counts.

    Parameters
    ----------
    data:
        ``(n, d)`` integer matrix; with ``mask`` given, cells flagged there
        are ignored via available-case row filtering per family.
    alpha:
        Additive (Laplace/Dirichlet) smoothing pseudo-count.  ``alpha > 0``
        guarantees every value keeps non-zero probability, which matches the
        paper's assumption that "every missing value has non-zero probability
        of getting any value within the corresponding attribute domain".
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    parents = tuple(int(p) for p in parents)
    card = int(cardinalities[node])
    counts = _matrix_counts(data, node, parents, cardinalities, mask)
    counts += alpha
    totals = counts.sum(axis=-1, keepdims=True)
    # alpha == 0 with an unseen parent configuration would divide by zero;
    # fall back to a uniform row in that case.
    zero_rows = totals == 0
    if zero_rows.any():
        counts = counts + zero_rows * (1.0 / card)
        totals = counts.sum(axis=-1, keepdims=True)
    return CPT(node=node, parents=parents, table=counts / totals)


def log_likelihood(
    data: np.ndarray,
    node: int,
    parents: Sequence[int],
    cardinalities: Sequence[int],
    mask: Optional[np.ndarray] = None,
) -> float:
    """Maximized family log-likelihood of one node given its parents.

    Computed directly from (available-case) counts, as the BIC structure
    score does, so no CPT object is materialized.
    """
    parents = tuple(int(p) for p in parents)
    return counts_log_likelihood(
        _matrix_counts(data, node, parents, cardinalities, mask)
    )
