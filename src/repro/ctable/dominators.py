"""Dominator sets (Definition 5 / Eq. 1).

``D(o)`` contains every object that *possibly* dominates ``o``:

    D(o)   = intersection over attributes i of D_i(o)
    D_i(o) = { p != o : p misses attribute i or p.[i] >= o.[i] }   if o.[i] observed
           = all other objects                                      if o.[i] missing

Two derivations are provided, matching the paper's Figure 2 comparison:

* :func:`dominator_sets_baseline` -- "simple pairwise comparisons between
  objects", pure Python, quadratic with per-pair attribute scans.
* :func:`dominator_sets_fast` -- the Get-CTable derivation, which orders
  attributes by selectivity and intersects candidate sets with vectorized
  (bitwise) boolean operations over numpy arrays, shrinking the candidate
  index set attribute by attribute (one Python iteration per object).

Both produce identical (sorted) dominator sets, as does the pruning scan
of :mod:`repro.ctable.pruning` for the objects it leaves open.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..datasets.dataset import IncompleteDataset


def dominator_sets_baseline(dataset: IncompleteDataset) -> List[np.ndarray]:
    """Pairwise-comparison derivation of every dominator set (reference)."""
    n = dataset.n_objects
    d = dataset.n_attributes
    values = dataset.values
    mask = dataset.mask
    result: List[np.ndarray] = []
    for o in range(n):
        members = []
        for p in range(n):
            if p == o:
                continue
            possible = True
            for i in range(d):
                if mask[o, i]:
                    continue  # D_i(o) is the superset: no constraint
                if mask[p, i]:
                    continue  # p in O_i: allowed
                if values[p, i] < values[o, i]:
                    possible = False
                    break
            if possible:
                members.append(p)
        result.append(np.array(members, dtype=np.int64))
    return result


def dominator_sets_fast(dataset: IncompleteDataset) -> List[np.ndarray]:
    """Vectorized derivation used by Get-CTable.

    For each object the candidate set starts as "everyone else" and is
    intersected per observed attribute with ``missing_i | (column_i >= o_i)``
    using numpy boolean kernels.  Attributes are visited most-selective
    first (highest value of ``o`` relative to the column), so the candidate
    index array collapses quickly and later attributes touch few rows.
    """
    n = dataset.n_objects
    values = dataset.values
    mask = dataset.mask

    # Selectivity estimate per cell: fraction of the column that is >= the
    # cell's value or missing.  Precomputed from per-column value counts.
    column_counts = []
    for j, size in enumerate(dataset.domain_sizes):
        observed = values[~mask[:, j], j]
        counts = np.bincount(observed, minlength=size)
        # at_least[v] = number of observed entries >= v
        at_least = np.cumsum(counts[::-1])[::-1]
        column_counts.append(at_least + int(mask[:, j].sum()))
    column_counts = [np.asarray(c, dtype=np.int64) for c in column_counts]

    result: List[np.ndarray] = []
    all_indices = np.arange(n)
    for o in range(n):
        observed_attrs = [j for j in range(dataset.n_attributes) if not mask[o, j]]
        # Most selective attribute first: fewest objects can match it.
        observed_attrs.sort(key=lambda j: int(column_counts[j][values[o, j]]))
        candidates = all_indices
        for j in observed_attrs:
            column = values[candidates, j]
            missing = mask[candidates, j]
            keep = missing | (column >= values[o, j])
            candidates = candidates[keep]
            if candidates.size == 0:
                break
        candidates = candidates[candidates != o]
        result.append(np.sort(candidates).astype(np.int64))
    return result


#: Available derivations, in preference order.
DOMINATOR_METHODS = ("fast", "baseline")


def dominator_sets(
    dataset: IncompleteDataset, method: str = "fast"
) -> List[np.ndarray]:
    """Dispatch between the derivations (both produce identical sets)."""
    if method == "fast":
        return dominator_sets_fast(dataset)
    if method == "baseline":
        return dominator_sets_baseline(dataset)
    raise ValueError(
        "unknown dominator-set method %r; expected one of %r"
        % (method, DOMINATOR_METHODS)
    )
