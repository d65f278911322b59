"""Incomplete dataset model.

The paper operates on relations whose cells are discrete ordinal values
("the larger the better") and where an arbitrary subset of cells is
missing.  A missing cell of object ``o`` on attribute ``a`` is the
*variable* ``Var(o, a)`` of the c-table model.

:class:`IncompleteDataset` keeps three aligned pieces of state:

* ``values`` -- the visible matrix; missing cells hold :data:`MISSING`,
* ``mask``   -- boolean matrix, ``True`` where the cell is missing,
* ``complete`` -- the held-out ground truth matrix (used only by the
  simulated crowd and by evaluation, never by the query algorithms).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Sentinel stored in ``values`` where a cell is missing.
MISSING = -1

#: A variable identifies one missing cell: ``(object_index, attribute_index)``.
Variable = Tuple[int, int]


class DatasetError(ValueError):
    """Raised when a dataset is constructed from inconsistent pieces."""


@dataclass
class IncompleteDataset:
    """A discrete ordinal dataset with missing cells.

    Parameters
    ----------
    values:
        ``(n, d)`` integer matrix.  Cell ``values[i, j]`` is either an
        observed value in ``range(domain_sizes[j])`` or :data:`MISSING`.
    domain_sizes:
        Number of discrete levels per attribute.  Values are the integers
        ``0 .. domain_sizes[j] - 1`` and larger means better.
    complete:
        Optional ground-truth matrix with no missing cells.  Observed cells
        must agree with ``values``.
    attribute_names / object_names:
        Optional labels used for reporting; generated when omitted.
    name:
        Human-readable dataset name.
    """

    values: np.ndarray
    domain_sizes: Sequence[int]
    complete: Optional[np.ndarray] = None
    attribute_names: Optional[List[str]] = None
    object_names: Optional[List[str]] = None
    name: str = "dataset"
    mask: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.int64)
        if self.values.ndim != 2:
            raise DatasetError("values must be a 2-D matrix")
        self.domain_sizes = list(int(s) for s in self.domain_sizes)
        if len(self.domain_sizes) != self.values.shape[1]:
            raise DatasetError(
                "domain_sizes length %d does not match %d attributes"
                % (len(self.domain_sizes), self.values.shape[1])
            )
        if any(s <= 0 for s in self.domain_sizes):
            raise DatasetError("every attribute needs a positive domain size")
        self.mask = self.values == MISSING
        self._check_value_ranges()
        if self.complete is not None:
            self.complete = np.asarray(self.complete, dtype=np.int64)
            self._check_complete()
        if self.attribute_names is None:
            self.attribute_names = ["a%d" % (j + 1) for j in range(self.n_attributes)]
        if len(self.attribute_names) != self.n_attributes:
            raise DatasetError("attribute_names length mismatch")
        if self.object_names is None:
            self.object_names = ["o%d" % (i + 1) for i in range(self.n_objects)]
        if len(self.object_names) != self.n_objects:
            raise DatasetError("object_names length mismatch")

    # ------------------------------------------------------------------
    # validation helpers
    # ------------------------------------------------------------------
    def _check_value_ranges(self) -> None:
        for j, size in enumerate(self.domain_sizes):
            column = self.values[:, j]
            observed = column[column != MISSING]
            if observed.size and (observed.min() < 0 or observed.max() >= size):
                raise DatasetError(
                    "attribute %d has observed values outside [0, %d)" % (j, size)
                )

    def _check_complete(self) -> None:
        if self.complete.shape != self.values.shape:
            raise DatasetError("complete matrix shape mismatch")
        if (self.complete == MISSING).any():
            raise DatasetError("complete matrix must not contain missing cells")
        observed = ~self.mask
        if not np.array_equal(self.values[observed], self.complete[observed]):
            raise DatasetError("observed cells disagree with the complete matrix")
        for j, size in enumerate(self.domain_sizes):
            column = self.complete[:, j]
            if column.min() < 0 or column.max() >= size:
                raise DatasetError(
                    "complete attribute %d outside [0, %d)" % (j, size)
                )

    # ------------------------------------------------------------------
    # basic shape accessors
    # ------------------------------------------------------------------
    @property
    def n_objects(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_attributes(self) -> int:
        return int(self.values.shape[1])

    @property
    def missing_rate(self) -> float:
        """Fraction of missing cells over all cells (the paper's metric)."""
        total = self.values.size
        return float(self.mask.sum()) / total if total else 0.0

    def has_ground_truth(self) -> bool:
        return self.complete is not None

    # ------------------------------------------------------------------
    # cell / object accessors
    # ------------------------------------------------------------------
    def is_missing(self, obj: int, attr: int) -> bool:
        return bool(self.mask[obj, attr])

    def observed_value(self, obj: int, attr: int) -> int:
        """Return the observed value of a cell; raise if it is missing."""
        if self.mask[obj, attr]:
            raise DatasetError("cell (%d, %d) is missing" % (obj, attr))
        return int(self.values[obj, attr])

    def true_value(self, obj: int, attr: int) -> int:
        """Ground-truth value of a cell (simulated-crowd only)."""
        if self.complete is None:
            raise DatasetError("dataset %r has no ground truth" % self.name)
        return int(self.complete[obj, attr])

    def observed_evidence(self, obj: int) -> Dict[int, int]:
        """Observed ``{attribute: value}`` mapping for one object."""
        row = self.values[obj]
        return {
            j: int(row[j]) for j in range(self.n_attributes) if not self.mask[obj, j]
        }

    def is_complete_object(self, obj: int) -> bool:
        return not self.mask[obj].any()

    def variables(self) -> Iterator[Variable]:
        """Iterate over every missing cell as a ``(object, attribute)`` pair."""
        rows, cols = np.nonzero(self.mask)
        for i, j in zip(rows.tolist(), cols.tolist()):
            yield (int(i), int(j))

    def n_variables(self) -> int:
        return int(self.mask.sum())

    # ------------------------------------------------------------------
    # derived datasets
    # ------------------------------------------------------------------
    def subset(self, indices: Sequence[int], name: Optional[str] = None) -> "IncompleteDataset":
        """Dataset restricted to the given object indices (order preserved)."""
        indices = list(indices)
        return IncompleteDataset(
            values=self.values[indices].copy(),
            domain_sizes=list(self.domain_sizes),
            complete=None if self.complete is None else self.complete[indices].copy(),
            attribute_names=list(self.attribute_names),
            object_names=[self.object_names[i] for i in indices],
            name=name or ("%s[%d]" % (self.name, len(indices))),
        )

    def as_complete(self, name: Optional[str] = None) -> "IncompleteDataset":
        """Ground-truth view with nothing missing (for evaluation)."""
        if self.complete is None:
            raise DatasetError("dataset %r has no ground truth" % self.name)
        return IncompleteDataset(
            values=self.complete.copy(),
            domain_sizes=list(self.domain_sizes),
            complete=self.complete.copy(),
            attribute_names=list(self.attribute_names),
            object_names=list(self.object_names),
            name=name or ("%s-complete" % self.name),
        )

    def complete_rows(self) -> np.ndarray:
        """Rows with no missing cell (used to train the Bayesian network)."""
        keep = ~self.mask.any(axis=1)
        return self.values[keep]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "IncompleteDataset(name=%r, n=%d, d=%d, missing=%.3f)" % (
            self.name,
            self.n_objects,
            self.n_attributes,
            self.missing_rate,
        )


def unique_rows(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of a 2-D matrix, the inverse map and the row counts.

    Returns exactly what ``np.unique`` over the rows returns with
    ``return_inverse=True`` and ``return_counts=True`` (the inverse as a
    1-D array): the distinct rows in lexicographic order, first column
    primary, the index of each input row's distinct row, and how many
    input rows each distinct row has.
    One ``np.lexsort`` over the columns replaces ``np.unique``'s sort of
    the rows as structured records, which costs an order of magnitude
    more.
    """
    matrix = np.asarray(matrix)
    n = matrix.shape[0]
    order = np.lexsort(matrix.T[::-1])
    ordered = matrix[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    first = np.flatnonzero(starts)
    return ordered[first], inverse, np.diff(np.append(first, n))


def from_complete(
    complete: np.ndarray,
    mask: np.ndarray,
    domain_sizes: Sequence[int],
    name: str = "dataset",
    attribute_names: Optional[List[str]] = None,
    object_names: Optional[List[str]] = None,
) -> IncompleteDataset:
    """Build an :class:`IncompleteDataset` by hiding ``mask`` cells of ``complete``."""
    complete = np.asarray(complete, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    if complete.shape != mask.shape:
        raise DatasetError("complete and mask shapes differ")
    values = complete.copy()
    values[mask] = MISSING
    return IncompleteDataset(
        values=values,
        domain_sizes=domain_sizes,
        complete=complete,
        attribute_names=attribute_names,
        object_names=object_names,
        name=name,
    )
