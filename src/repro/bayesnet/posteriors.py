"""Missing-value posterior service.

The preprocessing step of BayesCrowd (Section 3): given a trained
Bayesian network and an incomplete dataset, learn a probability
distribution for every variable ``Var(o, a)`` -- the posterior of
attribute ``a`` given the *observed* attributes of object ``o``.

Like the paper's ADPLL (which multiplies ``prob * p(v_a)`` per variable),
downstream probability computation treats variables as independent with
these marginal posteriors; this class is the single place the marginals
are produced.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..datasets.dataset import MISSING, IncompleteDataset, Variable, unique_rows
from .network import BayesianNetwork


class MissingValuePosteriors:
    """Computes and caches per-variable posterior distributions."""

    def __init__(self, network: BayesianNetwork, dataset: IncompleteDataset) -> None:
        if network.n_nodes != dataset.n_attributes:
            raise ValueError("network/dataset attribute count mismatch")
        for j in range(dataset.n_attributes):
            if network.cardinalities[j] != dataset.domain_sizes[j]:
                raise ValueError(
                    "attribute %d: network cardinality %d != domain size %d"
                    % (j, network.cardinalities[j], dataset.domain_sizes[j])
                )
        self._network = network
        self._dataset = dataset
        self._cache: Dict[Tuple[int, Tuple[Tuple[int, int], ...]], np.ndarray] = {}
        #: populated by :meth:`precompute_all` (signature grouping counters)
        self.stats: Dict[str, int] = {}

    def distribution(self, variable: Variable) -> np.ndarray:
        """Posterior pmf of one missing cell given its object's observed cells."""
        obj, attr = variable
        if not self._dataset.is_missing(obj, attr):
            raise ValueError("cell (%d, %d) is not missing" % (obj, attr))
        evidence = self._dataset.observed_evidence(obj)
        key = (attr, tuple(sorted(evidence.items())))
        cached = self._cache.get(key)
        if cached is None:
            cached = self._network.posterior(attr, evidence)
            self._cache[key] = cached
        return cached.copy()

    def precompute_all(self) -> Tuple[List[Variable], np.ndarray]:
        """Posterior pmfs of every missing cell, one contraction per pattern.

        Rows with missing cells are deduplicated into *observed-evidence
        signatures* (identical value rows, missing cells included), and the
        signatures are grouped by their *missing pattern*, the set of
        attributes they miss.  Signatures of one pattern sum out the same
        hidden attributes and differ only in the observed values that pick
        their CPT entries, so each (pattern, target attribute) pair is
        answered for the whole group by one batched ``np.einsum`` whose
        contraction path is variable elimination run on every row at once.

        Returns ``(variables, dense)``: the dataset's missing cells in
        :meth:`IncompleteDataset.variables` order and a
        ``(n_variables, max_domain)`` float array whose row ``i`` holds the
        pmf of ``variables[i]``, zero-padded past the attribute's domain
        (ready to feed :class:`DistributionStore` construction).  Each pmf
        matches a per-cell :meth:`distribution` call up to float rounding.

        ``self.stats`` records ``signature_groups`` (unique signatures),
        ``cells`` (missing cells served) and ``inference_calls``
        (contractions run: one per missing pattern and target attribute).
        """
        dataset = self._dataset
        variables = list(dataset.variables())
        max_domain = max(dataset.domain_sizes) if dataset.domain_sizes else 0
        if not variables:
            self.stats = {"signature_groups": 0, "cells": 0, "inference_calls": 0}
            return variables, np.zeros((0, max_domain))

        rows = np.flatnonzero(dataset.mask.any(axis=1))
        signatures, signature_of_row, _ = unique_rows(dataset.values[rows])
        patterns, pattern_of_signature, _ = unique_rows(signatures == MISSING)
        signature_pmfs = np.zeros(signatures.shape + (max_domain,))
        for p, missing in enumerate(patterns):
            members = np.flatnonzero(pattern_of_signature == p)
            labels = np.cumsum(missing)
            operands = self._pattern_operands(labels, missing, signatures[members])
            for target in np.flatnonzero(missing).tolist():
                joint = np.einsum(
                    *operands, [0, int(labels[target])], optimize="greedy"
                )
                total = joint.sum(axis=1, keepdims=True)
                # Zero-probability evidence falls back to uniform, as in
                # VariableElimination.
                pmf = np.divide(
                    joint,
                    total,
                    out=np.full_like(joint, 1.0 / joint.shape[1]),
                    where=total > 0,
                )
                signature_pmfs[members, target, : pmf.shape[1]] = pmf
        objs, attrs = np.nonzero(dataset.mask)
        row_signature = signature_of_row[np.searchsorted(rows, objs)]
        self.stats = {
            "signature_groups": len(signatures),
            "cells": len(variables),
            "inference_calls": int(patterns.sum()),
        }
        return variables, signature_pmfs[row_signature, attrs]

    def _pattern_operands(
        self, labels: np.ndarray, missing: np.ndarray, evidence: np.ndarray
    ) -> list:
        """``np.einsum`` operands of the joint for signatures sharing a pattern.

        ``missing`` is the pattern's boolean mask and ``evidence`` the
        group's signature rows.  Label 0 is the row axis; missing attribute
        ``a`` gets label ``labels[a]`` (``cumsum(missing)``), so labels stay
        below einsum's limit however many attributes are observed.  Each
        CPT is transposed observed-axes-first and indexed with the rows'
        observed values, leaving a ``(rows, *hidden cards)`` operand.  Fully
        observed CPTs are multiplied into one leading ``(rows,)`` weight
        rather than dropped, so evidence of probability zero yields an
        all-zero joint.
        """
        weight = np.ones(len(evidence))
        operands: list = []
        for cpt in self._network.cpts:
            scope = cpt.parents + (cpt.node,)
            observed = [a for a in scope if not missing[a]]
            hidden = [a for a in scope if missing[a]]
            table = np.transpose(cpt.table, [scope.index(a) for a in observed + hidden])
            table = table[tuple(evidence[:, a] for a in observed)]
            if not hidden:
                weight = weight * table
            else:
                axes = [int(labels[a]) for a in hidden]
                operands += [table, [0] + axes if observed else axes]
        return [weight, [0]] + operands

    def all_distributions(self) -> Dict[Variable, np.ndarray]:
        """Posteriors for every missing cell of the dataset (bulk path).

        Each pmf is a row view of one dense array, not a copy: the
        :class:`~repro.probability.DistributionStore` built from them
        copies every row once, when it stacks each domain size's pmfs.
        """
        variables, dense = self.precompute_all()
        sizes = self._dataset.domain_sizes
        return {
            (obj, attr): dense[i, : sizes[attr]]
            for i, (obj, attr) in enumerate(variables)
        }


def uniform_distributions(dataset: IncompleteDataset) -> Dict[Variable, np.ndarray]:
    """Zero-knowledge fallback: uniform pmf over each attribute domain.

    Matches the paper's baseline assumption that "there is no prior
    knowledge on the missing values"; used when no Bayesian network is
    supplied (and by tests that need deterministic distributions).
    """
    out: Dict[Variable, np.ndarray] = {}
    for variable in dataset.variables():
        __, attr = variable
        size = dataset.domain_sizes[attr]
        out[variable] = np.full(size, 1.0 / size)
    return out


def empirical_distributions(
    dataset: IncompleteDataset, smoothing: float = 1.0
) -> Dict[Variable, np.ndarray]:
    """Column-marginal distributions estimated from observed values.

    A middle ground between uniform and full BN posteriors: each variable's
    pmf is the smoothed empirical distribution of its attribute's observed
    values (no cross-attribute correlation).
    """
    pmfs = []
    for j, size in enumerate(dataset.domain_sizes):
        column = dataset.values[:, j]
        observed = column[column >= 0]
        counts = np.bincount(observed, minlength=size).astype(np.float64)
        counts += smoothing
        pmfs.append(counts / counts.sum())
    out: Dict[Variable, np.ndarray] = {}
    for variable in dataset.variables():
        __, attr = variable
        out[variable] = pmfs[attr].copy()
    return out
