"""Bayesian network structure learning by greedy hill climbing with BIC.

This is the stand-in for the Banjo framework used in the paper's
implementation.  Banjo searches DAG space with greedy / simulated
annealing moves scored by a Bayesian metric; we implement the greedy
variant with the decomposable BIC score:

    BIC(G) = sum_v [ LL(v | Pa(v)) - (log N / 2) * free_params(v) ]

Because the score decomposes over families, each move (add / remove /
reverse an edge) only re-scores the affected child nodes, and family
scores are memoized across the whole search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .dag import DAG
from .parameters import counts_log_likelihood, family_counts


@dataclass
class StructureSearchResult:
    """Outcome of a hill-climbing run."""

    dag: DAG
    score: float
    iterations: int
    moves_applied: int


class _FamilyScoreCache:
    """Memoizes BIC family scores keyed by (node, parent-set).

    With a missingness mask, families are scored on their available-case
    rows and the BIC penalty uses the per-family sample size.  Each
    family's rows are counted once: the value and observed columns are
    laid out contiguously up front, and the log-likelihood and the sample
    size ``n`` both come from the one count array.  Families over the same
    columns (``v | u`` and ``u | v``) share it: the later one reads a
    transposed copy, laid out exactly as its own count would be.
    """

    def __init__(
        self,
        data: np.ndarray,
        cardinalities: Sequence[int],
        mask: Optional[np.ndarray] = None,
    ) -> None:
        self._columns = [np.ascontiguousarray(column) for column in data.T]
        self._observed = (
            None
            if mask is None
            else [
                np.ascontiguousarray(column)
                for column in ~np.asarray(mask, dtype=bool).T
            ]
        )
        self._cards = list(int(c) for c in cardinalities)
        self._cache: Dict[Tuple[int, FrozenSet[int]], float] = {}
        #: column set -> (the family order it was counted in, its counts)
        self._counts: Dict[FrozenSet[int], Tuple[List[int], np.ndarray]] = {}

    def family_score(self, node: int, parents: FrozenSet[int]) -> float:
        key = (node, parents)
        if key in self._cache:
            return self._cache[key]
        family = sorted(parents) + [node]
        columns = frozenset(family)
        if columns in self._counts:
            order, counted = self._counts[columns]
            counts = np.ascontiguousarray(
                counted.transpose([order.index(a) for a in family])
            )
        else:
            counts = family_counts(
                self._columns,
                self._observed,
                family,
                tuple(self._cards[a] for a in family),
            )
            self._counts[columns] = (family, counts)
        ll = counts_log_likelihood(counts)
        free = (self._cards[node] - 1) * math.prod(self._cards[p] for p in parents)
        # counts are integer-valued float64, so their sum is exact
        n = max(int(counts.sum()), 1)
        if self._observed is not None and parents and n < max(30, 2 * free):
            # Available-case guard: a family observed on a handful of rows
            # can show spuriously high likelihood; refuse the edge outright.
            score = float("-inf")
        else:
            score = ll - 0.5 * math.log(n) * free
        self._cache[key] = score
        return score


def bic_score(
    data: np.ndarray,
    dag: DAG,
    cardinalities: Sequence[int],
    mask: Optional[np.ndarray] = None,
) -> float:
    """Total BIC score of a DAG (available-case when ``mask`` is given)."""
    cache = _FamilyScoreCache(np.asarray(data, dtype=np.int64), cardinalities, mask)
    return sum(
        cache.family_score(node, dag.parents(node)) for node in range(dag.n_nodes)
    )


def hill_climb(
    data: np.ndarray,
    cardinalities: Sequence[int],
    max_parents: int = 3,
    max_iterations: int = 200,
    initial: Optional[DAG] = None,
    rng: Optional[np.random.Generator] = None,
    mask: Optional[np.ndarray] = None,
) -> StructureSearchResult:
    """Greedy hill climbing over add / remove / reverse edge moves.

    At each iteration the single best-improving move is applied; the search
    stops at a local optimum or after ``max_iterations`` moves.  ``rng``
    only shuffles tie-breaking order so repeated runs are reproducible.
    """
    data = np.asarray(data, dtype=np.int64)
    if data.ndim != 2:
        raise ValueError("data must be a 2-D matrix")
    n_nodes = data.shape[1]
    if len(cardinalities) != n_nodes:
        raise ValueError("cardinalities length mismatch")
    if max_parents < 0:
        raise ValueError("max_parents must be non-negative")

    rng = rng or np.random.default_rng(0)
    dag = initial.copy() if initial is not None else DAG(n_nodes)
    cache = _FamilyScoreCache(data, cardinalities, mask)

    family = {node: cache.family_score(node, dag.parents(node)) for node in range(n_nodes)}
    iterations = 0
    moves = 0
    for iterations in range(1, max_iterations + 1):
        best_gain = 1e-9  # require strictly positive improvement
        best_move: Optional[Tuple[str, int, int]] = None
        pairs = [(u, v) for u in range(n_nodes) for v in range(n_nodes) if u != v]
        rng.shuffle(pairs)

        for u, v in pairs:
            if dag.has_edge(u, v):
                # remove u -> v
                gain = cache.family_score(v, dag.parents(v) - {u}) - family[v]
                if gain > best_gain:
                    best_gain, best_move = gain, ("remove", u, v)
                # reverse u -> v (v becomes parent of u)
                if len(dag.parents(u)) < max_parents and dag.can_reverse_edge(u, v):
                    gain = (
                        cache.family_score(v, dag.parents(v) - {u})
                        - family[v]
                        + cache.family_score(u, dag.parents(u) | {v})
                        - family[u]
                    )
                    if gain > best_gain:
                        best_gain, best_move = gain, ("reverse", u, v)
            else:
                # add u -> v
                if len(dag.parents(v)) >= max_parents:
                    continue
                if not dag.can_add_edge(u, v):
                    continue
                gain = cache.family_score(v, dag.parents(v) | {u}) - family[v]
                if gain > best_gain:
                    best_gain, best_move = gain, ("add", u, v)

        if best_move is None:
            break
        kind, u, v = best_move
        if kind == "add":
            dag.add_edge(u, v)
            family[v] = cache.family_score(v, dag.parents(v))
        elif kind == "remove":
            dag.remove_edge(u, v)
            family[v] = cache.family_score(v, dag.parents(v))
        else:
            dag.reverse_edge(u, v)
            family[v] = cache.family_score(v, dag.parents(v))
            family[u] = cache.family_score(u, dag.parents(u))
        moves += 1

    return StructureSearchResult(
        dag=dag,
        score=sum(family.values()),
        iterations=iterations,
        moves_applied=moves,
    )
