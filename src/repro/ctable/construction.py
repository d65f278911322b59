"""Get-CTable (Algorithm 2): building the c-table for a skyline query.

For every object ``o``:

1. derive the dominator set ``D(o)`` (Eq. 1);
2. ``D(o)`` empty            -> ``phi(o) = true``  (certain answer);
3. ``|D(o)| > alpha * |O|``  -> ``phi(o) = false`` (alpha-pruned: too many
   potential dominators, near-zero answer probability, huge condition);
4. some fully-observed ``o'`` in ``D(o)`` dominates a fully-observed ``o``
   under Definition 1 -> ``phi(o) = false``;
5. otherwise ``phi(o)`` is the CNF "no dominator candidate actually
   dominates o": one clause per ``p`` in ``D(o)``, with disjuncts
   ``o.[k] > p.[k]`` per attribute, where cells that are missing become
   variables.  A disjunct the domain already decides is not emitted:
   ``0 > Var(p, k)``, ``Var(o, k) > top_k`` and, over a one-value
   domain, ``Var(o, k) > Var(p, k)`` are false in every valuation.  A
   clause they empty makes ``phi(o)`` false.

Both-observed disjuncts evaluate immediately; like the paper's CNF we
ignore the measure-zero "all remaining attributes tie exactly" case for
pairs involving missing values, but fully-observed pairs are decided
exactly under Definition 1 (so exact duplicates never eliminate each
other).
"""

from __future__ import annotations

import time
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from ..datasets.dataset import IncompleteDataset
from .condition import Condition
from .ctable import CTable
from .dominators import dominator_sets
from .expression import Const, Expression, Var
from .pruning import PRUNE_MODES, pruned_dominator_scan

#: Construction backends: ``numpy`` lays clauses out with bulk array
#: operations; ``python`` is the scalar per-pair loop kept for ablation
#: and correctness cross-checks; ``auto`` picks numpy unless the
#: Figure-2 ``baseline`` dominator derivation was explicitly requested.
BACKENDS = ("auto", "numpy", "python")


class _Cells(NamedTuple):
    """What both emitters read of the dataset, computed once per build."""

    dataset: IncompleteDataset
    #: rows without a missing cell
    complete: np.ndarray
    #: top of each attribute's domain (``domain_size - 1``)
    top: np.ndarray
    #: ``live[o, k]``: column ``k`` can hold an open disjunct of ``phi(o)``
    #: (``o`` misses ``k`` over a domain of two or more values, or
    #: observes a value above 0 there)
    live: np.ndarray


def build_ctable(
    dataset: IncompleteDataset,
    alpha: float = 1.0,
    dominator_method: str = "fast",
    inference_mode: str = "full",
    backend: str = "auto",
    prune: str = "auto",
    n_jobs: int = 1,
    cancel_check=None,
) -> CTable:
    """Run Algorithm 2 and return the populated :class:`CTable`.

    Parameters
    ----------
    alpha:
        Pruning threshold: objects with more than ``alpha * |O|`` potential
        dominators are deemed non-answers outright (their true answer
        probability is near zero and their conditions would be huge).
        ``alpha >= 1`` disables pruning.
    dominator_method:
        dominator derivation when the pruning scan is off: ``"fast"``
        (Get-CTable's selectivity-sorted filters) or ``"baseline"``
        (pairwise comparisons, per Figure 2).  The pruning scan derives
        the sets itself and ignores it.
    inference_mode:
        how aggressively crowd answers are propagated afterwards
        (see :data:`repro.ctable.constraints.INFERENCE_MODES`).
    backend:
        ``"numpy"`` (bulk clause layout), ``"python"`` (scalar loops)
        or ``"auto"`` (numpy, unless ``dominator_method="baseline"`` asks
        for the Figure-2 scalar comparison).  Both backends produce
        identical c-tables; construction statistics land in
        :attr:`CTable.build_stats`.
    prune:
        ``"on"`` derives the dominator sets with the sub-quadratic
        pruning scan of :mod:`repro.ctable.pruning`, ``"off"`` with
        ``dominator_method``, ``"auto"`` uses the scan for the numpy
        backend.  The scan is exact: the resulting c-table is identical
        clause for clause, only ``pairs_tested`` shrinks.
    n_jobs:
        process-pool width for the pruning scan (engine convention:
        1 = sequential, 0 = one worker per usable core).  Sharding the
        scan never changes its decisions; single-core hosts and small
        inputs automatically fall back to the sequential scan.
    cancel_check:
        optional zero-argument callable invoked at per-object boundaries;
        raising from it (e.g. a session ``CancellationToken.check``)
        aborts construction cooperatively.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if backend not in BACKENDS:
        raise ValueError("unknown backend %r; expected one of %r" % (backend, BACKENDS))
    if prune not in PRUNE_MODES:
        raise ValueError(
            "unknown prune mode %r; expected one of %r" % (prune, PRUNE_MODES)
        )
    if backend == "auto":
        backend = "python" if dominator_method == "baseline" else "numpy"
    use_prune = prune == "on" or (prune == "auto" and backend == "numpy")
    start = time.perf_counter()
    n = dataset.n_objects
    limit = alpha * n
    if use_prune:
        scan = pruned_dominator_scan(
            dataset, limit, n_jobs=n_jobs, cancel_check=cancel_check
        )
        counts = scan.dominator_counts.tolist()
        sets = scan.open_sets
    else:
        sets = dominator_sets(dataset, method=dominator_method)
        counts = [members.size for members in sets]
    emit = _build_condition_bulk if backend == "numpy" else _build_condition
    mask = dataset.mask
    top = np.asarray(dataset.domain_sizes, dtype=np.int64) - 1
    cells = _Cells(
        dataset, ~mask.any(axis=1), top, np.where(mask, top > 0, dataset.values > 0)
    )
    conditions: Dict[int, Condition] = {}
    pruned = set()
    #: expression intern table shared across the whole build; disjuncts
    #: repeat heavily (small domains, shared dominators), so reusing the
    #: instance skips hash/key recomputation and speeds clause sorting.
    interned: Dict[tuple, Expression] = {}
    for o in range(n):
        if cancel_check is not None:
            cancel_check()
        count = counts[o]
        if count == 0:
            conditions[o] = Condition.true()
        elif count > limit:
            conditions[o] = Condition.false()
            pruned.add(o)
        else:
            conditions[o] = emit(cells, o, sets[o], interned)
    stats = _count_stats(conditions, pruned)
    if use_prune:
        stats.update(scan.stats)
    ctable = CTable(
        dataset=dataset,
        conditions=conditions,
        pruned=frozenset(pruned),
        inference_mode=inference_mode,
        build_stats=stats,
    )
    stats["backend"] = backend
    stats["seconds"] = time.perf_counter() - start
    stats["n_objects"] = n
    stats["builds"] = 1
    pairs = n * (n - 1)
    stats.setdefault("prune_enabled", False)
    stats.setdefault("pairs_tested", pairs)
    stats.setdefault("pairs_pruned", 0)
    stats.setdefault("pair_universe", pairs)
    stats["pairs_per_sec"] = (
        stats["pairs_tested"] / stats["seconds"] if stats["seconds"] > 0 else 0.0
    )
    return ctable


def _count_stats(conditions: Dict[int, Condition], pruned) -> Dict[str, float]:
    return {
        "certain_true": sum(1 for c in conditions.values() if c.is_true),
        "certain_false": sum(1 for c in conditions.values() if c.is_false),
        "alpha_pruned": len(pruned),
        "open_conditions": sum(1 for c in conditions.values() if not c.is_constant),
    }


def _build_condition_bulk(
    cells: _Cells,
    o: int,
    dominators: np.ndarray,
    interned: Dict[tuple, Expression],
) -> Condition:
    """Steps 4-5 of Algorithm 2 for one object, laid out as arrays.

    For every ``(pair, attribute)`` cell the disjunct kind follows from
    the two missing bits, and whether the domain decides it from the
    cell's value, so Python objects are only created for the expressions
    that survive into clauses -- and through ``interned`` only once per
    distinct disjunct of the whole build.  Both-observed cells never
    contribute (dominator membership guarantees ``p >= o`` there).

    Expressions are emitted directly in canonical order -- const-left
    disjuncts sorted by ``(value, attribute)`` via one column
    permutation, then var-left disjuncts by attribute -- so no per-clause
    sort is needed, and clause dedup/ordering runs on the expressions'
    precomputed sort keys.  The clauses come out exactly as
    :meth:`Condition.of` would normalize them, so the raw constructor
    applies.
    """
    dataset, complete, top, live = cells
    values = dataset.values
    vo = values[o]
    if complete[o]:
        # Line 8, vectorized over D(o): membership guarantees p >= o on
        # every attribute for complete pairs, so any difference means
        # strict domination.
        complete_doms = dominators[complete[dominators]]
        if complete_doms.size and bool((values[complete_doms] != vo).any()):
            return Condition.false()
    mo = dataset.mask[o]  # (d,)
    live_o = live[o]
    mp = dataset.mask[dominators]  # (m, d)
    m = len(dominators)
    doms = dominators.tolist()

    clauses: List[List[Expression]] = [[] for __ in range(m)]
    keys: List[List[tuple]] = [[] for __ in range(m)]

    # Const(vo[k]) > Var(p, k) for vo[k] > 0: canonical order is (value,
    # attribute), and within one clause p is fixed -- permuting those
    # columns by (value, attribute) makes row-major nonzero yield that
    # order.
    obs = np.nonzero(live_o & ~mo)[0]
    if obs.size:
        const_order = obs[np.lexsort((obs, vo[obs]))]
        sub = mp[:, const_order]
        order_ks = const_order.tolist()
        vo_l = vo.tolist()
        nz_i, nz_j = np.nonzero(sub)
        for i, j in zip(nz_i.tolist(), nz_j.tolist()):
            k = order_ks[j]
            key = (vo_l[k], doms[i], k)  # shared across objects
            expression = interned.get(key)
            if expression is None:
                expression = Expression(Const(key[0]), Var(key[1], k))
                interned[key] = expression
            clauses[i].append(expression)
            keys[i].append(expression._key)

    # Var(o, k) > ...: canonical order is ascending k.  Columns are
    # visited in that order, each appending to every clause it keeps a
    # disjunct for: a variable right operand when p misses k too, a
    # constant below top_k otherwise.
    variables = set()
    miss = np.nonzero(live_o & mo)[0]
    if miss.size:
        miss_l = miss.tolist()
        tops = top[miss].tolist()
        mp_miss = mp[:, miss].T.tolist()
        vp_miss = values[dominators][:, miss].T.tolist()
        for k, top_k, col_missing, col_values in zip(miss_l, tops, mp_miss, vp_miss):
            local: Dict[int, Expression] = {}  # Var(o, k) > c, scoped to o
            used = False
            for i, p in enumerate(doms):
                if col_missing[i]:
                    # unique to this pair, nothing to intern
                    expression = Expression(Var(o, k), Var(p, k))
                else:
                    c = col_values[i]
                    if c == top_k:
                        continue
                    expression = local.get(c)
                    if expression is None:
                        expression = Expression(Var(o, k), Const(c))
                        local[c] = expression
                clauses[i].append(expression)
                keys[i].append(expression._key)
                used = True
            if used:
                variables.add((o, k))

    normalized = []
    seen = set()
    for i, (clause, key_list) in enumerate(zip(clauses, keys)):
        if not clause:
            if not complete[o] or not complete[doms[i]]:
                # every disjunct of this pair is false in every valuation
                return Condition.false()
            continue  # a fully-observed exact duplicate does not dominate
        ktup = tuple(key_list)
        if ktup in seen:
            continue
        seen.add(ktup)
        normalized.append((ktup, tuple(clause)))
    if not normalized:
        return Condition.true()
    normalized.sort(key=itemgetter(0))
    condition = Condition(clauses=tuple(c for __, c in normalized))
    # The variable set is known without reading the clauses: o's columns
    # that kept a disjunct, and every dominator's missing cell in a live
    # column (that dominator's clause, never deduped, holds it).  Seeding
    # the memo makes CTable's variable-index build cheap.
    nz_p, nz_k = np.nonzero(mp & live_o)
    for i, k in zip(nz_p.tolist(), nz_k.tolist()):
        variables.add((doms[i], k))
    condition._vars = frozenset(variables)
    return condition


def _clause_for_pair(
    dataset: IncompleteDataset, o: int, p: int
) -> Optional[List[Expression]]:
    """The disjunction encoding ``p`` does not dominate ``o``.

    Returns ``None`` when the clause is trivially true (droppable) and an
    empty list when it is trivially false (``p`` certainly dominates ``o``,
    or every disjunct over a missing cell is false in every valuation).
    """
    values = dataset.values
    mask = dataset.mask
    sizes = dataset.domain_sizes
    clause: List[Expression] = []
    strictly_better_somewhere = False  # p > o on some fully-observed attribute
    touches_missing = False
    for k in range(values.shape[1]):
        o_missing = bool(mask[o, k])
        p_missing = bool(mask[p, k])
        if not o_missing and not p_missing:
            if values[o, k] > values[p, k]:
                return None  # o certainly beats p here: p can never dominate
            if values[p, k] > values[o, k]:
                strictly_better_somewhere = True
            continue  # false disjunct: drop it
        touches_missing = True
        if o_missing and p_missing:
            if sizes[k] > 1:
                clause.append(Expression(Var(o, k), Var(p, k)))
        elif o_missing:
            if values[p, k] < sizes[k] - 1:
                clause.append(Expression(Var(o, k), Const(int(values[p, k]))))
        elif values[o, k] > 0:
            clause.append(Expression(Const(int(values[o, k])), Var(p, k)))
    if not clause and not touches_missing and not strictly_better_somewhere:
        # Fully comparable pair with p == o everywhere: all-equal rows do
        # not dominate (Definition 1).
        return None
    return clause


def _build_condition(
    cells: _Cells, o: int, dominators: np.ndarray, interned=None
) -> Condition:
    """Steps 4-5 of Algorithm 2 for one object, pair by pair.

    Takes the bulk emitter's arguments; ``interned`` goes unused.
    """
    values, complete = cells.dataset.values, cells.complete
    # Line 8: a fully-observed dominator beating a fully-observed o decides
    # the condition immediately, without building any clause.
    if complete[o]:
        for p in dominators.tolist():
            if not complete[p]:
                continue
            if (values[p] >= values[o]).all() and (values[p] > values[o]).any():
                return Condition.false()

    clauses: List[List[Expression]] = []
    for p in dominators.tolist():
        clause = _clause_for_pair(cells.dataset, o, p)
        if clause is None:
            continue  # p can never dominate o
        if not clause:
            return Condition.false()  # p certainly dominates o
        clauses.append(clause)
    if not clauses:
        return Condition.true()
    return Condition.of(clauses)
