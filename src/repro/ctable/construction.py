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
from collections import Counter
from typing import Dict, List, Optional

import numpy as np

from ..datasets.dataset import IncompleteDataset
from .condition import Condition
from .ctable import CTable
from .dominators import dominator_sets
from .expression import Const, Expression, Var
from .expression_table import CONST_VAR, KEY_BASE, VAR_CONST, VAR_VAR, ExpressionTable
from .pruning import pruned_dominator_scan

#: Construction backends: ``numpy`` lays clauses out with bulk array
#: operations; ``python`` is the scalar per-pair loop kept for ablation
#: and correctness cross-checks; ``auto`` picks numpy unless the
#: Figure-2 ``baseline`` dominator derivation was explicitly requested.
BACKENDS = ("auto", "numpy", "python")

#: Dominator pairs per array pass of the numpy backend: bounds its
#: ``(pairs x d)`` intermediates at large n.  Chunks hold whole objects,
#: so the budget never changes a clause.
PAIR_BUDGET = 1 << 18

#: The one value each inert keyword accepts.  ``drivers.replay_query``
#: still passes these names (ROADMAP item 1): ``prune`` and ``n_jobs`` to
#: :func:`build_ctable`, ``n_jobs`` and the forest's ``backend``,
#: ``compile_node_budget`` and ``circuit_cache_size`` to
#: :class:`repro.probability.ProbabilityEngine`.
INERT_KEYWORDS = {
    "prune": "auto",
    "n_jobs": 1,
    "backend": "adpll",
    "compile_node_budget": 200_000,
    "circuit_cache_size": 16_384,
}


def check_inert(**given) -> None:
    """Raise ``ValueError`` unless every keyword has its one inert value."""
    for name, value in given.items():
        if value != INERT_KEYWORDS[name]:
            raise ValueError(
                "%s is inert and accepts only %r, got %r"
                % (name, INERT_KEYWORDS[name], value)
            )


def build_ctable(
    dataset: IncompleteDataset,
    alpha: float = 1.0,
    dominator_method: str = "fast",
    inference_mode: str = "full",
    backend: str = "auto",
    # prune-mode residue: drivers.replay_query passes it (ROADMAP item 1)
    prune: str = INERT_KEYWORDS["prune"],
    # pool residue: drivers.replay_query passes it (ROADMAP item 1)
    n_jobs: int = INERT_KEYWORDS["n_jobs"],
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
        dominator derivation of the ``python`` backend: ``"fast"``
        (Get-CTable's selectivity-sorted filters) or ``"baseline"``
        (pairwise comparisons, per Figure 2).  The ``numpy`` backend
        derives the sets with the sub-quadratic pruning scan of
        :mod:`repro.ctable.pruning` and ignores it.
    inference_mode:
        how aggressively crowd answers are propagated afterwards
        (see :data:`repro.ctable.constraints.INFERENCE_MODES`).
    backend:
        ``"numpy"`` (every open condition from one array pass),
        ``"python"`` (scalar per-pair loops) or ``"auto"`` (numpy, unless
        ``dominator_method="baseline"`` asks for the Figure-2 scalar
        comparison).  Both backends produce identical c-tables, clause
        for clause: the scan is exact, only ``pairs_tested`` shrinks.
        Construction statistics land in :attr:`CTable.build_stats`.
    prune, n_jobs:
        inert: each accepts only its :data:`INERT_KEYWORDS` value.
    cancel_check:
        optional zero-argument callable invoked before, during and after
        clause emission; raising from it (e.g. a session
        ``CancellationToken.check``) aborts construction cooperatively.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if backend not in BACKENDS:
        raise ValueError("unknown backend %r; expected one of %r" % (backend, BACKENDS))
    check_inert(prune=prune, n_jobs=n_jobs)
    if backend == "auto":
        backend = "python" if dominator_method == "baseline" else "numpy"
    start = time.perf_counter()
    n = dataset.n_objects
    limit = alpha * n
    if backend == "numpy":
        scan = pruned_dominator_scan(dataset, limit, cancel_check=cancel_check)
        counts, open_objects, members, __ = scan
    else:
        sets = dominator_sets(dataset, method=dominator_method)
        counts = np.array([members.size for members in sets], dtype=np.int64)
        open_objects = np.flatnonzero((counts > 0) & (counts <= limit))
        members = np.concatenate(
            [sets[o] for o in open_objects.tolist()] + [np.empty(0, np.int64)]
        )
    lens = counts[open_objects]
    pruned = frozenset(np.flatnonzero(counts > limit).tolist())
    complete = ~dataset.mask.any(axis=1)
    conditions: List[Condition] = [Condition.true()] * n
    for o in pruned:
        conditions[o] = Condition.false()
    if cancel_check is not None:
        cancel_check()
    indexes = None
    if backend == "numpy":
        indexes = _emit_conditions(
            dataset, complete, open_objects, lens, members, conditions, cancel_check
        )
    else:
        sets = np.split(members, np.cumsum(lens)[:-1])
        for o, dominators in zip(open_objects.tolist(), sets):
            if cancel_check is not None:
                cancel_check()
            conditions[o] = _build_condition(dataset, complete, o, dominators)
    if cancel_check is not None:
        cancel_check()
    stats = {
        "certain_true": sum(1 for c in conditions if c.is_true),
        "certain_false": sum(1 for c in conditions if c.is_false),
        "alpha_pruned": len(pruned),
        "open_conditions": sum(1 for c in conditions if not c.is_constant),
    }
    if backend == "numpy":
        stats.update(scan.stats)
    ctable = CTable(
        dataset=dataset,
        conditions=dict(enumerate(conditions)),
        pruned=pruned,
        inference_mode=inference_mode,
        build_stats=stats,
        indexes=indexes,
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


def _emit_conditions(
    dataset: IncompleteDataset,
    complete: np.ndarray,
    objects: np.ndarray,
    lens: np.ndarray,
    members: np.ndarray,
    conditions: List[Condition],
    cancel_check,
) -> tuple:
    """Steps 4-5 of Algorithm 2 for every object in ``objects``, in bulk.

    ``members`` holds the dominator sets of ``objects`` back to back
    (``lens`` long each); ``complete`` flags the rows without a missing
    cell.  Runs of objects with about :data:`PAIR_BUDGET` pairs go through
    :func:`_chunk_clauses`, which leaves each clause as a row of integer
    expression codes.  Python objects are then made
    once: one :class:`Expression` per distinct code, one tuple per kept
    clause, one :class:`Condition` per open object (written into
    ``conditions``) with its variable set seeded.  The distinct codes
    become the ids of an :class:`ExpressionTable`, and each condition is
    seeded with its occurrence ids and clause widths.  The c-table's
    indexes are counted from the same arrays and returned, with the
    table, in the order :class:`CTable` takes them.
    """
    n, d = dataset.values.shape
    n_const = max(dataset.domain_sizes, default=1)
    n_codes = n_const + n * d
    ends = np.cumsum(lens)
    starts = ends - lens
    parts = [(np.empty(0, dtype=np.int64),) * 4]  # so no run still concatenates
    for run in np.split(
        np.arange(len(objects)), np.flatnonzero(np.diff(starts // PAIR_BUDGET)) + 1
    ):
        if run.size:
            pairs = members[starts[run[0]] : ends[run[-1]]]
            parts.append(
                _chunk_clauses(
                    dataset, complete, objects[run], lens[run], pairs, n_const, n_codes
                )
            )
            if cancel_check is not None:
                cancel_check()
    false_objects, owners, widths, codes = map(np.concatenate, zip(*parts))
    for o in false_objects.tolist():
        conditions[o] = Condition.false()

    # one Expression per distinct code, over shared operands
    distinct, occurrence = np.unique(codes, return_inverse=True)
    sides = np.stack(np.divmod(distinct, n_codes))
    operand_codes, operand_of = np.unique(sides, return_inverse=True)
    operands = np.fromiter(
        (
            Const(c) if c < n_const else Var(*divmod(c - n_const, d))
            for c in operand_codes.tolist()
        ),
        dtype=object,
    )[operand_of.reshape(sides.shape)]
    expressions = np.fromiter(
        map(Expression, operands[0].tolist(), operands[1].tolist()), dtype=object
    )
    flat = expressions[occurrence].tolist()
    bounds = np.cumsum(widths).tolist()
    clauses = [tuple(flat[a:b]) for a, b in zip([0] + bounds, bounds)]
    left, right = sides
    kind = np.where(
        right < n_const, VAR_CONST, np.where(left < n_const, CONST_VAR, VAR_VAR)
    )
    obj, attr = np.divmod(sides - n_const, d)
    keys = obj * KEY_BASE + attr  # of each side's variable; junk for constants
    table = ExpressionTable(
        expressions.tolist(),
        (
            kind,
            np.where(kind == CONST_VAR, keys[1], keys[0]),
            np.where(kind == VAR_CONST, keys[0], keys[1]),
            np.where(kind == VAR_CONST, right, np.where(kind == CONST_VAR, left, -1)),
        ),
    )

    # (object, variable) pairs from each cell's variable operands
    side_vars = sides - n_const  # variable ids; negative for constants
    cell_vars = side_vars[:, occurrence]
    has = cell_vars >= 0
    cell_owner = np.broadcast_to(np.repeat(owners, widths), has.shape)
    # sorted, repeats dropped (np.unique's hash path is far slower here)
    keys = np.sort(cell_owner[has] * (n * d) + cell_vars[has])
    pair_owner, pair_var = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n * d)
    variable_ids, var_of_pair = np.unique(pair_var, return_inverse=True)
    variables = np.fromiter(
        zip(*(ids.tolist() for ids in np.divmod(variable_ids, d))), dtype=object
    )

    open_objects, n_clauses = np.unique(owners, return_counts=True)
    clause_ends = np.cumsum(n_clauses).tolist()
    var_ends = np.cumsum(np.bincount(pair_owner)[open_objects]).tolist()
    object_vars = variables[var_of_pair].tolist()
    bounds = [0] + bounds
    occurrence_ids, clause_widths = occurrence.tolist(), widths.tolist()
    for o, c0, c1, v0, v1 in zip(
        open_objects.tolist(), [0] + clause_ends, clause_ends, [0] + var_ends, var_ends
    ):
        condition = Condition(tuple(clauses[c0:c1]))
        condition._vars = frozenset(object_vars[v0:v1])
        condition._table = table
        condition._ids = occurrence_ids[bounds[c0] : bounds[c1]]
        condition._widths = clause_widths[c0:c1]
        conditions[o] = condition

    has = side_vars >= 0
    expr_ids = np.broadcast_to(np.arange(len(distinct)), has.shape)[has]
    expr_var = np.searchsorted(variable_ids, side_vars[has])
    return (
        set(open_objects.tolist()),
        _grouped(variables, var_of_pair, pair_owner.astype(object)),
        Counter(dict(zip(expressions.tolist(), np.bincount(occurrence).tolist()))),
        _grouped(variables, expr_var, expressions[expr_ids]),
        table,
    )


def _chunk_clauses(
    dataset: IncompleteDataset,
    complete: np.ndarray,
    objects: np.ndarray,
    lens: np.ndarray,
    members: np.ndarray,
    n_const: int,
    n_codes: int,
):
    """Decide a run of objects and lay out their clauses as code rows.

    Each ``(pair, attribute)`` cell holds one of three disjunct kinds,
    fixed by the two missing bits: ``Const(vo) > Var(p)`` (``o``
    observes, ``p`` misses), ``Var(o) > Var(p)`` (both miss) and
    ``Var(o) > Const(vp)`` (``o`` misses).  A disjunct the domain decides
    (``0 > Var``, ``Var > top``, ``Var > Var`` over one value) is dropped;
    both-observed cells never contribute, since membership guarantees
    ``p >= o`` there.

    An operand is coded by one integer that sorts like its sort key:
    ``Const(v)`` is ``v`` and ``Var(o, k)`` is ``n_const + o * d + k``;
    an expression is ``left * n_codes + right`` (int64 holds it while
    ``n * d`` stays below 3e9).  So sorting a clause's codes orders its
    disjuncts canonically, and one ``lexsort`` over clause rows padded
    with ``-1`` orders and dedups each object's clauses the way
    :meth:`Condition.of` does (a prefix sorts first).

    Returns the objects found ``false``, then, per kept clause in
    canonical order, its object and width, and all clause codes flat.
    """
    values, mask = dataset.values, dataset.mask
    d = values.shape[1]
    top = np.asarray(dataset.domain_sizes, dtype=np.int64) - 1
    owner = np.repeat(np.arange(len(objects)), lens)
    o, p = objects[owner], members
    vo, vp, mo, mp = values[o], values[p], mask[o], mask[p]
    both = complete[o] & complete[p]
    keep = np.where(mo, (top > 0) & (mp | (vp != top)), (vo > 0) & mp)
    width = keep.sum(axis=1)
    false = np.zeros(len(objects), dtype=bool)
    # Line 8: membership guarantees p >= o on every attribute of a
    # complete pair, so any difference is strict domination.
    false[owner[both & (vo != vp).any(axis=1)]] = True
    # every disjunct of this pair is false in every valuation (a
    # complete pair left empty is an exact duplicate: no clause)
    false[owner[(width == 0) & ~both]] = True
    pair = np.flatnonzero((width > 0) & ~false[owner])
    row, k = np.nonzero(keep[pair])
    o, p = o[pair][row], p[pair][row]
    left = np.where(mask[o, k], n_const + o * d + k, values[o, k])
    right = np.where(mask[p, k], n_const + p * d + k, values[p, k])
    codes = (left * n_codes + right)[np.lexsort((left * n_codes + right, row))]
    width = width[pair]
    rows = np.full((pair.size, width.max(initial=0)), -1, dtype=np.int64)
    rows[row, np.arange(row.size) - np.repeat(np.cumsum(width) - width, width)] = codes
    owner = owner[pair]
    order = np.lexsort((*rows.T[::-1], owner))
    rows, owner = rows[order], owner[order]
    first = np.ones(pair.size, dtype=bool)
    first[1:] = (owner[1:] != owner[:-1]) | (rows[1:] != rows[:-1]).any(axis=1)
    rows, owner = rows[first], owner[first]
    return objects[false], objects[owner], (rows >= 0).sum(axis=1), rows[rows >= 0]


def _grouped(keys: np.ndarray, ids: np.ndarray, values: np.ndarray) -> Dict:
    """``{keys[i]: set(values[ids == i])}`` over the ``i`` in ``ids``."""
    order = np.argsort(ids, kind="stable")
    ids, firsts = np.unique(ids[order], return_index=True)
    return dict(zip(keys[ids].tolist(), map(set, np.split(values[order], firsts[1:]))))


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
    dataset: IncompleteDataset, complete: np.ndarray, o: int, dominators: np.ndarray
) -> Condition:
    """Steps 4-5 of Algorithm 2 for one object, pair by pair."""
    values = dataset.values
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
        clause = _clause_for_pair(dataset, o, p)
        if clause is None:
            continue  # p can never dominate o
        if not clause:
            return Condition.false()  # p certainly dominates o
        clauses.append(clause)
    if not clauses:
        return Condition.true()
    return Condition.of(clauses)
