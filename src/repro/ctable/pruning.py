"""Sub-quadratic dominance pruning for c-table construction.

The possible-dominator relation (Eq. 1) is exactly a component-wise
order between two *filled* matrices: ``p`` possibly dominates ``o`` iff

    hi(p) >= lo(o)  on every attribute,

where ``hi`` fills missing cells with the attribute's domain maximum
(a missing ``p``-cell never constrains) and ``lo`` keeps the raw values
matrix (missing cells hold the ``-1`` sentinel, below every observed
value, so a missing ``o``-cell never constrains).  That equivalence
unlocks the classical sort-filter-skyline toolbox:

* **row dedup** -- objects sharing a ``hi`` row are interchangeable as
  dominators, objects sharing a ``lo`` (= values) row have identical
  dominator sets; one comparison of distinct rows decides whole groups
  of object pairs at once;
* **presorting** -- distinct ``hi`` rows are lexicographically sorted
  (most-selective attribute first, descending), so fixed-size blocks are
  homogeneous in their leading attributes and likely dominators come
  first;
* **block bounds** -- each block keeps per-attribute min/max and a
  max attribute-sum; a block whose max falls below ``lo(o)`` anywhere is
  *bulk-rejected* (no member, nothing tested), a block whose min clears
  ``lo(o)`` everywhere is *bulk-accepted* (all members, counted without
  testing);
* **alpha early exit** -- counting runs in stages over the sorted
  blocks; a group whose running dominator count crosses the
  ``alpha * n`` threshold is alpha-pruned and scans no further block.

The scan is one pass.  Bounds and membership tests compare one
attribute at a time, so no ``(groups x blocks x d)`` intermediate is
ever built.  While counting, each tested block's hits are kept as
``(group, row)`` pairs; after the last stage the hits of the open
groups plus the rows of their bulk-accepted blocks, sorted by
``(group, row)``, are their member lists.  Those lists are complete: a
group stays open only if its count never exceeds the limit, and counts
only grow, so it was alive at every stage boundary and tested on every
block its bounds could not decide.

Skipped pairs provably produce no clauses: bulk-rejected blocks contain
no dominator of ``o`` (so no clause source), and pairs behind an alpha
early exit belong to objects whose condition is the constant *false*
(``phi(o)`` never materializes their clauses).  The scan is therefore a
pure pre-pass: surviving objects get exactly the dominator sets of
:func:`repro.ctable.dominators.dominator_sets`, and clause emission is
byte-identical to the scalar backend's.
"""

from __future__ import annotations

import time
from typing import Dict, NamedTuple, Optional

import numpy as np

from ..datasets.dataset import IncompleteDataset, unique_rows

__all__ = ["PruneScan", "pruned_dominator_scan"]

#: Distinct ``hi`` rows per bound block.  Small blocks mean tight
#: min/max bounds (more bulk accept/reject); 32 rows keeps the
#: membership kernels wide enough to stay vectorization-bound.
DEFAULT_BLOCK_SIZE = 32

#: Early-exit stages per scan: alpha-decided groups stop scanning at the
#: next stage boundary.
DEFAULT_STAGES = 8


class PruneScan(NamedTuple):
    """Outcome of the pruning pre-pass, in object (not group) terms."""

    #: ``|D(o)|`` per object (exact for open objects; a lower bound
    #: above the alpha limit for early-exited ones)
    dominator_counts: np.ndarray
    #: the objects with ``0 < |D(o)| <= limit``, ascending
    open_objects: np.ndarray
    #: their dominator sets back to back, each sorted ascending
    members: np.ndarray
    stats: Dict[str, object]

    @property
    def open_sets(self) -> Dict[int, np.ndarray]:
        """Open object -> sorted dominator indices."""
        ends = np.cumsum(self.dominator_counts[self.open_objects])
        return dict(zip(self.open_objects.tolist(), np.split(self.members, ends[:-1])))


# ----------------------------------------------------------------------
# index construction
# ----------------------------------------------------------------------
def _build_index(dataset: IncompleteDataset, block_size: int) -> Dict[str, object]:
    """Dedup, presort and bound the filled matrices; all plain arrays."""
    values = dataset.values
    mask = dataset.mask
    dmax = np.asarray(dataset.domain_sizes, dtype=np.int64) - 1
    hi = np.where(mask, dmax[None, :], values)

    rhi, hi_inv, hi_cnt = unique_rows(hi)
    rlo, lo_inv, lo_cnt = unique_rows(values)

    # Lexicographic descending sort, most-selective (largest-domain)
    # attribute as the primary key: blocks become homogeneous in their
    # leading attributes, which is what makes the bounds bite.
    col_order = np.argsort(-dmax, kind="stable")
    order = np.lexsort(tuple(rhi[:, c] for c in reversed(col_order)))[::-1]
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))

    rhi_s = np.ascontiguousarray(rhi[order])
    rcnt_s = hi_cnt[order].astype(np.int64)

    # per-block bounds: attribute min/max, max attribute sum, objects
    starts = np.arange(0, len(rhi_s), block_size)
    bmax = np.maximum.reduceat(rhi_s, starts, axis=0)
    bmin = np.minimum.reduceat(rhi_s, starts, axis=0)
    bsmax = np.maximum.reduceat(rhi_s.sum(axis=1), starts)
    bcnt = np.add.reduceat(rcnt_s, starts)

    # objects of each sorted distinct-hi row, as one packed array
    sorted_row_of_obj = rank[hi_inv]
    obj_by_row = np.argsort(sorted_row_of_obj, kind="stable").astype(np.int64)
    row_obj_offsets = np.concatenate(([0], np.cumsum(rcnt_s)))

    return {
        "rhi_s": rhi_s,
        "rcnt_s": rcnt_s,
        "bmax": bmax,
        "bmin": bmin,
        "bsmax": bsmax,
        "bcnt": bcnt,
        "rlo": np.ascontiguousarray(rlo),
        "slo": rlo.sum(axis=1).astype(np.int64),
        "lo_inv": lo_inv,
        "lo_cnt": lo_cnt.astype(np.int64),
        "obj_by_row": obj_by_row,
        "row_obj_offsets": row_obj_offsets,
        "block_of_obj": sorted_row_of_obj // block_size,
        "n_blocks": len(starts),
    }


# ----------------------------------------------------------------------
# the scan kernel
# ----------------------------------------------------------------------
def _ragged_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + l) for s, l in zip(starts, lens)])``."""
    ends = np.cumsum(lens)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(
        starts - (ends - lens), lens
    )


def _scan_groups(index, limit: float, n_stages: int, block_size: int):
    """Counts, coverage and open-group members for every lo-group.

    One pass decides everything (see the module docstring): bounds and
    membership compare one attribute at a time, and the counting pass
    keeps its hits, so an open group's member rows are its kept hits
    plus the rows of its bulk-accepted blocks.
    """
    rhi_t = np.ascontiguousarray(index["rhi_s"].T)
    rlo_t = np.ascontiguousarray(index["rlo"].T)
    rcnt_s, bmax, bmin, bcnt = (index[k] for k in ("rcnt_s", "bmax", "bmin", "bcnt"))
    (d, m), h, nb = rlo_t.shape, rhi_t.shape[1], len(bcnt)

    # reject: lo exceeds the block max on some attribute or in its sum;
    # accept: lo is at or below the block min on every attribute
    reject = index["slo"][:, None] > index["bsmax"][None, :]
    accept = np.ones((m, nb), dtype=bool)
    cmp = np.empty((m, nb), dtype=bool)
    for a in range(d):
        reject |= np.greater(rlo_t[a, :, None], bmax[:, a], out=cmp)
        accept &= np.less_equal(rlo_t[a, :, None], bmin[:, a], out=cmp)
    test = np.logical_not(np.logical_or(reject, accept, out=cmp), out=cmp)
    np.greater(accept, reject, out=accept)  # accept &= ~reject
    tested = reject  # the buffer is free again
    tested.fill(False)

    counts = accept @ bcnt
    covered = np.zeros(m, dtype=np.int64)
    alive = np.ones(m, dtype=bool)
    kept = np.empty((2, 0), dtype=np.int64)  # (group, row) hits of alive groups
    stage_bounds = np.linspace(0, nb, min(n_stages, nb) + 1).astype(np.int64)
    for si in range(len(stage_bounds) - 1):
        hits = [kept]
        for b in range(stage_bounds[si], stage_bounds[si + 1]):
            gsel = np.nonzero(test[:, b] & alive)[0]
            if gsel.size == 0:
                continue
            s, e = b * block_size, min((b + 1) * block_size, h)
            memb = rlo_t[0, gsel, None] <= rhi_t[0, s:e]
            for a in range(1, d):
                memb &= rlo_t[a, gsel, None] <= rhi_t[a, s:e]
            hit = np.flatnonzero(memb)
            gi = hit // (e - s)
            hits.append(np.stack([gsel[gi], hit - gi * (e - s) + s]))
            np.add.at(counts, hits[-1][0], rcnt_s[hits[-1][1]])
            covered[gsel] += bcnt[b]
            tested[gsel, b] = True
        alive &= (counts - 1) <= limit
        # hits of groups that just crossed the limit are never read
        kept = np.concatenate(hits, axis=1)
        kept = kept[:, alive[kept[0]]]

    # Member rows of the groups whose objects keep a symbolic condition
    # (0 < |D| <= limit): kept hits plus the rows of accepted blocks.
    open_groups = np.nonzero((counts - 1 > 0) & (counts - 1 <= limit))[0]
    slot = np.full(m, -1, dtype=np.int64)
    slot[open_groups] = np.arange(len(open_groups))
    hit_slot = slot[kept[0]]
    is_open = hit_slot >= 0
    ag, ab = np.nonzero(accept[open_groups])
    a_lens = np.minimum((ab + 1) * block_size, h) - ab * block_size
    groups = np.concatenate([hit_slot[is_open], np.repeat(ag, a_lens)])
    rows = np.concatenate([kept[1][is_open], _ragged_ranges(ab * block_size, a_lens)])
    members = rows[np.lexsort((rows, groups))]
    member_offsets = np.concatenate(
        ([0], np.cumsum(np.bincount(groups, minlength=len(open_groups))))
    )
    return counts, covered, tested, open_groups, members, member_offsets


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def pruned_dominator_scan(
    dataset: IncompleteDataset,
    limit: float,
    block_size: Optional[int] = None,
    n_stages: Optional[int] = None,
    cancel_check=None,
) -> PruneScan:
    """Run the pruning pre-pass and return per-object decisions.

    ``limit`` is the alpha threshold ``alpha * n``: objects whose
    dominator count exceeds it are alpha-pruned without an exact count.
    ``block_size``/``n_stages`` default by cardinality: larger datasets
    take bigger blocks (amortize per-block dispatch) and more early-exit
    stages (alpha decisions come faster relative to the block count).
    """
    start = time.perf_counter()
    n = dataset.n_objects
    if block_size is None:
        block_size = DEFAULT_BLOCK_SIZE if n < 50_000 else 2 * DEFAULT_BLOCK_SIZE
    if n_stages is None:
        n_stages = DEFAULT_STAGES if n < 50_000 else DEFAULT_STAGES + 4
    block_size = max(1, int(block_size))
    index = _build_index(dataset, block_size)
    lo_inv = index["lo_inv"]
    lo_cnt = index["lo_cnt"]
    if cancel_check is not None:
        cancel_check()
    counts, covered, tested, open_groups, members, offsets = _scan_groups(
        index, float(limit), int(n_stages), block_size
    )

    # Exact pair accounting: coverage counts objects per tested block,
    # so subtract each object whose own hi-row block was tested by its
    # own group (the (o, o) cell of the relation is not a pair).
    self_hits = int(tested[lo_inv, index["block_of_obj"]].sum())
    pairs_tested = int((covered * lo_cnt).sum()) - self_hits
    pair_universe = n * (n - 1)

    # Distinct-row member lists -> per-object dominator sets.  All
    # objects of one lo-group share the member objects; each drops only
    # itself (every object is a member of its own group's relation).
    obj_by_row = index["obj_by_row"]
    row_off = index["row_obj_offsets"]
    group_objects = np.argsort(lo_inv, kind="stable")
    group_off = np.concatenate(([0], np.cumsum(lo_cnt)))
    # member rows -> objects, sorted within each group
    lens = row_off[members + 1] - row_off[members]
    objs = obj_by_row[_ragged_ranges(row_off[members], lens)]
    seg = np.concatenate(([0], np.cumsum(lens)))[offsets]
    seg_lens = np.diff(seg)
    objs = objs[np.lexsort((objs, np.repeat(np.arange(len(seg_lens)), seg_lens)))]
    # one copy of the group's objects per owner, minus the owner
    owned = lo_cnt[open_groups]
    owners = group_objects[_ragged_ranges(group_off[open_groups], owned)]
    owner_group = np.repeat(np.arange(len(open_groups)), owned)
    copy_lens = seg_lens[owner_group]
    flat = objs[_ragged_ranges(seg[owner_group], copy_lens)]
    flat = flat[flat != np.repeat(owners, copy_lens)]

    # owner-major copies -> ascending object order, one gather
    per_object_counts = (counts - 1)[lo_inv]
    set_lens = per_object_counts[owners]
    set_starts = np.cumsum(set_lens) - set_lens
    order = np.argsort(owners)
    open_objects = owners[order]
    members = flat[_ragged_ranges(set_starts[order], set_lens[order])]

    stats = {
        "prune_enabled": True,
        "pairs_tested": pairs_tested,
        "pairs_pruned": pair_universe - pairs_tested,
        "pair_universe": pair_universe,
        "prune_blocks": int(index["n_blocks"]),
        "prune_block_size": block_size,
        "distinct_hi_rows": int(len(index["rhi_s"])),
        "distinct_lo_rows": int(len(lo_cnt)),
        "scan_seconds": time.perf_counter() - start,
    }
    return PruneScan(per_object_counts, open_objects, members, stats)
