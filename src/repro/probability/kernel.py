"""Array kernel for the circuit forest: one sweep evaluates every circuit.

The forest (:mod:`repro.probability.forest`) holds the union of *all*
registered circuits as one shared DAG, and a round needs all of their
values at once.  This module lowers the live forest into a
:class:`ForestProgram`: a structure-of-arrays schedule grouped by node
*level* (1 + max child level), so every SUM/PROD of a level is computed
in one vectorized numpy step:

* **set leaves** gather pmf cells through a CSR index into one
  concatenated pmf vector and segment-sum them with ``np.add.reduceat``;
* **pair leaves** (``Pr(A > B)`` theory atoms) reproduce the
  distribution store's prefix-sum formula exactly, bit for bit;
* **SUM levels** are segmented sums over child values (deterministic
  sums -- children are mutually exclusive, so plain addition is exact);
* **PROD levels** run in log space: ``exp(segment_sum(log(children)))``
  with zeros mapped through ``-inf`` back to exact ``0.0``.

Every node carries the forest's monotone creation sequence number, and
all per-block arrays are seq-sorted, so *suffix* re-sweeps -- "recompute
everything created or dirtied after sequence s" -- are a
``searchsorted`` plus contiguous tail slices (``propagate_many``); and a
*masked* sweep computes only the subgraph reachable from a chunk of
roots, which is what pool workers run after attaching the program's flat
arrays from shared memory (:meth:`to_arrays` / :meth:`from_arrays`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ForestProgram"]


def _span_gather(ptr: np.ndarray, sel: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Indices of the CSR spans ``sel`` plus the gathered spans' own CSR.

    ``ptr`` is a CSR offset array (len n+1); ``sel`` selects rows.  The
    returned ``idx`` indexes the flat data array, ``new_ptr`` is the CSR
    of the gathered subset.  Used by masked sweeps to address only the
    children of reachable nodes without materializing per-row loops.
    """
    starts = ptr[sel]
    lens = ptr[sel + 1] - starts
    new_ptr = np.zeros(len(sel) + 1, dtype=np.int64)
    np.cumsum(lens, out=new_ptr[1:])
    total = int(new_ptr[-1])
    idx = np.repeat(starts - new_ptr[:-1], lens) + np.arange(total, dtype=np.int64)
    return idx, new_ptr


class _Block:
    """One level's SUM or PROD nodes: seq-sorted ids plus child CSR."""

    __slots__ = ("ids", "seqs", "ptr", "child")

    def __init__(
        self, ids: np.ndarray, seqs: np.ndarray, ptr: np.ndarray, child: np.ndarray
    ) -> None:
        self.ids = ids
        self.seqs = seqs
        self.ptr = ptr
        self.child = child


def _pack_rows(rows: List[Tuple[int, int, Sequence[int]]]) -> _Block:
    """Rows of ``(seq, slot, children)`` -> a seq-sorted :class:`_Block`."""
    rows.sort()
    ids = np.array([slot for __, slot, __k in rows], dtype=np.int64)
    seqs = np.array([seq for seq, __, __k in rows], dtype=np.int64)
    ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(kids) for __, __s, kids in rows], out=ptr[1:])
    child = (
        np.concatenate([np.asarray(kids, dtype=np.int64) for __, __s, kids in rows])
        if rows
        else np.empty(0, dtype=np.int64)
    )
    return _Block(ids, seqs, ptr, child)


class ForestProgram:
    """A frozen, vectorizable schedule of the forest's live DAG.

    Built once per forest epoch (any node creation or eviction bumps the
    epoch) and reused for every sweep until the structure changes again.
    Leaf weights are pure functions of one concatenated pmf vector, so a
    program plus ``pmf_flat`` fully determines every circuit value --
    which is exactly what ships to pool workers.
    """

    def __init__(self) -> None:
        self.n_slots = 0
        self.n_levels = 0
        #: host-side variable universe, index-aligned with var_sizes
        self.variables: List[Tuple[int, int]] = []
        self.var_sizes = np.empty(0, dtype=np.int64)
        self.var_offsets = np.zeros(1, dtype=np.int64)
        # constant-weight leaves (TRUE + full-domain smoothing literals
        # weigh exactly 1.0; FALSE weighs 0.0)
        self.const_ids = np.empty(0, dtype=np.int64)
        self.false_ids = np.empty(0, dtype=np.int64)
        # set leaves: CSR of global pmf_flat cell indices, seq-sorted
        self.set_ids = np.empty(0, dtype=np.int64)
        self.set_seqs = np.empty(0, dtype=np.int64)
        self.set_ptr = np.zeros(1, dtype=np.int64)
        self.set_cells = np.empty(0, dtype=np.int64)
        # pair leaves: Pr(left > right) with optional negation
        self.pair_ids = np.empty(0, dtype=np.int64)
        self.pair_seqs = np.empty(0, dtype=np.int64)
        self.pair_left = np.empty(0, dtype=np.int64)
        self.pair_right = np.empty(0, dtype=np.int64)
        self.pair_neg = np.empty(0, dtype=np.uint8)
        #: internal levels (index 0 = level 1): [(sum_block, prod_block)]
        self.levels: List[Tuple[_Block, _Block]] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, forest) -> "ForestProgram":
        """Lower the forest's live nodes into level-blocked flat arrays.

        ``forest`` duck-types :class:`repro.probability.forest.CircuitForest`:
        columnar ``kinds``/``payloads``/``children``/``seqs`` lists, a
        ``live_slots()`` iterator and ``domain_size(variable)``.
        """
        # deferred: the forest module imports this one
        from .forest import NODE_LEAF_PAIR, NODE_LEAF_SET, NODE_PROD, NODE_SUM, NODE_TRUE

        self = cls()
        kinds = forest.kinds
        payloads = forest.payloads
        children = forest.children
        seqs = forest.seqs
        order = sorted(forest.live_slots(), key=lambda slot: seqs[slot])
        self.n_slots = len(kinds)

        # variable universe (deterministic: sorted), pmf_flat offsets
        variables = set()
        for slot in order:
            kind = kinds[slot]
            if kind == NODE_LEAF_SET:
                variables.add(payloads[slot][0])
            elif kind == NODE_LEAF_PAIR:
                variables.update(payloads[slot][0].variables())
        self.variables = sorted(variables)
        var_index = {variable: i for i, variable in enumerate(self.variables)}
        self.var_sizes = np.array(
            [forest.domain_size(variable) for variable in self.variables],
            dtype=np.int64,
        )
        self.var_offsets = np.zeros(len(self.variables) + 1, dtype=np.int64)
        np.cumsum(self.var_sizes, out=self.var_offsets[1:])

        level: Dict[int, int] = {}
        const_rows: List[int] = []
        false_rows: List[int] = []
        set_rows: List[Tuple[int, int, np.ndarray]] = []
        pair_rows: List[Tuple[int, int, int, int, int]] = []
        by_level: Dict[int, Tuple[list, list]] = {}
        for slot in order:
            kind = kinds[slot]
            if kind == NODE_SUM or kind == NODE_PROD:
                kids = children[slot]
                lev = 1 + max(level[child] for child in kids)
                level[slot] = lev
                sums, prods = by_level.setdefault(lev, ([], []))
                (sums if kind == NODE_SUM else prods).append(
                    (seqs[slot], slot, kids)
                )
                continue
            level[slot] = 0
            if kind == NODE_LEAF_SET:
                variable, values = payloads[slot]
                if values is None:
                    const_rows.append(slot)
                    continue
                cells = self.var_offsets[var_index[variable]] + np.asarray(
                    values, dtype=np.int64
                )
                set_rows.append((seqs[slot], slot, cells))
            elif kind == NODE_LEAF_PAIR:
                expression, negated = payloads[slot]
                left = var_index[expression.left.variable]
                right = var_index[expression.right.variable]
                pair_rows.append((seqs[slot], slot, left, right, int(negated)))
            elif kind == NODE_TRUE:
                const_rows.append(slot)
            else:  # NODE_FALSE
                false_rows.append(slot)

        self.const_ids = np.array(sorted(const_rows), dtype=np.int64)
        self.false_ids = np.array(sorted(false_rows), dtype=np.int64)

        set_rows.sort(key=lambda row: row[0])
        self.set_ids = np.array([slot for __, slot, __c in set_rows], dtype=np.int64)
        self.set_seqs = np.array([seq for seq, __, __c in set_rows], dtype=np.int64)
        self.set_ptr = np.zeros(len(set_rows) + 1, dtype=np.int64)
        np.cumsum([len(cells) for __, __s, cells in set_rows], out=self.set_ptr[1:])
        self.set_cells = (
            np.concatenate([cells for __, __s, cells in set_rows])
            if set_rows
            else np.empty(0, dtype=np.int64)
        )

        pair_rows.sort()
        self.pair_ids = np.array([r[1] for r in pair_rows], dtype=np.int64)
        self.pair_seqs = np.array([r[0] for r in pair_rows], dtype=np.int64)
        self.pair_left = np.array([r[2] for r in pair_rows], dtype=np.int64)
        self.pair_right = np.array([r[3] for r in pair_rows], dtype=np.int64)
        self.pair_neg = np.array([r[4] for r in pair_rows], dtype=np.uint8)

        self.n_levels = max(by_level) if by_level else 0
        self.levels = [
            (
                _pack_rows(by_level.get(lev, ([], []))[0]),
                _pack_rows(by_level.get(lev, ([], []))[1]),
            )
            for lev in range(1, self.n_levels + 1)
        ]
        return self

    # ------------------------------------------------------------------
    # leaf weights
    # ------------------------------------------------------------------
    def gather_pmfs(self, store) -> np.ndarray:
        """The program's concatenated current pmf vector from a store."""
        if not self.variables:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(
            [np.asarray(store.pmf(variable), dtype=np.float64) for variable in self.variables]
        )

    def _pair_prob(
        self, pmf_flat: np.ndarray, left: int, right: int, lt_cache: Dict[int, np.ndarray]
    ) -> float:
        """``Pr(left > right)`` -- byte-compatible with the store formula."""
        offsets = self.var_offsets
        pmf_a = pmf_flat[offsets[left] : offsets[left + 1]]
        lt_b = lt_cache.get(right)
        if lt_b is None:
            pmf_b = pmf_flat[offsets[right] : offsets[right + 1]]
            lt_b = np.concatenate(((0.0,), np.cumsum(pmf_b)[:-1]))
            lt_cache[right] = lt_b
        limit = min(len(pmf_a), len(lt_b))
        total = float(pmf_a[:limit] @ lt_b[:limit])
        if len(pmf_a) > len(lt_b):
            total += float(pmf_a[len(lt_b) :].sum())
        return total

    def _leaf_pass(
        self,
        values: np.ndarray,
        pmf_flat: np.ndarray,
        min_seq: Optional[int],
        mask: Optional[np.ndarray],
    ) -> None:
        # constants are free to (re)write unconditionally
        values[self.const_ids] = 1.0
        values[self.false_ids] = 0.0
        # set leaves
        if len(self.set_ids):
            if mask is not None:
                sel = np.nonzero(mask[self.set_ids])[0]
                if len(sel):
                    idx, new_ptr = _span_gather(self.set_ptr, sel)
                    values[self.set_ids[sel]] = np.add.reduceat(
                        pmf_flat[self.set_cells[idx]], new_ptr[:-1]
                    )
            else:
                i0 = (
                    int(np.searchsorted(self.set_seqs, min_seq))
                    if min_seq is not None
                    else 0
                )
                if i0 < len(self.set_ids):
                    base = self.set_ptr[i0]
                    rel = self.set_ptr[i0:] - base
                    values[self.set_ids[i0:]] = np.add.reduceat(
                        pmf_flat[self.set_cells[base:]], rel[:-1]
                    )
        # pair leaves (few and scalar: the prefix-sum formula must match
        # the store's bit for bit, so no batching games here)
        if len(self.pair_ids):
            if mask is not None:
                sel = np.nonzero(mask[self.pair_ids])[0]
            else:
                i0 = (
                    int(np.searchsorted(self.pair_seqs, min_seq))
                    if min_seq is not None
                    else 0
                )
                sel = np.arange(i0, len(self.pair_ids))
            lt_cache: Dict[int, np.ndarray] = {}
            for j in sel:
                p = self._pair_prob(
                    pmf_flat, int(self.pair_left[j]), int(self.pair_right[j]), lt_cache
                )
                values[self.pair_ids[j]] = 1.0 - p if self.pair_neg[j] else p

    # ------------------------------------------------------------------
    # sweeps
    # ------------------------------------------------------------------
    def _sweep_numpy(
        self,
        values: np.ndarray,
        min_seq: Optional[int],
        mask: Optional[np.ndarray],
    ) -> None:
        for sum_block, prod_block in self.levels:
            for block, is_prod in ((sum_block, False), (prod_block, True)):
                ids = block.ids
                if not len(ids):
                    continue
                if mask is not None:
                    sel = np.nonzero(mask[ids])[0]
                    if not len(sel):
                        continue
                    idx, new_ptr = _span_gather(block.ptr, sel)
                    child_values = values[block.child[idx]]
                    out_ids = ids[sel]
                    offsets = new_ptr[:-1]
                else:
                    i0 = (
                        int(np.searchsorted(block.seqs, min_seq))
                        if min_seq is not None
                        else 0
                    )
                    if i0 >= len(ids):
                        continue
                    base = block.ptr[i0]
                    child_values = values[block.child[base:]]
                    out_ids = ids[i0:]
                    offsets = (block.ptr[i0:] - base)[:-1]
                if is_prod:
                    # log-space segmented product; zeros round-trip through
                    # -inf back to exact 0.0, and children never exceed 1
                    # by more than float noise, so exp never overflows
                    with np.errstate(divide="ignore"):
                        logs = np.log(child_values)
                    values[out_ids] = np.exp(np.add.reduceat(logs, offsets))
                else:
                    values[out_ids] = np.add.reduceat(child_values, offsets)

    def evaluate(
        self,
        values: np.ndarray,
        pmf_flat: np.ndarray,
        min_seq: Optional[int] = None,
        mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Forward pass: leaves from ``pmf_flat``, then internal levels.

        ``min_seq`` restricts to the suffix created/dirtied at or after
        that sequence number (``propagate_many`` semantics); ``mask``
        restricts to a reachable subset (worker chunks).  With neither,
        this is ``evaluate_many`` over every registered circuit at once.
        """
        self._leaf_pass(values, pmf_flat, min_seq, mask)
        self._sweep_numpy(values, min_seq, mask)
        return values

    def reach_mask(self, roots: Sequence[int]) -> np.ndarray:
        """Boolean mask of every node reachable from ``roots``."""
        mask = np.zeros(self.n_slots, dtype=bool)
        if not len(roots):
            return mask
        mask[np.asarray(roots, dtype=np.int64)] = True
        for sum_block, prod_block in reversed(self.levels):
            for block in (sum_block, prod_block):
                if not len(block.ids):
                    continue
                sel = np.nonzero(mask[block.ids])[0]
                if len(sel):
                    idx, __ = _span_gather(block.ptr, sel)
                    mask[block.child[idx]] = True
        return mask

    def evaluate_roots(
        self, roots: Sequence[int], pmf_flat: np.ndarray
    ) -> np.ndarray:
        """Fresh masked evaluation of the subgraph under ``roots``.

        The pool-worker entry point: no forest, no store -- just the
        program arrays and the published pmf vector.
        """
        values = np.zeros(self.n_slots, dtype=np.float64)
        self.evaluate(values, pmf_flat, mask=self.reach_mask(roots))
        return values

    # ------------------------------------------------------------------
    # shared-memory transport
    # ------------------------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Flatten to named arrays for :class:`SharedArrayBundle`."""
        sum_level_ptr = np.zeros(self.n_levels + 1, dtype=np.int64)
        prod_level_ptr = np.zeros(self.n_levels + 1, dtype=np.int64)
        np.cumsum([len(s.ids) for s, __ in self.levels], out=sum_level_ptr[1:])
        np.cumsum([len(p.ids) for __, p in self.levels], out=prod_level_ptr[1:])

        def _cat(parts, dtype):
            parts = [part for part in parts if len(part)]
            return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

        def _flatten(blocks):
            ids = _cat([b.ids for b in blocks], np.int64)
            seqs = _cat([b.seqs for b in blocks], np.int64)
            child = _cat([b.child for b in blocks], np.int64)
            ptr = np.zeros(len(ids) + 1, dtype=np.int64)
            lens = _cat([b.ptr[1:] - b.ptr[:-1] for b in blocks], np.int64)
            np.cumsum(lens, out=ptr[1:])
            return ids, seqs, ptr, child

        sum_ids, sum_seqs, sum_ptr, sum_child = _flatten([s for s, __ in self.levels])
        prod_ids, prod_seqs, prod_ptr, prod_child = _flatten(
            [p for __, p in self.levels]
        )
        return {
            "program_meta": np.array([self.n_slots, self.n_levels], dtype=np.int64),
            "program_var_sizes": self.var_sizes,
            "program_const_ids": self.const_ids,
            "program_false_ids": self.false_ids,
            "program_set_ids": self.set_ids,
            "program_set_seqs": self.set_seqs,
            "program_set_ptr": self.set_ptr,
            "program_set_cells": self.set_cells,
            "program_pair_ids": self.pair_ids,
            "program_pair_seqs": self.pair_seqs,
            "program_pair_left": self.pair_left,
            "program_pair_right": self.pair_right,
            "program_pair_neg": self.pair_neg,
            "program_sum_level_ptr": sum_level_ptr,
            "program_sum_ids": sum_ids,
            "program_sum_seqs": sum_seqs,
            "program_sum_ptr": sum_ptr,
            "program_sum_child": sum_child,
            "program_prod_level_ptr": prod_level_ptr,
            "program_prod_ids": prod_ids,
            "program_prod_seqs": prod_seqs,
            "program_prod_ptr": prod_ptr,
            "program_prod_child": prod_child,
        }

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "ForestProgram":
        """Rebuild a sweep-capable program from :meth:`to_arrays` output.

        Copies out of the (possibly shared, soon-to-be-unmapped) buffers
        so the per-process cache outlives the bundle.
        """
        def _own(name, dtype):
            return np.array(arrays[name], dtype=dtype)

        self = cls()
        meta = _own("program_meta", np.int64)
        self.n_slots = int(meta[0])
        self.n_levels = int(meta[1])
        self.var_sizes = _own("program_var_sizes", np.int64)
        self.var_offsets = np.zeros(len(self.var_sizes) + 1, dtype=np.int64)
        np.cumsum(self.var_sizes, out=self.var_offsets[1:])
        self.const_ids = _own("program_const_ids", np.int64)
        self.false_ids = _own("program_false_ids", np.int64)
        self.set_ids = _own("program_set_ids", np.int64)
        self.set_seqs = _own("program_set_seqs", np.int64)
        self.set_ptr = _own("program_set_ptr", np.int64)
        self.set_cells = _own("program_set_cells", np.int64)
        self.pair_ids = _own("program_pair_ids", np.int64)
        self.pair_seqs = _own("program_pair_seqs", np.int64)
        self.pair_left = _own("program_pair_left", np.int64)
        self.pair_right = _own("program_pair_right", np.int64)
        self.pair_neg = _own("program_pair_neg", np.uint8)

        def _blocks(prefix):
            level_ptr = _own("program_%s_level_ptr" % prefix, np.int64)
            ids = _own("program_%s_ids" % prefix, np.int64)
            seqs = _own("program_%s_seqs" % prefix, np.int64)
            ptr = _own("program_%s_ptr" % prefix, np.int64)
            child = _own("program_%s_child" % prefix, np.int64)
            blocks = []
            for lev in range(len(level_ptr) - 1):
                a, b = int(level_ptr[lev]), int(level_ptr[lev + 1])
                block_ptr = ptr[a : b + 1] - ptr[a]
                blocks.append(
                    _Block(
                        ids[a:b],
                        seqs[a:b],
                        block_ptr,
                        child[int(ptr[a]) : int(ptr[b])],
                    )
                )
            return blocks

        sums = _blocks("sum")
        prods = _blocks("prod")
        self.levels = list(zip(sums, prods))
        return self
