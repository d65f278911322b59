"""Step one of each iteration: entropy-ranked object selection.

"We employ Shannon entropy as a metric to quantify the uncertainty of
objects being the query result objects ... we choose the top-k objects
with the highest entropy values" (Section 6.2).

:func:`rank_objects` is the eager reference: every undecided condition
goes through one :meth:`ProbabilityEngine.probability_many` batch.
:class:`IncrementalRanker` serves the same order lazily.  It keeps scores
warm across rounds -- after a batch of crowd answers only the objects
whose conditions mention an answered variable are re-scored -- and it
solves ``Pr(phi(o))`` exactly only for the objects whose
:meth:`ProbabilityEngine.bounds_many` bracket could still put them in the
prefix the planner reads.  :func:`bounded_result_set` decides Section 7's
``Pr > 0.5`` answer set the same way.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..ctable.ctable import CTable
from ..probability.engine import ProbabilityEngine
from .utility import entropy

#: Added to every entropy upper bound so float noise in :func:`entropy`
#: never lets an unsolved object's true key beat its heap key.
ENTROPY_SLACK = 1e-12


@dataclass(frozen=True)
class RankedObject:
    """One undecided object with its current probability and entropy."""

    obj: int
    probability: float
    entropy: float


def rank_objects(ctable: CTable, engine: ProbabilityEngine) -> List[RankedObject]:
    """All undecided objects, most uncertain first.

    Ties break on the smaller object id so runs are reproducible.
    """
    undecided = ctable.undecided()
    probabilities = engine.probability_many(
        [ctable.condition(obj) for obj in undecided]
    )
    ranked = [
        RankedObject(obj=obj, probability=p, entropy=entropy(p))
        for obj, p in zip(undecided, probabilities)
    ]
    ranked.sort(key=lambda r: (-r.entropy, r.obj))
    return ranked


def select_top_k(ctable: CTable, engine: ProbabilityEngine, k: int) -> List[RankedObject]:
    """The ``min(k, #undecided)`` objects with the highest entropy."""
    if k <= 0:
        return []
    return rank_objects(ctable, engine)[:k]


class IncrementalRanker:
    """Entropy ranking that solves only what the reader of the ranking needs.

    After a round of crowd answers, :meth:`CTable.apply_answer` reports
    which objects' conditions were touched; everything else keeps its
    exact probability (and entropy) from the previous round, or its
    bracket if it was never solved.  :meth:`rank` brackets only the
    touched and new objects with :meth:`ProbabilityEngine.bounds_many`
    and hands out a :class:`LazyRanking` that solves exactly as deep as
    it is read.
    """

    def __init__(self, ctable: CTable, engine: ProbabilityEngine) -> None:
        self._ctable = ctable
        self._engine = engine
        self._solved: Dict[int, RankedObject] = {}
        self._bounds: Dict[int, Tuple[float, float]] = {}
        #: unsolved entries of the current ranking, and of the earlier ones
        #: when each was replaced (the ranking holds the ranker, never the
        #: other way round, so a finished query leaves no reference cycle)
        self._unsolved = 0
        self._bounded_before = 0
        #: objects solved exactly by the walk (perf counter)
        self.n_rescored = 0
        #: full ranking passes served (perf counter)
        self.n_rankings = 0

    @property
    def n_bounded(self) -> int:
        """Objects each ranking left unsolved, summed over rankings."""
        return self._bounded_before + self._unsolved

    def mark_dirty(self, objects: Iterable[int]) -> None:
        """Forget the cached scores and brackets of the given objects."""
        for obj in objects:
            self._solved.pop(obj, None)
            self._bounds.pop(obj, None)

    def rank(self) -> "LazyRanking":
        """Current ranking, bracketing only what :meth:`mark_dirty` hit.

        The ranking is read best-first and is valid until the next
        answer is applied.  Its first tier -- every entry tied on the
        highest key -- is solved here, so engines without bounds (every
        bracket ``(0, 1)``) solve all unscored objects in one batch,
        in ascending object order, when :meth:`rank` is called.
        """
        undecided = self._ctable.undecided()
        open_set: Set[int] = set(undecided)
        # Objects decided since the last round fall out of the ranking.
        for cache in (self._solved, self._bounds):
            for obj in [o for o in cache if o not in open_set]:
                del cache[obj]
        unscored = [
            obj
            for obj in undecided
            if obj not in self._solved and obj not in self._bounds
        ]
        if unscored:
            brackets = self._engine.bounds_many(
                [self._ctable.condition(obj) for obj in unscored]
            )
            for obj, (lo, hi) in zip(unscored, brackets):
                if lo == hi:  # a cached exact value
                    self._solved[obj] = RankedObject(obj, lo, entropy(lo))
                else:
                    self._bounds[obj] = (lo, hi)
        heap: List[Tuple[float, int, Optional[RankedObject]]] = [
            (-ranked.entropy, obj, ranked) for obj, ranked in self._solved.items()
        ]
        heap.extend(
            (-max_entropy(lo, hi), obj, None) for obj, (lo, hi) in self._bounds.items()
        )
        heapq.heapify(heap)
        self._bounded_before += self._unsolved
        self._unsolved = len(self._bounds)
        ranking = LazyRanking(self._solve, heap)
        ranking._solve_front(1)
        self.n_rankings += 1
        return ranking

    def _solve(self, objects: List[int]) -> List[RankedObject]:
        probabilities = self._engine.probability_many(
            [self._ctable.condition(obj) for obj in objects]
        )
        solved = []
        for obj, p in zip(objects, probabilities):
            ranked = RankedObject(obj=obj, probability=p, entropy=entropy(p))
            self._solved[obj] = ranked
            self._bounds.pop(obj, None)
            solved.append(ranked)
        self.n_rescored += len(objects)
        self._unsolved -= len(objects)
        return solved


class LazyRanking:
    """Undecided objects in ``(-entropy, obj)`` order, solved on demand.

    A best-first walk in the manner of Fagin et al.'s threshold
    algorithm: a heap keys solved objects by ``(-H, obj)`` and unsolved
    ones by ``(-H_max, obj)``, where ``H_max`` bounds the entropy any
    value inside the object's bracket can have.  A solved entry on top
    is emitted; an unsolved one is solved and pushed back, in one batch
    with the other unsolved entries among as many as are still to be
    read and with every entry tied with the last of them.  Every emitted
    prefix therefore equals the eager :func:`rank_objects` order, ties
    included.  Supports ``bool``, ``len``, integer indexing, slicing
    and iteration.
    """

    def __init__(
        self,
        solve: Callable[[List[int]], List[RankedObject]],
        heap: List[Tuple[float, int, Optional[RankedObject]]],
    ) -> None:
        self._solve = solve
        self._heap = heap
        self._size = len(heap)
        self._emitted: List[RankedObject] = []

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            positions = range(*index.indices(self._size))
            if positions:
                self._fill(max(positions[0], positions[-1]) + 1)
            return [self._emitted[i] for i in positions]
        position = index + self._size if index < 0 else index
        if not 0 <= position < self._size:
            raise IndexError("ranking index out of range")
        self._fill(position + 1)
        return self._emitted[position]

    def __iter__(self) -> Iterator[RankedObject]:
        position = 0
        while position < self._size:
            self._fill(position + 1)
            yield self._emitted[position]
            position += 1

    def _fill(self, count: int) -> None:
        """Walk until ``count`` entries are emitted (or the heap is empty)."""
        heap = self._heap
        while len(self._emitted) < count and heap:
            if heap[0][2] is None:
                self._solve_front(count - len(self._emitted))
            else:
                self._emitted.append(heapq.heappop(heap)[2])

    def _solve_front(self, width: int) -> None:
        """Solve the unsolved entries among the first ``width``, in one batch.

        Solving only raises a key, so fewer than ``width`` entries can
        ever be emitted ahead of any of these: emitting ``width`` more
        entries solves every one of them anyway.  Entries tied on key
        with the last of them join the batch.
        """
        heap = self._heap
        front = []
        while heap and (len(front) < width or heap[0][0] == front[-1][0]):
            front.append(heapq.heappop(heap))
        unsolved = sorted(obj for __, obj, ranked in front if ranked is None)
        if unsolved:
            for ranked in self._solve(unsolved):
                heapq.heappush(heap, (-ranked.entropy, ranked.obj, ranked))
        for item in front:
            if item[2] is not None:
                heapq.heappush(heap, item)


def max_entropy(lo: float, hi: float) -> float:
    """An upper bound on ``entropy(p)`` over ``lo <= p <= hi``.

    Entropy peaks at 0.5 and falls away on both sides, so the bracket's
    point nearest 0.5 maximises it; :data:`ENTROPY_SLACK` keeps the bound
    above float noise in ``entropy`` itself.
    """
    return min(1.0, entropy(min(max(0.5, lo), hi)) + ENTROPY_SLACK)


def bounded_result_set(
    ctable: CTable,
    engine: ProbabilityEngine,
    threshold: float = 0.5,
    solve_answers: bool = False,
) -> Tuple[List[int], int]:
    """Section 7's answer set, deciding each open object from its bracket.

    An object is out when its :meth:`ProbabilityEngine.bounds_many`
    bracket has ``hi <= threshold`` and in when ``lo > threshold``; only
    brackets straddling the threshold are solved, in one batch.  With
    ``solve_answers`` the bracket-decided answers join that batch, so
    their exact values are cached for reporting.  Returns the answers
    (certain ones included) and the number of objects decided from a
    bracket without an exact solve.  Equal to
    ``ctable.result_set(engine.probability, threshold)``.
    """
    undecided = ctable.undecided()
    conditions = [ctable.condition(obj) for obj in undecided]
    answers = ctable.certain_answers()
    straddling: List[int] = []
    to_solve: List[int] = []
    n_bounded = 0
    for obj, (lo, hi) in zip(undecided, engine.bounds_many(conditions)):
        if lo > threshold:
            answers.append(obj)
            if solve_answers and lo < hi:
                to_solve.append(obj)
                continue
        elif hi > threshold:
            straddling.append(obj)
            to_solve.append(obj)
            continue
        if lo < hi:
            n_bounded += 1
    if to_solve:
        probabilities = engine.probability_many(
            [ctable.condition(obj) for obj in to_solve]
        )
        value = dict(zip(to_solve, probabilities))
        answers.extend(obj for obj in straddling if value[obj] > threshold)
    return sorted(answers), n_bounded
