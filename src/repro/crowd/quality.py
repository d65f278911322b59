"""Worker-quality estimation and confidence-weighted aggregation.

The paper leaves "the quality optimization problem on answering
incomplete data queries" as future work and notes that in practice one
"could select the workers whose accuracies being above one certain value"
(AMT supports such recruitment).  This module implements the standard
machinery behind both ideas:

* :func:`estimate_worker_accuracies` -- calibrate each worker against
  *gold tasks* (questions whose answer the requester already knows, e.g.
  comparisons between observed values that are presented as if unknown);
* :func:`weighted_vote` -- Dawid-Skene-style log-odds weighted voting,
  which beats plain majority voting when worker quality varies;
* :func:`filter_pool` -- drop workers below an accuracy bar;
* :class:`WorkerReliability` -- *online* per-worker accuracy estimation:
  a sequential Bayesian (Beta-Bernoulli) update from each worker's
  agreement with accepted majorities, generalizing the static gold-task
  calibration to run continuously during a crowd campaign.  Used by the
  answer-integrity layer (:mod:`repro.crowd.integrity`) to weight re-ask
  votes without spending extra gold questions.

All pieces plug into :class:`~repro.crowd.platform.SimulatedCrowdPlatform`
via its ``aggregator`` hook.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ctable.expression import Relation
from .aggregation import _resolve_fallback_rng
from .worker import SimulatedWorker, WorkerPool

#: number of wrong options in a triple-choice task
_N_WRONG = 2


def estimate_worker_accuracies(
    pool: WorkerPool,
    n_gold_questions: int = 20,
    rng: Optional[np.random.Generator] = None,
    smoothing: float = 1.0,
) -> Dict[int, float]:
    """Estimate each worker's accuracy from gold questions.

    Each worker answers ``n_gold_questions`` tasks with known ground-truth
    relations (drawn uniformly over the three options); the estimate is the
    Laplace-smoothed fraction answered correctly.
    """
    if n_gold_questions < 1:
        raise ValueError("n_gold_questions must be positive")
    rng = rng or np.random.default_rng(0)
    relations = (Relation.LESS, Relation.EQUAL, Relation.GREATER)
    estimates: Dict[int, float] = {}
    for worker in pool.workers:
        correct = 0
        for __ in range(n_gold_questions):
            truth = relations[int(rng.integers(3))]
            if worker.answer(truth) is truth:
                correct += 1
        estimates[worker.worker_id] = (correct + smoothing) / (
            n_gold_questions + 2 * smoothing
        )
    return estimates


def _log_odds(accuracy: float) -> float:
    """Log-odds weight of one worker for a 3-option task.

    Derived from the symmetric-confusion model: a worker answers correctly
    with probability ``a`` and picks either wrong option with probability
    ``(1 - a) / 2``.  Clipped away from 0 and 1 for stability.
    """
    a = min(max(accuracy, 1e-3), 1.0 - 1e-3)
    return math.log(a * _N_WRONG / (1.0 - a))


def weighted_vote(
    votes: Sequence[Tuple[int, Relation]],
    accuracies: Dict[int, float],
    rng: Optional[np.random.Generator] = None,
    default_accuracy: float = 0.75,
) -> Relation:
    """Pick the relation with the highest total log-odds weight.

    ``votes`` holds ``(worker_id, relation)`` pairs; workers missing from
    ``accuracies`` count with ``default_accuracy``.  Ties break uniformly.
    """
    if not votes:
        raise ValueError("cannot aggregate zero votes")
    scores: Dict[Relation, float] = {}
    for worker_id, relation in votes:
        weight = _log_odds(accuracies.get(worker_id, default_accuracy))
        scores[relation] = scores.get(relation, 0.0) + weight
    best = max(scores.values())
    winners = sorted((r for r, s in scores.items() if s >= best - 1e-12),
                     key=lambda r: r.value)
    if len(winners) == 1:
        return winners[0]
    if rng is None:
        # Session-local fallback stream when a session is active; the
        # deprecated process-global generator otherwise.  A fresh
        # default_rng(0) here would replay the identical tie-break on
        # every call.
        rng = _resolve_fallback_rng("crowd.quality")
    return winners[int(rng.integers(len(winners)))]


def make_weighted_aggregator(
    accuracies: Dict[int, float],
    rng: Optional[np.random.Generator] = None,
):
    """An ``aggregator`` callable for the simulated platform."""
    def aggregate(votes: Sequence[Tuple[SimulatedWorker, Relation]]) -> Relation:
        pairs = [(worker.worker_id, relation) for worker, relation in votes]
        return weighted_vote(pairs, accuracies, rng=rng)

    return aggregate


#: Default Beta prior over worker accuracy: mean 0.8 (a mildly optimistic
#: crowd), pseudo-counts low enough that ~5 observations dominate it.
DEFAULT_RELIABILITY_PRIOR: Tuple[float, float] = (4.0, 1.0)


class WorkerReliability:
    """Online per-worker accuracy from agreement with accepted majorities.

    Each worker carries a Beta posterior over their accuracy, updated
    sequentially: agreeing with an answer the integrity layer *accepted*
    counts as a success, disagreeing as a failure.  The posterior mean is
    the running estimate, usable anywhere a gold-question estimate is
    (e.g. :func:`weighted_vote`).  Unseen workers report the prior mean.

    Accepted majorities are a noisy ground-truth proxy, so this is the
    standard EM-flavoured approximation (Dawid-Skene with hard labels);
    the prior keeps early estimates from collapsing on one disagreement.
    """

    def __init__(
        self, prior: Tuple[float, float] = DEFAULT_RELIABILITY_PRIOR
    ) -> None:
        alpha, beta = float(prior[0]), float(prior[1])
        if alpha <= 0.0 or beta <= 0.0:
            raise ValueError(
                "reliability prior needs positive pseudo-counts, got %r" % (prior,)
            )
        self.prior = (alpha, beta)
        #: worker -> [successes, failures] observed so far
        self._observed: Dict[int, List[float]] = {}

    @property
    def prior_mean(self) -> float:
        alpha, beta = self.prior
        return alpha / (alpha + beta)

    def observe(self, worker_id: int, agreed: bool) -> None:
        """Fold one agreement observation into the worker's posterior."""
        counts = self._observed.setdefault(int(worker_id), [0.0, 0.0])
        counts[0 if agreed else 1] += 1.0

    def observe_votes(
        self, votes: Sequence[Tuple[int, Relation]], accepted: Relation
    ) -> None:
        """Update every voter against the accepted aggregated answer."""
        for worker_id, relation in votes:
            self.observe(worker_id, relation is accepted)

    def accuracy(self, worker_id: int) -> float:
        """Posterior-mean accuracy of one worker (prior mean if unseen)."""
        counts = self._observed.get(int(worker_id))
        alpha, beta = self.prior
        if counts is None:
            return alpha / (alpha + beta)
        return (alpha + counts[0]) / (alpha + beta + counts[0] + counts[1])

    def n_observations(self, worker_id: int) -> int:
        counts = self._observed.get(int(worker_id))
        return int(counts[0] + counts[1]) if counts else 0

    def accuracies(self) -> Dict[int, float]:
        """Current estimate for every observed worker."""
        return {worker_id: self.accuracy(worker_id) for worker_id in self._observed}

    def n_workers(self) -> int:
        return len(self._observed)


def filter_pool(
    pool: WorkerPool,
    accuracies: Dict[int, float],
    minimum_accuracy: float,
    rng: Optional[np.random.Generator] = None,
) -> WorkerPool:
    """Recruit only workers whose estimated accuracy clears the bar.

    Falls back to the single best worker when nobody qualifies (a pool
    must never be empty).
    """
    kept: List[float] = [
        worker.accuracy
        for worker in pool.workers
        if accuracies.get(worker.worker_id, 0.0) >= minimum_accuracy
    ]
    if not kept:
        best = max(pool.workers, key=lambda w: accuracies.get(w.worker_id, 0.0))
        kept = [best.accuracy]
    return WorkerPool(kept, rng=rng or np.random.default_rng(0))
