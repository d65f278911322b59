"""The BayesCrowd framework (Algorithm 1 + Algorithm 4).

Orchestrates the full pipeline:

1. *Preprocessing* -- train a Bayesian network on the dataset's complete
   rows and derive per-variable posterior distributions (Section 3).
2. *Modeling phase* -- build the c-table with Get-CTable (Section 4).
3. *Crowdsourcing phase* -- iterative batched task selection under budget
   ``B`` and latency ``L`` (Section 6): rank undecided objects by entropy,
   pick one conflict-free expression per chosen object with the configured
   strategy (FBS / UBS / HHS), post the batch, fold answers back into the
   c-table, repeat until the budget is spent or no expression remains.
4. Answer inference: objects with ``phi = true`` or ``Pr(phi)`` above the
   answer threshold.

The crowdsourcing loop is fault tolerant: the platform may answer only a
subset of a batch (unanswered tasks are requeued or refunded -- budget is
only ever charged for *answered* tasks, matching the paper's cost model),
transient platform errors are retried with bounded exponential backoff,
expired tasks are refunded and abandoned, and fatal errors end the run
gracefully with ``QueryResult.degraded`` set instead of crashing.  With a
``checkpoint_path`` the run snapshots its answer state after every round
and can resume (``resume=True``) without re-spending crowd budget.

Every run is observable, and its span tree is its only clock: the layer
spans of :data:`repro.obs.PIPELINE_PHASES` feed wall-time histograms in a
:class:`repro.obs.MetricsRegistry` that also unifies the perf counters of
the probability engine, the incremental ranker, c-table construction and
the crowd fault accounting; per-round decisions (tasks issued, answers
applied, objects decided) land in a JSONL event log.  The registry
snapshot rides on :attr:`QueryResult.metrics` and can be exported as JSON
or Prometheus text via ``BayesCrowdConfig.metrics_path`` /
``trace_path`` (CLI ``--metrics-out`` / ``--trace-out``).

Reported execution time excludes the (simulated) workers' answering time,
matching the paper's measurement ("execution time of algorithms, which
excludes the time of workers answering tasks").
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..bayesnet.network import BayesianNetwork
from ..bayesnet.posteriors import (
    MissingValuePosteriors,
    empirical_distributions,
    uniform_distributions,
)
from ..crowd.integrity import AnswerLedger
from ..crowd.platform import SimulatedCrowdPlatform
from ..crowd.quality import WorkerReliability, weighted_vote
from ..crowd.task import ComparisonTask
from ..crowd.unreliable import UnreliableCrowdPlatform
from ..ctable.construction import build_ctable
from ..ctable.ctable import CTable
from ..datasets.dataset import IncompleteDataset, Variable
from ..errors import (
    PlatformFatalError,
    PlatformTransientError,
    TaskExpiredError,
)
from ..ctable.expression import Expression, Relation
from ..obs import PIPELINE_PHASES, EventLog, MetricsRegistry, Span, Tracer
from ..probability.distributions import DistributionStore
from ..probability.engine import ProbabilityEngine
from ..session.context import SessionContext
from ..session.journal import JOURNAL_VERSION, AnswerJournal, read_journal
from ..session.recovery import (
    InterruptedRound,
    recover_run_state,
    task_to_payload,
)
from .config import BayesCrowdConfig
from .result import QueryResult, RoundRecord
from .selection import IncrementalRanker, bounded_result_set
from .strategies import SelectionContext, expression_frequencies, make_strategy
from .utility_engine import UtilityEngine

#: Objects beyond this are subsampled for structure learning only
#: (parameters still use every object's available cells).
_STRUCTURE_SAMPLE_CAP = 4000

#: A quarantined expression is re-asked at most this many times; past
#: that the crowd has twice failed to produce a consistent answer and the
#: expression is left to probabilistic inference.
_MAX_REASK_ATTEMPTS = 2

logger = logging.getLogger("repro.bayescrowd")


@dataclass
class _RoundPlan:
    """One crowdsourcing round, planned but not yet executed.

    Fresh rounds come out of :meth:`BayesCrowd._plan_round`; recovered
    rounds are rebuilt from the journal's ``round_begin`` record, carry
    the answers/re-asks that were already journaled before the crash
    (``journaled``/``reasks``) and skip re-journaling ``round_begin``.
    """

    round_index: int
    tasks: List[ComparisonTask]
    leftover_pending: List[ComparisonTask]
    objects: List[Optional[int]]
    #: open conditions before the round's answers; None = compute live
    #: (recovered rounds must use the journaled value, because replay has
    #: already folded some of the round's answers into the c-table)
    open_before: Optional[int] = None
    #: task id -> journaled ``answer`` payload (replayed, idempotent)
    journaled: Dict[int, dict] = field(default_factory=dict)
    #: quarantined task id -> journaled ``reask`` payload
    reasks: Dict[int, dict] = field(default_factory=dict)
    recovered: bool = False
    #: the round's ``round[i]`` span, opened before planning
    span: Optional[Span] = None


@dataclass
class _CrowdRunState:
    """Mutable state of the crowdsourcing loop, explicit and passable.

    Everything the old monolithic loop kept in local variables; making
    it a value lets the round planner/executor be separate re-entrant
    methods and lets crash recovery seed the loop mid-flight.
    """

    budget: int
    reask_budget_total: int
    history: List[RoundRecord] = field(default_factory=list)
    answer_log: List[Tuple[Expression, Relation]] = field(default_factory=list)
    pending: List[ComparisonTask] = field(default_factory=list)
    fault_totals: Dict[str, int] = field(default_factory=dict)
    degraded: bool = False
    resumed: bool = False
    fatal: bool = False
    reasks_issued: int = 0
    issued_this_run: int = 0
    answered_this_run: int = 0
    #: objects the initial and final passes decided from their brackets
    objects_bounded: int = 0
    utility_evaluations: int = 0
    utility_skipped: int = 0
    probability_requests: int = 0
    probability_computed: int = 0


def learn_distributions(
    dataset: IncompleteDataset,
    config: BayesCrowdConfig,
    network: Optional[BayesianNetwork] = None,
    stats: Optional[Dict[str, int]] = None,
) -> Dict[Variable, np.ndarray]:
    """Preprocessing: one pmf per missing cell.

    With ``distribution_source="bayesnet"`` a network is trained on the
    dataset by available-case analysis (hill climbing + BIC, then smoothed
    MLE CPTs; each family uses the rows observed in its columns) unless
    one is supplied, and each variable gets the posterior of its
    attribute given its object's observed attributes.  Datasets with
    fewer than 10 objects use the empirical column marginals instead.

    Posteriors are precomputed in bulk by
    :meth:`MissingValuePosteriors.precompute_all`; pass a ``stats`` dict
    to receive its counters: ``signature_groups`` (unique observed-row
    signatures), ``cells`` (missing cells) and ``inference_calls``
    (contractions run, one per missing pattern and target attribute).
    """
    source = config.distribution_source
    if source == "uniform":
        return uniform_distributions(dataset)
    if source == "empirical":
        return empirical_distributions(dataset, smoothing=config.bn_smoothing)

    if network is None:
        if dataset.n_objects < 10:
            return empirical_distributions(dataset, smoothing=config.bn_smoothing)
        rng = np.random.default_rng(config.seed)
        data = dataset.values
        mask = dataset.mask
        if dataset.n_objects > _STRUCTURE_SAMPLE_CAP:
            pick = rng.choice(
                dataset.n_objects, size=_STRUCTURE_SAMPLE_CAP, replace=False
            )
            structure_data, structure_mask = data[pick], mask[pick]
        else:
            structure_data, structure_mask = data, mask
        from ..bayesnet.structure import hill_climb

        # Available-case analysis: both steps skip rows missing in the
        # columns of the family under consideration, so no imputation and
        # no fully-complete rows are required.
        neutral = structure_data.copy()
        neutral[structure_mask] = 0
        dag = hill_climb(
            neutral,
            dataset.domain_sizes,
            max_parents=config.bn_max_parents,
            rng=rng,
            mask=structure_mask,
        ).dag
        network = BayesianNetwork.fit(
            data,
            dataset.domain_sizes,
            smoothing=config.bn_smoothing,
            node_names=list(dataset.attribute_names),
            dag=dag,
            mask=mask,
        )
    service = MissingValuePosteriors(network, dataset)
    distributions = service.all_distributions()
    if stats is not None:
        stats.update(service.stats)
    return distributions


def build_default_platform(
    dataset: IncompleteDataset, config: BayesCrowdConfig
) -> Optional[SimulatedCrowdPlatform]:
    """The platform :class:`BayesCrowd` builds when none is supplied.

    A deterministic simulated crowd over the dataset's hidden ground
    truth (majority or calibrated-weighted aggregation per the config),
    wrapped in the configured fault injector when one is set.  Extracted
    so session hosts (the HTTP service) can construct the *same*
    platform and layer a
    :class:`~repro.session.QueuedAnswerPlatform` in front of it without
    duplicating the seeding rules -- the seeds here are part of the
    bit-identical-recovery contract.  Returns ``None`` when the dataset
    has no ground truth to simulate against.
    """
    if not dataset.has_ground_truth():
        return None
    platform_rng = np.random.default_rng(config.seed + 1)
    aggregator = None
    pool = None
    if config.aggregation == "weighted":
        from ..crowd.quality import (
            estimate_worker_accuracies,
            make_weighted_aggregator,
        )
        from ..crowd.worker import WorkerPool

        pool = WorkerPool(config.worker_accuracy, rng=platform_rng)
        estimates = estimate_worker_accuracies(
            pool,
            n_gold_questions=config.calibration_questions,
            rng=platform_rng,
        )
        aggregator = make_weighted_aggregator(estimates, rng=platform_rng)
    platform = SimulatedCrowdPlatform(
        dataset,
        worker_pool=pool,
        worker_accuracy=config.worker_accuracy,
        assignments_per_task=config.assignments_per_task,
        rng=platform_rng,
        aggregator=aggregator,
    )
    if config.faults is not None and config.faults.any_faults():
        platform = UnreliableCrowdPlatform(
            platform,
            config.faults,
            rng=np.random.default_rng(config.seed + 2),
        )
    return platform


class BayesCrowd:
    """One configured BayesCrowd query over one incomplete dataset."""

    def __init__(
        self,
        dataset: IncompleteDataset,
        config: Optional[BayesCrowdConfig] = None,
        platform: Optional[SimulatedCrowdPlatform] = None,
        distributions: Optional[Dict[Variable, np.ndarray]] = None,
        network: Optional[BayesianNetwork] = None,
        session: Optional[SessionContext] = None,
    ) -> None:
        self.dataset = dataset
        self.config = config or BayesCrowdConfig()
        #: per-session execution context (RNG streams, task ids, cancel
        #: token); every run executes inside ``session.activate()`` so
        #: ambient library fallbacks are session-isolated and N engines
        #: can run concurrently in one process without shared state
        self.session = session or SessionContext(seed=self.config.seed)
        self._rng = np.random.default_rng(self.config.seed)
        if platform is None:
            platform = build_default_platform(dataset, self.config)
        self.platform = platform
        #: posterior-precompute grouping counters (empty unless the BN
        #: posterior path ran); absorbed into the run metrics
        self.preprocess_stats: Dict[str, int] = {}
        #: learning happens here, before any run; every run's tracer
        #: continues this clock, so its trace opens with ``bayesnet.learn``
        self._clock = Tracer()
        with self._clock.span("bayesnet.learn"):
            if distributions is None:
                distributions = learn_distributions(
                    dataset, self.config, network=network, stats=self.preprocess_stats
                )
        self.distributions = distributions
        self._strategy = make_strategy(self.config.strategy, m=self.config.m)
        #: populated by :meth:`run`
        self.ctable: Optional[CTable] = None
        self.engine: Optional[ProbabilityEngine] = None
        self.utility_engine: Optional[UtilityEngine] = None
        self.metrics: Optional[MetricsRegistry] = None
        self.tracer: Optional[Tracer] = None
        self.events: Optional[EventLog] = None
        self.ledger: Optional[AnswerLedger] = None
        self.reliability: Optional[WorkerReliability] = None
        #: run-scoped collaborators of the round planner/executor
        self._journal: Optional[AnswerJournal] = None
        self._ranker: Optional[IncrementalRanker] = None
        self._checkpoint_path: Optional[Path] = None

    # ------------------------------------------------------------------
    def run(
        self,
        checkpoint_path: Optional[Union[str, Path]] = None,
        resume: bool = False,
        journal_path: Optional[Union[str, Path]] = None,
        journal_crash_after: Optional[int] = None,
    ) -> QueryResult:
        """Execute the query and return the answer set with run statistics.

        With ``checkpoint_path`` the answer state, remaining budget and
        round history are snapshotted after every crowdsourcing round;
        ``resume=True`` continues from such a snapshot (if the file
        exists) instead of re-spending crowd budget.

        With ``journal_path`` (or ``config.journal_path``) every accepted
        answer, quarantine verdict and budget charge is durably appended
        to a write-ahead journal *before* engine state mutates, so a run
        killed at any instant resumes bit-identically: recovery folds the
        last checkpoint (if any) plus the journal suffix back into a
        fresh c-table and finishes the interrupted round deterministically.
        ``journal_crash_after`` is the crash-injection test hook (SIGKILL
        after the N-th journal append); production code never sets it.

        The whole run executes inside the engine's
        :class:`~repro.session.SessionContext`: ambient RNG fallbacks and
        task-id allocation are session-local, and the session's
        cancellation token (plus ``config.session_deadline_s``) is
        honoured at phase boundaries with a typed
        ``SessionCancelledError`` -- journaled state survives for resume.

        Every run is traced, and its spans are its only clock (see
        :meth:`_report`): they land in ``phase_seconds_*`` histograms,
        per-round decisions in the event
        log (written to ``config.trace_path`` as JSONL when set), and the
        unified perf counters in a :class:`repro.obs.MetricsRegistry`
        whose snapshot is returned on :attr:`QueryResult.metrics` (and
        exported to ``config.metrics_path`` when set).
        """
        config = self.config
        registry = MetricsRegistry()
        # Pre-registering the layer histograms keeps the exported schema
        # complete even for runs that never reach the crowdsourcing loop
        # (e.g. budget 0).
        for phase in PIPELINE_PHASES:
            registry.histogram("phase_seconds_%s" % phase)
        events = EventLog(path=config.trace_path)
        events.emit(
            "run_start",
            dataset=self.dataset.name,
            n_objects=self.dataset.n_objects,
            budget=config.budget,
            latency=config.latency,
            strategy=config.strategy,
            seed=config.seed,
            resume=bool(resume),
            session=self.session.session_id,
        )
        tracer = self._clock.fork(registry=registry, event_log=events)
        # Exposed for live inspection.
        self.metrics = registry
        self.tracer = tracer
        self.events = events
        if config.session_deadline_s:
            self.session.cancellation.set_deadline(config.session_deadline_s)
        try:
            with self.session.activate():
                with tracer.span("run") as run_span:
                    result, run = self._run_phases(
                        config,
                        registry,
                        events,
                        tracer,
                        checkpoint_path,
                        resume,
                        journal_path,
                        journal_crash_after,
                    )
                self._report(result, run, run_span)
            result.metrics = registry.snapshot()
            result.trace = tracer.to_dicts()
            if config.metrics_path is not None:
                self._write_metrics(config.metrics_path, registry)
            return result
        finally:
            if self._journal is not None:
                self._journal.close()
                self._journal = None
            events.close()

    def _report(self, result: QueryResult, run: _CrowdRunState, run_span: Span) -> None:
        """Fill the result's stats and timings once ``run`` has closed.

        ``seconds`` excludes the ``crowd.ask`` spans, as the paper
        excludes the workers' answering time."""
        registry = self.metrics
        tracer = self.tracer
        ctable = self.ctable
        ranker = self._ranker
        engine_stats = self.engine.stats()
        objects_bounded = run.objects_bounded + ranker.n_bounded
        engine_stats["objects_rescored"] = ranker.n_rescored
        engine_stats["objects_bounded"] = objects_bounded
        engine_stats["rankings"] = ranker.n_rankings
        for key, value in ctable.build_stats.items():
            engine_stats["ctable_%s" % key] = value
        # Selection-phase counters: the batched scorer's own, or the
        # context-accumulated equivalents for the scalar/FBS paths -- same
        # schema either way, so the obs verifier's invariant
        # (evals == candidates - cache hits - skipped) always checks out.
        if self.utility_engine is not None:
            selection_stats = self.utility_engine.stats()
        else:
            selection_stats = {
                "utility_candidates_total": (
                    run.utility_evaluations + run.utility_skipped
                ),
                "utility_evals_total": run.utility_evaluations,
                "residual_cache_hits": 0,
                "utility_skipped_total": run.utility_skipped,
                "utility_batches": 0,
                "utility_probability_requests": run.probability_requests,
                "utility_probability_submitted": run.probability_requests,
                "utility_probability_computed": run.probability_computed,
                "utility_batch_dedup_ratio": 0.0,
                "utility_gain_cache_size": 0,
                "utility_residual_cache_size": 0,
                "utility_batch_seconds": 0.0,
            }
        selection_stats["selection_seconds"] = tracer.total("core.select")
        engine_stats.update(selection_stats)
        for key, value in self.preprocess_stats.items():
            engine_stats["posterior_%s" % key] = value

        # --- unified metrics ------------------------------------------
        # The scattered PR-2 perf counters, readable from one registry.
        registry.absorb(self.engine.stats(), prefix="engine_")
        registry.absorb(ctable.build_stats, prefix="ctable_")
        registry.absorb(selection_stats)
        registry.counter("posterior_signature_groups")
        registry.counter("posterior_cells")
        registry.counter("posterior_inference_calls")
        registry.absorb(self.preprocess_stats, prefix="posterior_")
        registry.counter("ranker_objects_rescored").inc(ranker.n_rescored)
        registry.counter("ranker_objects_bounded").inc(objects_bounded)
        registry.counter("ranker_rankings").inc(ranker.n_rankings)
        registry.counter("crowd_rounds").inc(len(run.history))
        registry.counter("crowd_tasks_posted").inc(result.tasks_posted)
        registry.counter("crowd_tasks_answered").inc(result.tasks_answered)
        registry.counter("crowd_retries").inc(sum(r.retries for r in run.history))
        for key, value in run.fault_totals.items():
            registry.counter("crowd_fault_%s" % key).inc(value)
        # Integrity accounting: always exported (strict or not), so the
        # obs verifier's invariant answers_quarantined + answers_applied
        # == answers_aggregated is checkable on every run.
        registry.absorb(self.ledger.summary())
        if self._journal is not None:
            registry.absorb(self._journal.stats())
        registry.gauge("reliability_workers_tracked").set(self.reliability.n_workers())
        registry.counter("reasks_issued").inc(run.reasks_issued)
        registry.gauge("probability_approx_objects").set(
            sum(1 for exact in result.probability_exact.values() if not exact)
        )
        registry.gauge("crowd_budget_left").set(run.budget)
        registry.gauge("run_degraded").set(1.0 if run.degraded else 0.0)
        registry.gauge("run_resumed").set(1.0 if run.resumed else 0.0)
        registry.gauge("answers_total").set(len(result.answers))
        registry.gauge("answers_certain").set(len(result.certain_answers))
        result.engine_stats = engine_stats

        result.seconds = run_span.seconds - tracer.total("crowd.ask")
        result.modeling_seconds = tracer.total("ctable.build")
        registry.gauge("modeling_seconds").set(result.modeling_seconds)
        registry.gauge("preprocess_seconds").set(tracer.total("bayesnet.learn"))
        registry.gauge("total_seconds").set(result.seconds)
        self.events.emit(
            "run_end",
            rounds=result.rounds,
            # trace-scoped totals: a resumed run's replayed rounds are in
            # the history counts but never in this trace's tasks_issued
            tasks_posted=run.issued_this_run,
            tasks_answered=run.answered_this_run,
            answers=len(result.answers),
            degraded=result.degraded,
            seconds=result.seconds,
        )

    @staticmethod
    def _write_metrics(path, registry: MetricsRegistry) -> None:
        """Export the metrics snapshot (Prometheus text for .prom/.txt)."""
        from ..persistence import atomic_write

        path = Path(path)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        if path.suffix in (".prom", ".txt"):
            text = registry.to_prometheus()
        else:
            text = registry.to_json()
        atomic_write(path, lambda handle: handle.write(text))

    def _run_phases(
        self,
        config: BayesCrowdConfig,
        registry: MetricsRegistry,
        events: EventLog,
        tracer: Tracer,
        checkpoint_path: Optional[Union[str, Path]],
        resume: bool,
        journal_path: Optional[Union[str, Path]] = None,
        journal_crash_after: Optional[int] = None,
    ) -> Tuple[QueryResult, _CrowdRunState]:
        """The pipeline, one layer span per phase; :meth:`_report` adds stats."""
        cancel = self.session.cancellation
        cancel.check("preprocess")

        # --- modeling phase -------------------------------------------
        with tracer.span("ctable.build"):
            ctable = build_ctable(
                self.dataset,
                alpha=config.alpha,
                dominator_method=config.dominator_method,
                inference_mode=config.inference_mode,
                backend=config.backend,
                cancel_check=lambda: cancel.check("ctable"),
            )
        # The store build checks and normalises every posterior pmf; it and
        # the engine set-up below count as initial probability work.
        with tracer.span("probability.initial"):
            store = DistributionStore(self.distributions, ctable.constraints)
            engine = ProbabilityEngine(
                store,
                method=config.probability_method,
                rng=self._rng,
                cache_size=config.cache_size,
                node_budget=config.adpll_node_budget,
                deadline_s=config.adpll_deadline_s,
            )
            engine.attach_cancellation(cancel)
            self.ctable = ctable
            self.engine = engine
            # Answer integrity: the ledger shares the c-table's constraint
            # store, so its contradiction checks see exactly the accepted
            # answers (including everything a checkpoint replays below).
            ledger = AnswerLedger(constraints=ctable.constraints)
            reliability = WorkerReliability(prior=config.reliability_prior)
            self.ledger = ledger
            self.reliability = reliability
            # Batched utility scorer: one deduplicated probability batch per
            # round plus a cross-round gain cache, instead of per-candidate
            # serial ADPLL calls.  FBS never scores utilities, so it skips the
            # engine entirely; config.selection_batch=False keeps the scalar
            # path for ablation (both select identical expressions).
            utility_engine: Optional[UtilityEngine] = None
            if config.selection_batch and config.strategy.lower() != "fbs":
                utility_engine = UtilityEngine(
                    engine,
                    mode=config.utility_mode,
                    cache_size=config.utility_cache_size,
                )
            self.utility_engine = utility_engine
            # Each open object is decided from its bracket; only brackets
            # straddling the threshold are solved, in one batch.
            initial_answers, initial_bounded = bounded_result_set(
                ctable, engine, config.answer_threshold
            )

        # --- crowdsourcing phase --------------------------------------
        # Recovery replays a resumed run's journaled and checkpointed
        # answers into the c-table: answer-application time.
        with tracer.span("ctable.apply"):
            # Durable write-ahead journal: every accepted answer, quarantine
            # verdict and budget charge is appended (and fsync-ed) *before*
            # the corresponding engine state mutates, so a crash at any
            # instant loses nothing that was paid for.
            journal_records = None
            journal_target = (
                journal_path if journal_path is not None else config.journal_path
            )
            if journal_target is not None:
                journal_target = Path(journal_target)
                if journal_target.exists():
                    if resume:
                        journal_records = read_journal(journal_target)
                    else:
                        journal_target.unlink()
                self._journal = AnswerJournal(
                    journal_target,
                    fsync=config.journal_fsync,
                    crash_after=journal_crash_after,
                )
                if self._journal.last_seq == 0:
                    self._journal.append(
                        "open",
                        {
                            "version": JOURNAL_VERSION,
                            "fingerprint": self._fingerprint(),
                            "session": self.session.session_id,
                        },
                    )
            checkpoint = None
            if (
                resume
                and checkpoint_path is not None
                and Path(checkpoint_path).exists()
            ):
                from ..persistence import load_checkpoint

                checkpoint = load_checkpoint(checkpoint_path)
            recovered = recover_run_state(
                ctable,
                ledger,
                reliability,
                self._fingerprint(),
                config.budget,
                checkpoint=checkpoint,
                journal_records=journal_records,
            )
            self._restore_snapshots(recovered)
        run = _CrowdRunState(
            budget=recovered.budget_left,
            reask_budget_total=int(config.reask_budget_frac * config.budget),
            history=recovered.history,
            answer_log=recovered.answer_log,
            pending=recovered.pending,
            fault_totals=recovered.fault_totals,
            degraded=recovered.degraded,
            resumed=recovered.resumed,
            reasks_issued=ledger.answers_reasked,
            objects_bounded=initial_bounded,
        )
        registry.counter("journal_replayed_answers").inc(recovered.replayed_answers)
        registry.counter("journal_deduped_answers").inc(recovered.deduped_answers)
        registry.counter("recovered_rounds")
        if run.resumed:
            events.emit(
                "resumed",
                rounds_done=len(run.history),
                answers_replayed=len(run.answer_log),
                budget_left=run.budget,
            )
        if recovered.replayed_answers or recovered.deduped_answers:
            events.emit(
                "journal_replayed",
                replayed=recovered.replayed_answers,
                deduped=recovered.deduped_answers,
            )
        # Built after any checkpoint/journal replay: the ranker re-scores
        # only objects whose conditions a round's answers actually touched.
        ranker = IncrementalRanker(ctable, engine)
        self._ranker = ranker
        self._checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        with tracer.span("crowd"):
            if recovered.interrupted is not None:
                registry.counter("recovered_rounds").inc(1)
                events.emit(
                    "round_recovered",
                    round=recovered.interrupted.round_index,
                    journaled_answers=len(recovered.interrupted.journaled),
                    journaled_reasks=len(recovered.interrupted.reasks),
                )
                self._finish_interrupted_round(recovered.interrupted, run)
            while (
                run.budget > 0
                and len(run.history) < config.latency
                and not run.fatal
            ):
                cancel.check("selection")
                # Requeued tasks that other answers already decided are
                # moot: drop them instead of paying the crowd for known
                # relations.
                run.pending = [
                    t for t in run.pending if self._task_still_open(ctable, t)
                ]
                if not run.pending and not ctable.has_open_expressions():
                    break
                if not self._run_round(run):
                    break

        # One last bracket pass; the straddling objects and the answers are
        # solved in one batch, so the reported probabilities read from cache.
        with tracer.span("probability.final"):
            answers, final_bounded = bounded_result_set(
                ctable, engine, config.answer_threshold, solve_answers=True
            )
            probabilities: Dict[int, float] = {}
            probability_exact: Dict[int, bool] = {}
            probability_error_bounds: Dict[int, float] = {}
            for obj in answers:
                condition = ctable.condition(obj)
                if condition.is_true:
                    probabilities[obj] = 1.0
                    probability_exact[obj] = True
                    probability_error_bounds[obj] = 0.0
                else:
                    detail = engine.probability_detailed(condition)
                    probabilities[obj] = detail.value
                    probability_exact[obj] = detail.exact
                    probability_error_bounds[obj] = detail.error_bound
        run.objects_bounded += final_bounded
        result = QueryResult(
            answers=answers,
            certain_answers=ctable.certain_answers(),
            tasks_posted=sum(r.tasks_posted for r in run.history),
            rounds=len(run.history),
            seconds=0.0,
            tasks_answered=sum(r.tasks_answered for r in run.history),
            history=run.history,
            initial_answers=initial_answers,
            answer_probabilities=probabilities,
            degraded=run.degraded,
            fault_counts=run.fault_totals,
            resumed=run.resumed,
            integrity=ledger.summary(),
            worker_reliability=reliability.accuracies(),
            probability_exact=probability_exact,
            probability_error_bounds=probability_error_bounds,
        )
        return result, run

    # ------------------------------------------------------------------
    # fault handling
    # ------------------------------------------------------------------
    def _post_with_retries(self, tasks: List[ComparisonTask]):
        """Post a batch, absorbing the platform's typed failures.

        Returns ``(answers, faults, fatal, abandoned)``: the (possibly
        partial) answers, per-round fault counters, whether the platform
        failed fatally, and the ids of tasks abandoned as expired.
        """
        config = self.config
        faults: Dict[str, int] = {}
        abandoned: set = set()
        remaining = list(tasks)
        retries = 0
        while True:
            if not remaining:
                return {}, faults, False, abandoned
            try:
                return self.platform.post_batch(remaining), faults, False, abandoned
            except TaskExpiredError as err:
                expired_ids = {t.task_id for t in err.tasks}
                expired = [t for t in remaining if t.task_id in expired_ids]
                if not expired:
                    # A platform expiring tasks we did not post cannot make
                    # progress; give the round up instead of looping.
                    faults["failed_round"] = 1
                    return {}, faults, False, abandoned
                faults["expired"] = faults.get("expired", 0) + len(expired)
                abandoned.update(t.task_id for t in expired)
                remaining = [t for t in remaining if t.task_id not in expired_ids]
                logger.warning(
                    "%d task(s) expired and were refunded; reposting %d",
                    len(expired),
                    len(remaining),
                )
            except PlatformTransientError as err:
                if retries >= config.max_retries:
                    logger.warning(
                        "round abandoned after %d retries: %s", retries, err
                    )
                    faults["failed_round"] = 1
                    return {}, faults, False, abandoned
                retries += 1
                faults["transient_retries"] = retries
                delay = min(
                    config.backoff_cap, config.backoff_base * (2 ** (retries - 1))
                )
                delay *= 0.5 + self._rng.random()  # jitter in [0.5x, 1.5x)
                logger.debug(
                    "transient platform error (%s); retry %d/%d in %.2fs",
                    err,
                    retries,
                    config.max_retries,
                    delay,
                )
                if delay > 0:
                    time.sleep(delay)
            except PlatformFatalError as err:
                logger.error("fatal platform error, degrading: %s", err)
                faults["fatal"] = 1
                return {}, faults, True, abandoned

    @staticmethod
    def _task_still_open(ctable: CTable, task: ComparisonTask) -> bool:
        """Is answering this (requeued) task still worth crowd money?"""
        if ctable.constraints.resolve(task.expression) is not None:
            return False
        # The incrementally maintained frequency index answers "does any
        # condition still mention this expression" in O(1), replacing the
        # historical scan over every object sharing a variable.
        return ctable.expression_frequency(task.expression) > 0

    # ------------------------------------------------------------------
    # round planning / execution
    # ------------------------------------------------------------------
    def _run_round(
        self, run: _CrowdRunState, plan: Optional[_RoundPlan] = None
    ) -> bool:
        """Plan (unless recovered) and execute one round under ``round[i]``.

        Execution's time outside ``crowd.ask`` and ``ctable.apply`` is
        ``crowd.integrity``; both sums are recorded once per round.
        Returns False, leaving a span but no record, if nothing was asked.
        """
        tracer = self.tracer
        index = plan.round_index if plan is not None else len(run.history) + 1
        with tracer.span("round[%d]" % index, phase="round") as span:
            plan = plan or self._plan_round(run)
            if plan is not None:
                plan.span = span
                with tracer.summing("crowd.integrity"):
                    self._execute_round(plan, run)
                tracer.record_sums("crowd.integrity", "ctable.apply")
        if plan is None:
            return False
        # journaled before the span closed; the record keeps its full length
        run.history[-1].seconds = span.seconds
        return True

    def _plan_round(self, run: _CrowdRunState) -> Optional[_RoundPlan]:
        """Select the next round's conflict-free batch (Section 6).

        Returns ``None`` when the loop should stop: the entropy
        early-stop fired, or selection found no postable task.
        """
        config = self.config
        ctable = self.ctable
        events = self.events
        tracer = self.tracer
        round_index = len(run.history) + 1
        k = min(run.budget, config.tasks_per_round())
        tasks: List[ComparisonTask] = list(run.pending[:k])
        leftover_pending = run.pending[k:]
        banned = set()
        objects: List[Optional[int]] = []
        for task in tasks:
            banned.update(task.variables())
            objects.append(task.for_object)
        with tracer.span("core.rank"):
            ranked = self._ranker.rank()
        with tracer.span("core.select"):
            if (
                not tasks
                and ranked
                and config.entropy_epsilon > 0.0
                and ranked[0].entropy < config.entropy_epsilon
            ):
                # Every undecided object is already near-certain; further
                # tasks would buy negligible information.
                logger.debug(
                    "early stop: max entropy %.4f below epsilon %.4f",
                    ranked[0].entropy,
                    config.entropy_epsilon,
                )
                events.emit(
                    "early_stop",
                    round=round_index,
                    max_entropy=ranked[0].entropy,
                    epsilon=config.entropy_epsilon,
                )
                return None
            if ranked and len(tasks) < k:
                # Expression frequencies are counted over the chosen top-k
                # objects' conditions (Section 6.2, step two).
                chosen = [ctable.condition(r.obj) for r in ranked[:k]]
                context = SelectionContext(
                    engine=self.engine,
                    frequencies=expression_frequencies(chosen),
                    utility_mode=config.utility_mode,
                    utility_engine=self.utility_engine,
                )
                # One deduplicated gain batch for the whole round; the
                # per-object walk below is then served from its cache.
                self._strategy.prefetch_round(chosen, context, banned)
                # Walk the full ranking so a conflict-skipped slot is
                # refilled by the next most uncertain object, keeping
                # rounds at size k.
                for r in ranked:
                    if len(tasks) >= k:
                        break
                    expression = self._strategy.select_expression(
                        ctable.condition(r.obj), context, banned
                    )
                    if expression is None:
                        continue
                    banned.update(expression.variables())
                    tasks.append(ComparisonTask(expression, for_object=r.obj))
                    objects.append(r.obj)
                run.utility_evaluations += context.utility_evaluations
                run.utility_skipped += context.utility_skipped
                run.probability_requests += context.probability_requests
                run.probability_computed += context.probability_computed
        if not tasks:
            return None
        if self.platform is None:
            raise RuntimeError(
                "crowdsourcing needs a platform; supply one or use a "
                "dataset with ground truth for the simulated crowd"
            )
        return _RoundPlan(
            round_index=round_index,
            tasks=tasks,
            leftover_pending=leftover_pending,
            objects=objects,
        )

    def _finish_interrupted_round(
        self, interrupted: InterruptedRound, run: _CrowdRunState
    ) -> None:
        """Deterministically finish the round a crash cut short.

        Restores the ``round_begin`` snapshots (framework RNG, platform
        state, task-id allocator) and re-posts the *same* task batch the
        crashed process posted: the platform reproduces the same
        answers, the ones already journaled are recognised by task id
        and skipped, and the fresh tail continues exactly where the
        crash interrupted.  Journaled re-ask ids are reserved first so
        fresh allocations never collide with them.
        """
        self._restore_snapshots(interrupted)
        for payload in interrupted.reasks.values():
            self.session.task_ids.reserve(int(payload["task_id"]))
        plan = _RoundPlan(
            round_index=interrupted.round_index,
            tasks=interrupted.tasks,
            leftover_pending=interrupted.leftover_pending,
            objects=[task.for_object for task in interrupted.tasks],
            open_before=interrupted.open_before,
            journaled=interrupted.journaled,
            reasks=interrupted.reasks,
            recovered=True,
        )
        self._run_round(run, plan)

    def _execute_round(self, plan: _RoundPlan, run: _CrowdRunState) -> None:
        """Post one planned batch and durably fold its answers back.

        Write-ahead ordering: ``round_begin`` (tasks + pre-post RNG /
        platform / allocator snapshots) is journaled before posting,
        every answer before the ledger and c-table mutate, and
        ``round_commit`` before the round checkpoint.  For a recovered
        plan the ``round_begin`` is already durable, and answers the
        crashed process journaled are recognised by task id: their
        verdict, budget charge and post-arbitration RNG snapshot come
        from the journal instead of being recomputed.
        """
        from ..persistence import _round_to_dict, expression_to_json

        config = self.config
        ctable = self.ctable
        ledger = self.ledger
        reliability = self.reliability
        events = self.events
        journal = self._journal
        round_index = plan.round_index
        tasks = plan.tasks
        events.emit(
            "tasks_issued",
            round=round_index,
            count=len(tasks),
            objects=list(plan.objects),
            tasks=[
                {
                    "task_id": task.task_id,
                    "object": task.for_object,
                    "expression": str(task.expression),
                }
                for task in tasks
            ],
        )
        run.issued_this_run += len(tasks)
        open_before = (
            plan.open_before
            if plan.open_before is not None
            else len(ctable.undecided())
        )
        if journal is not None and not plan.recovered:
            journal.append(
                "round_begin",
                {
                    "round": round_index,
                    "open_before": open_before,
                    "tasks": [task_to_payload(t) for t in tasks],
                    "leftover_pending": [
                        task_to_payload(t) for t in plan.leftover_pending
                    ],
                    "rng_state": self._rng.bit_generator.state,
                    "platform_state": self._platform_state(),
                    "task_ids": self.session.task_ids.state_dict(),
                },
            )
        with self.tracer.span("crowd.ask"):
            answers, round_faults, fatal, abandoned = self._post_with_retries(
                tasks
            )
        run.fatal = fatal

        platform_votes = dict(getattr(self.platform, "last_votes", None) or {})
        pending_reasks: List[ComparisonTask] = []
        applied_count = 0
        for task, relation in answers.items():
            journaled = plan.journaled.get(task.task_id)
            if journaled is not None:
                # Idempotent re-application: this answer survived the
                # crash in the journal and recovery already charged and
                # folded it.  Restore its post-arbitration RNG snapshot
                # so every *fresh* answer after it draws exactly what
                # the crashed process would have drawn.
                if journaled.get("rng_state") is not None:
                    self._rng.bit_generator.state = journaled["rng_state"]
                if journaled["status"] == "applied":
                    applied_count += 1
                    continue
                events.emit(
                    "answer_quarantined",
                    round=round_index,
                    task_id=task.task_id,
                    expression=str(task.expression),
                    relation=journaled.get("relation", relation.value),
                    reason=journaled.get("reason"),
                    replayed=True,
                )
                self._maybe_reask(task, plan, run, pending_reasks)
                continue
            votes = tuple(platform_votes.get(task.task_id, ()))
            if task.is_reask() and votes and reliability.n_workers() > 0:
                # Re-ask arbitration: replace the platform's aggregate
                # with a vote weighted by the online reliability
                # posteriors, so workers who have disagreed with
                # accepted majorities count less.
                relation = weighted_vote(
                    list(votes),
                    reliability.accuracies(),
                    rng=self._rng,
                    default_accuracy=reliability.prior_mean,
                )
            reason = ledger.check(task.expression, relation)
            status = (
                "quarantined"
                if (reason is not None and config.strict_integrity)
                else "applied"
            )
            if journal is not None:
                journal.append(
                    "answer",
                    {
                        "round": round_index,
                        "task_id": task.task_id,
                        "expression": expression_to_json(task.expression),
                        "relation": relation.value,
                        "votes": [[wid, rel.value] for wid, rel in votes],
                        "status": status,
                        "reason": reason,
                        "charge": 1,
                        "reask_of": task.reask_of,
                        "rng_state": self._rng.bit_generator.state,
                    },
                )
            ledger.record(
                task.expression,
                relation,
                status=status,
                reason=reason,
                round_index=round_index,
                task_id=task.task_id,
                votes=votes,
                reask_of=task.reask_of,
            )
            # The paper's cost model charges per answered task; the
            # charge is durable (journaled) before any state mutates.
            run.budget -= 1
            if status == "applied":
                with self.tracer.summing("ctable.apply"):
                    self._ranker.mark_dirty(
                        ctable.apply_answer(task.expression, relation)
                    )
                run.answer_log.append((task.expression, relation))
                reliability.observe_votes(votes, relation)
                applied_count += 1
                continue
            # Quarantined: charged-but-flagged, never applied.
            events.emit(
                "answer_quarantined",
                round=round_index,
                task_id=task.task_id,
                expression=str(task.expression),
                relation=relation.value,
                reason=reason,
            )
            self._maybe_reask(task, plan, run, pending_reasks)
        open_after = len(ctable.undecided())
        events.emit(
            "answers_applied",
            round=round_index,
            count=applied_count,
            quarantined=len(answers) - applied_count,
            task_ids=sorted(task.task_id for task in answers),
        )
        events.emit(
            "objects_decided",
            round=round_index,
            newly_decided=open_before - open_after,
            open_conditions=open_after,
        )
        run.answered_this_run += len(answers)
        unanswered = [
            t for t in tasks if t not in answers and t.task_id not in abandoned
        ]
        if unanswered:
            round_faults["unanswered"] = len(unanswered)
        quarantined_count = len(answers) - applied_count
        if quarantined_count:
            round_faults["quarantined"] = quarantined_count
        # Re-asks go to the head of the queue: the next round's batch
        # consumes pending tasks before the entropy ranking runs, so a
        # quarantined variable is re-verified before ranking ever sees
        # a (potentially poisoned) answer.
        if config.requeue_policy == "requeue":
            run.pending = pending_reasks + plan.leftover_pending + unanswered
        else:
            run.pending = pending_reasks + plan.leftover_pending
        for key, value in round_faults.items():
            run.fault_totals[key] = run.fault_totals.get(key, 0) + value
        if unanswered or abandoned or round_faults.get("failed_round") or fatal:
            run.degraded = True
        logger.debug(
            "round %d: %d tasks posted, %d answered, %d conditions still "
            "open, budget %d left",
            round_index,
            len(tasks),
            len(answers),
            open_after,
            run.budget,
        )
        round_seconds = self.tracer.elapsed(plan.span)
        record = RoundRecord(
            round_index=round_index,
            tasks_posted=len(tasks),
            objects=list(plan.objects),
            newly_decided=open_before - open_after,
            open_conditions=open_after,
            seconds=round_seconds,
            tasks_answered=len(answers),
            retries=round_faults.get("transient_retries", 0),
            faults=dict(round_faults),
        )
        run.history.append(record)
        plan.span.attrs.update(tasks_posted=len(tasks), tasks_answered=len(answers))
        events.emit(
            "round_end",
            round=round_index,
            seconds=round_seconds,
            budget_left=run.budget,
            tasks_answered=len(answers),
            newly_decided=open_before - open_after,
            faults=dict(round_faults),
        )
        if journal is not None:
            # The commit is a mini-checkpoint: with it, a journal alone
            # (no checkpoint file) can recover the whole run.
            journal.append(
                "round_commit",
                {
                    "round": round_index,
                    "record": _round_to_dict(record),
                    "budget_left": run.budget,
                    "pending": [task_to_payload(t) for t in run.pending],
                    "fault_totals": dict(run.fault_totals),
                    "degraded": run.degraded,
                    "rng_state": self._rng.bit_generator.state,
                    "platform_state": self._platform_state(),
                    "task_ids": self.session.task_ids.state_dict(),
                },
            )
        if self._checkpoint_path is not None:
            self._write_checkpoint(self._checkpoint_path, run)

    def _maybe_reask(
        self,
        task: ComparisonTask,
        plan: _RoundPlan,
        run: _CrowdRunState,
        pending_reasks: List[ComparisonTask],
    ) -> None:
        """Issue (or re-create) the bounded re-ask for a quarantined task.

        A journaled re-ask is re-created under its original task id: the
        crashed process already decided and durably recorded it, and
        replay already counted it against the re-ask budget.  Otherwise
        the gate is evaluated live; for a replayed answer whose re-ask
        was *not* journaled that evaluation is exact, because the ledger
        attempts, issued counter and c-table openness at this point are
        precisely the crashed process's decision state.
        """
        events = self.events
        journaled = plan.reasks.get(task.task_id)
        if journaled is not None:
            reask = ComparisonTask(
                task.expression,
                for_object=task.for_object,
                task_id=int(journaled["task_id"]),
                reask_of=task.task_id,
            )
            pending_reasks.append(reask)
            events.emit(
                "reask_issued",
                round=plan.round_index,
                of_task=task.task_id,
                task_id=reask.task_id,
                expression=str(task.expression),
                replayed=True,
            )
            return
        # Re-ask only while the expression is still genuinely open: a
        # "direct" conflict means accepted answers already pin the
        # expression's truth, and the ledger is append-only -- no answer
        # can overturn them.
        if (
            run.reasks_issued < run.reask_budget_total
            and self.ledger.reask_attempts(task.expression) < _MAX_REASK_ATTEMPTS
            and self._task_still_open(self.ctable, task)
        ):
            reask = ComparisonTask(
                task.expression,
                for_object=task.for_object,
                reask_of=task.task_id,
            )
            if self._journal is not None:
                from ..persistence import expression_to_json

                self._journal.append(
                    "reask",
                    {
                        "round": plan.round_index,
                        "of_task": task.task_id,
                        "task_id": reask.task_id,
                        "expression": expression_to_json(task.expression),
                    },
                )
            self.ledger.note_reask(task.expression)
            run.reasks_issued += 1
            pending_reasks.append(reask)
            events.emit(
                "reask_issued",
                round=plan.round_index,
                of_task=task.task_id,
                task_id=reask.task_id,
                expression=str(task.expression),
            )

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    def _restore_snapshots(self, state) -> None:
        """Load the RNG, platform and task-id snapshots a recovery carries."""
        if state.rng_state is not None:
            self._rng.bit_generator.state = state.rng_state
        if state.platform_state is not None and hasattr(
            self.platform, "load_state_dict"
        ):
            self.platform.load_state_dict(state.platform_state)
        if state.task_ids_state is not None:
            self.session.task_ids.load_state_dict(state.task_ids_state)

    def _platform_state(self) -> Optional[dict]:
        """The platform's JSON snapshot, when it supports one."""
        state_fn = getattr(self.platform, "state_dict", None)
        return state_fn() if callable(state_fn) else None

    def _fingerprint(self) -> Dict[str, object]:
        """Identity of the query a checkpoint belongs to.

        Latency is deliberately excluded so an interrupted run may resume
        with a larger round allowance.
        """
        config = self.config
        return {
            "dataset": self.dataset.name,
            "n_objects": self.dataset.n_objects,
            "seed": config.seed,
            "budget": config.budget,
            "strategy": config.strategy,
            "alpha": config.alpha,
            "answer_threshold": config.answer_threshold,
        }

    def _write_checkpoint(self, path, run: _CrowdRunState) -> None:
        from ..persistence import QueryCheckpoint, save_checkpoint

        save_checkpoint(
            path,
            QueryCheckpoint(
                fingerprint=self._fingerprint(),
                budget_left=run.budget,
                answer_log=list(run.answer_log),
                pending=[
                    (t.expression, t.for_object, t.task_id, t.reask_of)
                    for t in run.pending
                ],
                history=list(run.history),
                fault_totals=dict(run.fault_totals),
                degraded=run.degraded,
                rng_state=self._rng.bit_generator.state,
                platform_state=self._platform_state(),
                ledger_state=(
                    self.ledger.state_dict() if self.ledger is not None else None
                ),
                reliability_state=(
                    self.reliability.state_dict()
                    if self.reliability is not None
                    else None
                ),
                # v3: the journal sequence this checkpoint covers -- only
                # records *after* it are replayed on resume -- and the
                # allocator snapshot so resumed tasks keep stable ids.
                journal_seq=(
                    self._journal.last_seq if self._journal is not None else None
                ),
                task_ids_state=self.session.task_ids.state_dict(),
            ),
        )


def run_bayescrowd(
    dataset: IncompleteDataset,
    config: Optional[BayesCrowdConfig] = None,
    **kwargs,
) -> QueryResult:
    """Convenience one-call API: configure, run, return the result."""
    return BayesCrowd(dataset, config=config, **kwargs).run()
