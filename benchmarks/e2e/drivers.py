"""Load drivers of the end-to-end benchmark.

Three ways to drive one workload's query shape, all through public API:

* :func:`engine_load` -- sequential library queries, ``BayesCrowd(dataset,
  config).run()``, one fresh dataset per query;
* :func:`service_load` -- a closed loop of HTTP clients against an
  in-process :class:`repro.service.QueryServer`;
* :func:`replay_query` -- one query replayed through the layers' public
  functions in ``BayesCrowd._run_phases`` order, with a
  :class:`repro.obs.Tracer` span around every call into a layer.  The
  benchmark checks that the replay reproduces ``BayesCrowd.run`` (answer
  set, round count, per-round objects), or its layer numbers would
  describe another program.

The two loads time :func:`host_ref_s` next to every operation, so times
can be reported in units of the host's current speed.  Nothing here
reads a clock the program under test reports, except
``session.engine_s`` (the engine's own ``preprocess_seconds`` +
``total_seconds`` gauges), which exists to split service overhead from
engine time.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import random
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro import (
    BayesCrowd,
    BayesCrowdConfig,
    Tracer,
    build_ctable,
    f1_score,
    generate_nba,
    generate_synthetic,
    skyline,
)
from repro.core.framework import build_default_platform, learn_distributions
from repro.core.selection import IncrementalRanker
from repro.core.strategies import (
    SelectionContext,
    expression_frequencies,
    make_strategy,
)
from repro.core.utility_engine import UtilityEngine
from repro.crowd.integrity import AnswerLedger
from repro.crowd.quality import WorkerReliability
from repro.crowd.task import ComparisonTask
from repro.probability import DistributionStore, ProbabilityEngine
from repro.service import QueryServer, ServiceSettings
from repro.session import SessionContext

#: layer spans of a replayed query, in ``_run_phases`` order
LAYER_SPANS = (
    "bayesnet.learn",
    "ctable.build",
    "probability.initial",
    "core.rank",
    "core.select",
    "crowd.ask",
    "crowd.integrity",
    "ctable.apply",
    "probability.final",
)

#: session states after which a client stops polling
_TERMINAL = ("DONE", "DEGRADED", "FAILED", "CANCELLED", "PAUSED")
_POLL_S = 0.02
_SESSION_TIMEOUT_S = 120.0
#: service load phase length; the host reference is timed between phases
PHASE_S = 5.0


@dataclass(frozen=True)
class Shape:
    """One query shape: dataset family and size plus the query config."""

    kind: str
    n: int
    alpha: float
    strategy: str
    budget: int = 50
    latency: int = 5
    m: int = 15
    missing_rate: float = 0.1

    def dataset(self, seed: int):
        generate = generate_nba if self.kind == "nba" else generate_synthetic
        return generate(n_objects=self.n, missing_rate=self.missing_rate, seed=seed)

    def config_fields(self, seed: int) -> dict:
        return {
            "alpha": self.alpha,
            "strategy": self.strategy,
            "budget": self.budget,
            "latency": self.latency,
            "m": self.m,
            "seed": seed,
        }

    def config(self, seed: int) -> BayesCrowdConfig:
        return BayesCrowdConfig(**self.config_fields(seed))


def host_ref_s() -> float:
    """Wall seconds of fixed pure-Python + numpy work: the host's speed now.

    A shared host's speed drifts by tens of percent over minutes as other
    tenants come and go.  Timing this work next to every measured
    operation lets the benchmark report operation times in units of it
    ("ref"), which cancels most of that drift.  Besides arithmetic it
    sorts, counts and indexes tuples, because the program's dict- and
    allocation-heavy code slows down more under contention than a tight
    arithmetic loop does.  It uses none of the program's code, so a
    slower program never slows the reference.  The garbage collector is
    off while it runs: its allocations would otherwise trigger full
    collections over the program's heap, and after a few queries these
    made single timings up to 1.6 times slower.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed_reference_work()
    finally:
        if enabled:
            gc.enable()


def _timed_reference_work() -> float:
    start = time.perf_counter()
    rng = random.Random(7)
    rows = [(rng.randrange(1000), rng.randrange(1000), i) for i in range(20_000)]
    rows.sort()
    counts = Counter(row[0] for row in rows)
    index: Dict[int, list] = {}
    for a, b, i in rows:
        index.setdefault(a, []).append((b, i))
    pairs = {frozenset((a, b)) for a, b, _ in rows[:10_000]}
    total = len(counts) + len(index) + len(pairs)
    for i in range(150_000):
        total += i * i % 7
    matrix = np.arange(90_000, dtype=np.float64).reshape(300, 300)
    for _ in range(8):
        matrix = matrix @ matrix.T
        matrix /= matrix.max()
    return time.perf_counter() - start


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def check_answers(shape: Shape, seed: int, answers, certain) -> Union[float, str]:
    """F1 of an answer set, or the reason it is wrong.

    Returns the F1 against the complete data's skyline as a float, or a
    string naming the violated invariant: with the default perfectly
    accurate crowd, every object whose condition became ``true`` must be
    a skyline member of the complete data.
    """
    dataset = shape.dataset(seed)
    truth = set(skyline(dataset.complete))
    wrong = set(certain) - truth
    if wrong:
        return "certain answers outside the true skyline: %s" % sorted(wrong)[:5]
    return f1_score(answers, truth)


# ----------------------------------------------------------------------
# library load
# ----------------------------------------------------------------------
@dataclass
class QueryRecord:
    seed: int
    seconds: float = 0.0
    #: mean of the host reference timings just before and after the query
    ref_s: float = 0.0
    f1: float = 0.0
    error: Optional[str] = None


def _stopped_early(result, config: BayesCrowdConfig) -> bool:
    """Did the crowd loop stop with budget, rounds and open conditions left?

    A perfectly accurate crowd answers every task, so while conditions
    stay open a healthy loop spends its whole budget or round allowance.
    """
    return (
        result.tasks_posted < config.budget
        and result.rounds < config.latency
        and bool(result.history)
        and result.history[-1].open_conditions > 0
    )


def engine_load(
    shape: Shape, seed: int, seconds: float, min_queries: int, max_queries: int = 0
) -> List[QueryRecord]:
    """Sequential library queries on datasets ``seed, seed + 1, ...``.

    A query starts only while the median query so far still fits before
    the deadline, so a run lasts about ``seconds`` whatever the query
    size.  Until ``min_queries`` have run, the deadline is half as far
    again, which bounds a run however slow the program or host.  A query
    fails when it raises, comes back degraded, stops early
    (:func:`_stopped_early`), or its answers break :func:`check_answers`.
    """
    records: List[QueryRecord] = []
    begin = time.perf_counter()
    deadline, late_deadline = begin + seconds, begin + 1.5 * seconds
    ref_before = host_ref_s()
    while True:
        record = QueryRecord(seed=seed + len(records))
        dataset = shape.dataset(record.seed)
        config = shape.config(record.seed)
        start = time.perf_counter()
        try:
            result = BayesCrowd(dataset, config).run()
        except Exception as err:  # noqa: BLE001 - a failed operation
            record.seconds = time.perf_counter() - start
            record.error = "raised %r" % err
        else:
            record.seconds = time.perf_counter() - start
        ref_after = host_ref_s()
        record.ref_s = (ref_before + ref_after) / 2.0
        ref_before = ref_after
        if record.error is None:
            if result.degraded:
                record.error = "degraded"
            elif _stopped_early(result, config):
                record.error = "stopped early after %d of %d tasks" % (
                    result.tasks_posted,
                    config.budget,
                )
            else:
                checked = check_answers(
                    shape, record.seed, result.answers, result.certain_answers
                )
                if isinstance(checked, str):
                    record.error = checked
                else:
                    record.f1 = checked
        records.append(record)
        if max_queries and len(records) >= max_queries:
            return records
        expected = statistics.median(r.seconds for r in records)
        limit = deadline if len(records) >= min_queries else late_deadline
        if time.perf_counter() + expected > limit:
            return records


# ----------------------------------------------------------------------
# traced replay
# ----------------------------------------------------------------------
@dataclass
class Replay:
    answers: List[int]
    rounds: List[List[Optional[int]]]
    tracer: Tracer
    counts: Dict[str, float] = field(default_factory=dict)

    def layer_seconds(self) -> Dict[str, float]:
        totals = {name: 0.0 for name in LAYER_SPANS}
        for span in self.tracer.spans:
            if span.name in totals:
                totals[span.name] += span.seconds
        return totals

    def total_seconds(self) -> float:
        return self.tracer.find("query")[0].seconds


def replay_query(dataset, config: BayesCrowdConfig) -> Replay:
    """Run one query through the layers' public functions, traced.

    Mirrors ``BayesCrowd.__init__`` + ``BayesCrowd._run_phases`` for the
    benchmark's configs: no journal, checkpoint or fault injection, so
    the platform answers every task and nothing is re-asked.  Per-answer
    work (integrity check, c-table update) interleaves inside a round, so
    those two layers are timed per call and recorded as one span each
    per round.
    """
    tracer = Tracer()
    counts: Dict[str, float] = {}
    rounds: List[List[Optional[int]]] = []
    session = SessionContext(seed=config.seed)
    with session.activate(), tracer.span("query"):
        rng = np.random.default_rng(config.seed)
        platform = build_default_platform(dataset, config)
        stats: Dict[str, int] = {}
        with tracer.span("bayesnet.learn"):
            distributions = learn_distributions(dataset, config, stats=stats)
        counts["bayesnet.cells"] = stats.get("cells", 0)
        with tracer.span("ctable.build"):
            ctable = build_ctable(
                dataset,
                alpha=config.alpha,
                dominator_method=config.dominator_method,
                inference_mode=config.inference_mode,
                backend=config.backend,
                prune=config.ctable_prune,
                n_jobs=config.n_jobs,
            )
        build = ctable.build_stats
        counts["ctable.pairs_tested"] = build.get("pairs_tested", 0)
        universe = build.get("pair_universe", 0)
        counts["ctable.prune_ratio"] = (
            build.get("pairs_pruned", 0) / universe if universe else 0.0
        )
        # The distribution store validates every pmf when it is built,
        # so its construction is probability-layer time.
        with tracer.span("probability.initial"):
            engine = ProbabilityEngine(
                DistributionStore(distributions, ctable.constraints),
                method=config.probability_method,
                rng=rng,
                cache_size=config.cache_size,
                n_jobs=config.n_jobs,
                node_budget=config.adpll_node_budget,
                deadline_s=config.adpll_deadline_s,
                backend=config.probability_backend,
                compile_node_budget=config.compile_node_budget,
                circuit_cache_size=config.circuit_cache_size,
            )
            undecided = ctable.undecided()
            engine.probability_many(
                [ctable.condition(o) for o in undecided], objects=undecided
            )
            ctable.result_set(engine.probability, config.answer_threshold)
        counts["ctable.open_objects"] = len(undecided)
        ledger = AnswerLedger(constraints=ctable.constraints)
        reliability = WorkerReliability(prior=config.reliability_prior)
        utility_engine = None
        if config.selection_batch and config.strategy.lower() != "fbs":
            utility_engine = UtilityEngine(
                engine, mode=config.utility_mode, cache_size=config.utility_cache_size
            )
        strategy = make_strategy(config.strategy, m=config.m)
        ranker = IncrementalRanker(ctable, engine)
        budget = config.budget
        applied = touched = posted = 0
        while budget > 0 and len(rounds) < config.latency:
            if not ctable.has_open_expressions():
                break
            k = min(budget, config.tasks_per_round())
            with tracer.span("core.rank"):
                ranked = ranker.rank()
            tasks: List[ComparisonTask] = []
            objects: List[Optional[int]] = []
            with tracer.span("core.select"):
                if ranked:
                    chosen = [ctable.condition(r.obj) for r in ranked[:k]]
                    context = SelectionContext(
                        engine=engine,
                        frequencies=expression_frequencies(chosen),
                        utility_mode=config.utility_mode,
                        utility_engine=utility_engine,
                    )
                    banned: set = set()
                    strategy.prefetch_round(chosen, context, banned)
                    for r in ranked:
                        if len(tasks) >= k:
                            break
                        expression = strategy.select_expression(
                            ctable.condition(r.obj), context, banned
                        )
                        if expression is None:
                            continue
                        banned.update(expression.variables())
                        tasks.append(ComparisonTask(expression, for_object=r.obj))
                        objects.append(r.obj)
            if not tasks:
                break
            with tracer.span("crowd.ask"):
                answers = platform.post_batch(tasks)
            votes_by_task = dict(getattr(platform, "last_votes", None) or {})
            integrity_s = apply_s = 0.0
            for task, relation in answers.items():
                start = time.perf_counter()
                votes = tuple(votes_by_task.get(task.task_id, ()))
                reason = ledger.check(task.expression, relation)
                ledger.record(
                    task.expression,
                    relation,
                    status="applied",
                    reason=reason,
                    round_index=len(rounds) + 1,
                    task_id=task.task_id,
                    votes=votes,
                )
                budget -= 1
                middle = time.perf_counter()
                affected = ctable.apply_answer(task.expression, relation)
                ranker.mark_dirty(affected)
                end = time.perf_counter()
                reliability.observe_votes(votes, relation)
                integrity_s += (middle - start) + (time.perf_counter() - end)
                apply_s += end - middle
                applied += 1
                touched += len(affected)
            tracer.record("crowd.integrity", integrity_s)
            tracer.record("ctable.apply", apply_s)
            posted += len(tasks)
            rounds.append(objects)
        with tracer.span("probability.final"):
            undecided = ctable.undecided()
            engine.probability_many(
                [ctable.condition(o) for o in undecided], objects=undecided
            )
            final = ctable.result_set(engine.probability, config.answer_threshold)
            for obj in final:
                if not ctable.condition(obj).is_true:
                    engine.probability_detailed(ctable.condition(obj))
    lookups = engine.n_computations + engine.n_cache_hits
    selection = utility_engine.stats() if utility_engine is not None else {}
    candidates = selection.get("utility_candidates_total", 0)
    evals = selection.get("utility_evals_total", 0)
    counts.update(
        {
            "ctable.answers_applied": applied,
            "ctable.objects_touched": touched,
            "probability.computations": engine.n_computations,
            "probability.cache_hit_ratio": (
                engine.n_cache_hits / lookups if lookups else 0.0
            ),
            "core.objects_rescored": ranker.n_rescored,
            "core.utility_candidates": candidates,
            "core.utility_evals": evals,
            "core.utility_eval_ratio": evals / candidates if candidates else 0.0,
            "crowd.tasks_posted": posted,
        }
    )
    return Replay(answers=final, rounds=rounds, tracer=tracer, counts=counts)


def replay_mismatch(replay: Replay, result) -> Optional[str]:
    """Why a replay differs from ``BayesCrowd.run``'s result, or ``None``."""
    if list(replay.answers) != list(result.answers):
        return "answer sets differ"
    if len(replay.rounds) != result.rounds:
        return "round counts differ (%d vs %d)" % (len(replay.rounds), result.rounds)
    for index, (objects, record) in enumerate(zip(replay.rounds, result.history)):
        if list(objects) != list(record.objects):
            return "round %d objects differ" % (index + 1)
    return None


# ----------------------------------------------------------------------
# service load
# ----------------------------------------------------------------------
class ServiceThread:
    """A :class:`QueryServer` serving from a background thread's event loop.

    Journal appends are fsynced (the production flush policy).
    """

    def __init__(self, data_dir: Path) -> None:
        self.settings = ServiceSettings(
            host="127.0.0.1", port=0, data_dir=data_dir, recover_on_start=False
        )
        self.server: Optional[QueryServer] = None
        self.error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, name="bench-server")
        self._thread.start()
        deadline = time.monotonic() + 30.0
        while self.port is None:
            if self.error is not None or time.monotonic() > deadline:
                raise RuntimeError("service did not start: %r" % self.error)
            time.sleep(0.005)

    def _run(self) -> None:
        async def serve() -> None:
            self.server = QueryServer(self.settings)
            await self.server.serve_until_stopped()

        try:
            asyncio.run(serve())
        except BaseException as err:  # noqa: BLE001 - reported by start/stop
            self.error = err

    @property
    def port(self) -> Optional[int]:
        return self.server.bound_port if self.server is not None else None

    @property
    def sessions_dir(self) -> Path:
        return self.server.app.store.sessions_dir

    def stop(self) -> None:
        self.server.request_stop_threadsafe("benchmark done")
        self._thread.join(timeout=60.0)
        if self._thread.is_alive():
            raise RuntimeError("service did not stop within 60 s")


class Client:
    """One keep-alive connection that times every request by route."""

    def __init__(self, port: int, requests: List[tuple]) -> None:
        self.port = port
        self.requests = requests
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, route: str, method: str, path: str, payload=None):
        """``(status, parsed JSON)``; status 0 on a socket error or timeout."""
        body = json.dumps(payload) if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        start = time.perf_counter()
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            data = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            status, data = 0, b""
        self.requests.append((route, status, time.perf_counter() - start))
        if not 200 <= status < 300:
            return status, None
        return status, json.loads(data) if data else None

    def close(self) -> None:
        self.conn.close()


def upload_datasets(client: Client, shape: Shape, seeds: List[int]) -> None:
    """Have the service generate and store dataset ``ds-<seed>`` per seed."""
    for seed in seeds:
        status, _ = client.call(
            "upload",
            "POST",
            "/v1/datasets",
            {
                "kind": shape.kind,
                "n": shape.n,
                "missing_rate": shape.missing_rate,
                "seed": seed,
                "dataset_id": "ds-%d" % seed,
            },
        )
        if status != 201:
            raise RuntimeError("dataset upload failed with HTTP %d" % status)


@dataclass
class SessionRecord:
    seed: int
    seconds: float = 0.0
    #: host reference of the session's load phase
    ref_s: float = 0.0
    state: str = ""
    result: Optional[dict] = None
    engine_s: Optional[float] = None
    error: Optional[str] = None


def _one_session(client: Client, shape: Shape, seed: int) -> SessionRecord:
    record = SessionRecord(seed=seed)
    start = time.perf_counter()
    status, meta = client.call(
        "open",
        "POST",
        "/v1/sessions",
        {"dataset_id": "ds-%d" % seed, "config": shape.config_fields(seed)},
    )
    if status != 202:
        record.error = "open returned HTTP %d" % status
        return record
    path = "/v1/sessions/%s" % meta["session_id"]
    while True:
        status, view = client.call("view", "GET", path)
        if status != 200:
            record.error = "view returned HTTP %d" % status
            return record
        if view["state"] in _TERMINAL:
            record.state = view["state"]
            break
        if time.perf_counter() - start > _SESSION_TIMEOUT_S:
            record.error = "timed out in state %s" % view["state"]
            return record
        time.sleep(_POLL_S)
    status, body = client.call("result", "GET", path + "/result")
    record.seconds = time.perf_counter() - start
    if status != 200:
        record.error = "result returned HTTP %d" % status
        return record
    record.result = body["result"]
    status, snapshot = client.call("metrics", "GET", path + "/metrics")
    if status != 200:
        record.error = "metrics returned HTTP %d" % status
        return record
    gauges = snapshot["gauges"]
    record.engine_s = gauges["preprocess_seconds"] + gauges["total_seconds"]
    if record.state != "DONE":
        record.error = "session ended %s" % record.state
    return record


@dataclass
class ServiceRun:
    sessions: List[SessionRecord]
    requests: List[tuple]
    wall_s: float
    #: sum over phases of phase wall time / phase host reference
    wall_ref: float
    store_bytes: int


def service_load(
    server: ServiceThread,
    shape: Shape,
    seeds: List[int],
    clients: int,
    seconds: float,
) -> ServiceRun:
    """Closed loop: each client opens a session, polls it to a terminal
    state every 20 ms, then reads its result and metrics, and repeats.

    Sessions cycle over the uploaded datasets ``seeds``.  The load runs
    in phases of about :data:`PHASE_S`; a client starts no new session
    after its phase's deadline, and the host reference is timed between
    phases, while the service is idle.
    """
    requests: List[tuple] = []
    sessions: List[SessionRecord] = []
    lock = threading.Lock()
    issued = [0]
    connections = [Client(server.port, []) for _ in range(clients)]

    def client_main(client: Client, deadline: float, phase: List[SessionRecord]):
        while time.perf_counter() < deadline:
            with lock:
                seed = seeds[issued[0] % len(seeds)]
                issued[0] += 1
            try:
                record = _one_session(client, shape, seed)
            except Exception as err:  # noqa: BLE001 - a failed session
                record = SessionRecord(seed=seed, error="client error %r" % err)
            with lock:
                phase.append(record)

    def boundary_ref() -> float:
        # Median of three: one timing jitters by about 10%, and a phase
        # has only its two boundaries to average over.
        return statistics.median(host_ref_s() for _ in range(3))

    n_phases = max(1, round(seconds / PHASE_S))
    wall = wall_ref = 0.0
    ref_before = boundary_ref()
    try:
        for _ in range(n_phases):
            phase: List[SessionRecord] = []
            start = time.perf_counter()
            deadline = start + seconds / n_phases
            threads = [
                threading.Thread(
                    target=client_main,
                    args=(client, deadline, phase),
                    name="bench-client-%d" % i,
                )
                for i, client in enumerate(connections)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=seconds + 2 * _SESSION_TIMEOUT_S)
                if thread.is_alive():
                    raise RuntimeError("a benchmark client did not finish")
            phase_wall = time.perf_counter() - start
            ref_after = boundary_ref()
            ref = (ref_before + ref_after) / 2.0
            ref_before = ref_after
            for record in phase:
                record.ref_s = ref
            sessions.extend(phase)
            wall += phase_wall
            wall_ref += phase_wall / ref
    finally:
        for client in connections:
            client.close()
            requests.extend(client.requests)
    store_bytes = sum(
        path.stat().st_size for path in server.sessions_dir.iterdir() if path.is_file()
    )
    return ServiceRun(sessions, requests, wall, wall_ref, store_bytes)


def check_sessions(shape: Shape, sessions: List[SessionRecord]) -> Dict[int, float]:
    """Compare each finished session with an in-process library run.

    Marks a session failed (``error``) when its answer set differs from
    ``BayesCrowd.run`` on the same dataset and config, or its answers
    break :func:`check_answers`.  Returns the F1 per dataset seed.
    """
    f1_by_seed: Dict[int, float] = {}
    reference: Dict[int, tuple] = {}
    for record in sessions:
        if record.result is None:
            continue
        seed = record.seed
        if seed not in reference:
            result = BayesCrowd(shape.dataset(seed), shape.config(seed)).run()
            checked = check_answers(
                shape, seed, result.answers, result.certain_answers
            )
            reference[seed] = (list(result.answers), checked)
            if not isinstance(checked, str):
                f1_by_seed[seed] = checked
        answers, checked = reference[seed]
        if isinstance(checked, str):
            record.error = record.error or checked
        elif list(record.result["answers"]) != answers:
            record.error = record.error or "answers differ from the library run"
    return f1_by_seed
