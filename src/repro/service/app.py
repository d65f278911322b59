"""Service application: sessions, admission control, drain, recovery.

This is the layer between the HTTP routers and the in-process session
substrate (:class:`~repro.session.SupervisedSession` + the write-ahead
:class:`~repro.session.AnswerJournal`).  Responsibilities:

* **datasets** -- create (generated or inline), persist to the store;
* **sessions** -- admission-controlled open (bounded slots -> 429 with
  Retry-After), one thread per running session, durable state records
  in the store after every lifecycle transition.  Only live sessions
  (PENDING, RUNNING, PAUSED) are held in memory; a session leaves that
  table once its terminal record is on disk (``result.json`` first,
  then the meta), and from then on the store alone answers for it;
* **answers** -- asynchronous crowd answers land in each live session's
  bounded queue (overflow -> 429/shed per policy) and are durably
  appended to a per-session answers log *before* the client is acked;
* **drain** -- SIGTERM stops admission, cooperatively cancels running
  sessions (their journals make them resumable) and waits
  bounded time for them to park;
* **recovery** -- startup rescans the store, re-opens every
  non-terminal session through journal recovery (bit-identical by the
  crash-matrix contract) and re-enqueues durable answer submissions the
  engine had not consumed.
"""

from __future__ import annotations

import collections
import json
import threading
import time
import uuid
from dataclasses import fields as dataclass_fields
from typing import Dict, List, Optional

from ..core.config import BayesCrowdConfig
from ..core.framework import build_default_platform
from ..crowd.unreliable import FaultModel
from ..ctable.expression import Relation
from ..errors import BackpressureError, ConfigError
from ..obs.metrics import MetricsRegistry
from ..persistence import expression_from_json, expression_to_json, save_result
from ..session.journal import read_journal
from ..session.supervisor import (
    SESSION_STATES,
    QueuedAnswerPlatform,
    SupervisedSession,
)
from .http import HTTPError
from .settings import ServiceSettings
from .store import TERMINAL_STATES, ServiceStore, valid_identifier

__all__ = ["ServiceApp", "PLATFORM_MODES"]

#: how a hosted session gets its crowd answers:
#: ``simulated`` -- the engine's deterministic simulated crowd (datasets
#: with ground truth; the benchmark/chaos-test mode);
#: ``queued`` -- answers arrive only via POST .../answers (a real crowd
#: fronted by HTTP); unanswered tasks follow the requeue policy;
#: ``hybrid`` -- queued answers win, the simulated crowd answers the rest.
PLATFORM_MODES = ("simulated", "queued", "hybrid")

#: config keys a client may set on a session (JSON-safe scalars only;
#: path/observability knobs are service-owned)
_CONFIG_BLOCKED = {
    "trace_path",
    "metrics_path",
    "journal_path",
    "journal_fsync",
}


def _config_from_payload(
    payload: Optional[dict], settings: ServiceSettings, session_id: str, store: ServiceStore
) -> BayesCrowdConfig:
    payload = dict(payload or {})
    allowed = {f.name for f in dataclass_fields(BayesCrowdConfig)} - _CONFIG_BLOCKED
    unknown = set(payload) - allowed
    if unknown:
        raise HTTPError(400, "unknown config keys: %s" % ", ".join(sorted(unknown)))
    if isinstance(payload.get("faults"), dict):
        try:
            payload["faults"] = FaultModel(**payload["faults"])
        except (TypeError, ValueError) as err:
            raise HTTPError(400, "invalid faults: %s" % err) from err
    if isinstance(payload.get("reliability_prior"), list):
        payload["reliability_prior"] = tuple(payload["reliability_prior"])
    payload["trace_path"] = str(store.session_file(session_id, "trace.jsonl"))
    payload["metrics_path"] = str(store.session_file(session_id, "metrics.json"))
    payload["journal_fsync"] = settings.journal_fsync
    try:
        return BayesCrowdConfig(**payload)
    except (ConfigError, ValueError, TypeError) as err:
        raise HTTPError(400, "invalid config: %s" % err) from err


def _config_payload_for_meta(payload: Optional[dict]) -> dict:
    """The JSON-safe config dict persisted for restart reconstruction."""
    out = {}
    for key, value in (payload or {}).items():
        out[key] = value
    return out


class ServiceApp:
    """One server process's state: store + live sessions + metrics."""

    def __init__(self, settings: ServiceSettings) -> None:
        self.settings = settings
        self.store = ServiceStore(settings.root)
        self.metrics = MetricsRegistry()
        self.metrics.info("service", "repro.service")
        self.started_at = time.time()
        #: live sessions (PENDING, RUNNING, PAUSED) by id
        self.live: Dict[str, SupervisedSession] = {}
        #: tallies of the sessions that left ``live``: the terminal state
        #: each left in, and its answer queue's shed/rejected counts
        self._retired: "collections.Counter[str]" = collections.Counter()
        self._lock = threading.RLock()
        self._draining = False
        #: live connection count, maintained by the server loop
        self.connections = 0

    # ------------------------------------------------------------------
    # admission / state helpers
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def _require_admitting(self) -> None:
        if self._draining:
            raise HTTPError(
                503,
                "server is draining; retry against another replica",
                retry_after=self.settings.retry_after_s,
            )

    def active_sessions(self) -> int:
        with self._lock:
            return sum(
                1 for s in self.live.values() if s.state in ("PENDING", "RUNNING")
            )

    # ------------------------------------------------------------------
    # datasets
    # ------------------------------------------------------------------
    def create_dataset(self, payload: dict) -> dict:
        self._require_admitting()
        limit = self.settings.max_datasets
        if limit and len(self.store.dataset_ids()) >= limit:
            raise HTTPError(
                429,
                "dataset store full (%d); delete or raise max_datasets" % limit,
                retry_after=self.settings.retry_after_s,
            )
        dataset_id = valid_identifier(
            payload.get("dataset_id") or ("ds-%s" % uuid.uuid4().hex[:12])
        )
        kind = payload.get("kind", "synthetic")
        try:
            if kind == "synthetic":
                from ..datasets import generate_synthetic

                dataset = generate_synthetic(
                    n_objects=int(payload.get("n", 200)),
                    missing_rate=float(payload.get("missing_rate", 0.1)),
                    seed=int(payload.get("seed", 0)),
                )
            elif kind == "nba":
                from ..datasets import generate_nba

                dataset = generate_nba(
                    n_objects=int(payload.get("n", 200)),
                    missing_rate=float(payload.get("missing_rate", 0.1)),
                    seed=int(payload.get("seed", 0)),
                )
            elif kind == "inline":
                dataset = self._inline_dataset(payload)
            else:
                raise HTTPError(
                    400,
                    "unknown dataset kind %r; expected synthetic|nba|inline" % kind,
                )
        except HTTPError:
            raise
        except (TypeError, ValueError) as err:
            raise HTTPError(400, "invalid dataset request: %s" % err) from err
        meta = self.store.save_dataset(
            dataset_id,
            dataset,
            {"kind": kind, "request": {k: v for k, v in payload.items() if k != "values"}},
        )
        self.metrics.counter(
            "service_datasets_created", "datasets created via the API"
        ).inc()
        return meta

    @staticmethod
    def _inline_dataset(payload: dict):
        import numpy as np

        from ..datasets.dataset import DatasetError, IncompleteDataset

        if "values" not in payload:
            raise HTTPError(400, "inline datasets need a 'values' matrix")
        values = np.asarray(payload["values"], dtype=np.int64)
        if values.ndim != 2:
            raise HTTPError(400, "'values' must be a 2-D matrix")
        complete = (
            np.asarray(payload["complete"], dtype=np.int64)
            if payload.get("complete") is not None
            else None
        )
        if payload.get("domain_sizes") is not None:
            domain_sizes = [int(d) for d in payload["domain_sizes"]]
        else:
            reference = complete if complete is not None else values
            domain_sizes = [
                max(2, int(reference[:, j].max()) + 1)
                for j in range(values.shape[1])
            ]
        kwargs = {}
        if payload.get("attribute_names") is not None:
            kwargs["attribute_names"] = [str(s) for s in payload["attribute_names"]]
        try:
            return IncompleteDataset(
                values=values,
                domain_sizes=domain_sizes,
                complete=complete,
                name=str(payload.get("name", "inline")),
                **kwargs,
            )
        except DatasetError as err:
            raise HTTPError(400, "invalid inline dataset: %s" % err) from err

    def list_datasets(self) -> List[dict]:
        return [self.store.dataset_meta(d) for d in self.store.dataset_ids()]

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def open_session(self, payload: dict) -> dict:
        self._require_admitting()
        if self.active_sessions() >= self.settings.max_sessions:
            self.metrics.counter(
                "service_sessions_rejected",
                "session opens refused by admission control",
            ).inc()
            raise HTTPError(
                429,
                "all %d session slots are busy" % self.settings.max_sessions,
                retry_after=self.settings.retry_after_s,
            )
        dataset_id = payload.get("dataset_id")
        if not dataset_id:
            raise HTTPError(400, "a dataset_id is required")
        dataset = self.store.load_dataset(valid_identifier(dataset_id))
        session_id = valid_identifier(
            payload.get("session_id") or ("qs-%s" % uuid.uuid4().hex[:12])
        )
        mode = payload.get("platform", "simulated")
        if mode not in PLATFORM_MODES:
            raise HTTPError(
                400,
                "unknown platform mode %r; expected one of %r"
                % (mode, PLATFORM_MODES),
            )
        if mode in ("simulated", "hybrid") and not dataset.has_ground_truth():
            raise HTTPError(
                409,
                "dataset %r has no ground truth to simulate answers from; "
                "use platform='queued'" % dataset_id,
            )
        config = _config_from_payload(
            payload.get("config"), self.settings, session_id, self.store
        )
        meta = self.store.create_session(
            session_id,
            {
                "dataset_id": dataset_id,
                "platform": mode,
                "config": _config_payload_for_meta(payload.get("config")),
                "state": "PENDING",
                "created_at": time.time(),
            },
        )
        self._register_and_start(session_id, dataset, config, mode, resume=False)
        self.metrics.counter(
            "service_sessions_opened", "sessions opened via the API"
        ).inc()
        return meta

    def _register_and_start(
        self, session_id: str, dataset, config, mode: str, resume: bool
    ) -> None:
        session = SupervisedSession(
            session_id,
            dataset,
            config,
            self.store.sessions_dir,
            max_pending_answers=self.settings.max_pending_answers,
            overflow_policy=self.settings.overflow_policy,
        )
        if mode == "queued":
            session.platform = QueuedAnswerPlatform(session.answer_queue)
        elif mode == "hybrid":
            session.platform = QueuedAnswerPlatform(
                session.answer_queue,
                fallback=build_default_platform(dataset, config),
            )
        if resume:
            self._requeue_unconsumed_answers(session_id, session)
        with self._lock:
            self._start(session, resume)
            self.live[session_id] = session

    def _start(self, session: SupervisedSession, resume: bool) -> dict:
        meta = self.store.update_session(session.session_id, state="RUNNING")
        session.thread = threading.Thread(
            target=self._session_thread,
            args=(session, resume),
            name="session-%s" % session.session_id,
            daemon=True,
        )
        session.thread.start()
        return meta

    def _session_thread(self, session: SupervisedSession, resume: bool) -> None:
        session_id = session.session_id
        try:
            result = session.run(resume=resume)
        except Exception as err:  # noqa: BLE001 - recorded, not propagated
            self._retire(session, "FAILED", error=str(err))
            return
        if session.state == "PAUSED":
            # Cooperative pause (drain, client pause or deadline): the
            # journal on disk makes the session resumable.
            self.store.update_session(
                session_id, state="PAUSED", pause_reason=str(session.error)
            )
            return
        updates = {}
        if result is not None:
            save_result(result, self.store.session_file(session_id, "result.json"))
            updates = dict(rounds=result.rounds, tasks_posted=result.tasks_posted)
            self.metrics.counter(
                "service_sessions_completed", "sessions run to completion"
            ).inc()
        self._retire(session, session.state, **updates)

    def _retire(self, session: SupervisedSession, state: str, **updates) -> dict:
        """Write a session's terminal meta, then drop it from ``live``."""
        stats = session.answer_queue.stats()
        meta = self.store.update_session(
            session.session_id,
            state=state,
            restarts=session.restarts,
            **stats,
            **updates,
        )
        with self._lock:
            if self.live.pop(session.session_id, None) is session:
                self._retired[state] += 1
                self._retired["queue_shed"] += stats["queue_shed"]
                self._retired["queue_rejected"] += stats["queue_rejected"]
        return meta

    def _live_session(self, session_id: str) -> SupervisedSession:
        """The live session ``session_id``: 404 if unknown, 409 if finished."""
        session = self.live.get(session_id)
        if session is None:
            state = self.store.session_meta(session_id).get("state")
            raise HTTPError(
                409, "session %r is %s and no longer runs" % (session_id, state)
            )
        return session

    def resume_session(self, session_id: str) -> dict:
        """Re-run a PAUSED session (same process) from its durable state."""
        self._require_admitting()
        with self._lock:
            session = self._live_session(session_id)
            if session.state != "PAUSED" or session.cancel_requested:
                raise HTTPError(
                    409, "session %r is %s, not PAUSED" % (session_id, session.state)
                )
            if session.thread is not None and session.thread.is_alive():
                raise HTTPError(409, "session %r is still settling" % session_id)
            if self.active_sessions() >= self.settings.max_sessions:
                raise HTTPError(
                    429,
                    "all %d session slots are busy" % self.settings.max_sessions,
                    retry_after=self.settings.retry_after_s,
                )
            session.stop_reason = None
            meta = self._start(session, resume=True)
        return {"session_id": session_id, "state": meta["state"]}

    def pause_session(self, session_id: str, reason: str = "paused by client") -> dict:
        with self._lock:
            session = self._live_session(session_id)
            if session.state not in ("RUNNING", "PENDING"):
                raise HTTPError(
                    409,
                    "session %r is %s; only RUNNING sessions pause"
                    % (session_id, session.state),
                )
            session.stop(reason)
        state = self.store.session_meta(session_id)["state"]
        return {"session_id": session_id, "state": state, "pausing": True}

    def cancel_session(self, session_id: str) -> dict:
        """Mark a session terminal CANCELLED (files stay for audit).

        A running session is asked to stop and given the drain budget to
        park; if it does not, its run ends CANCELLED when it does.
        """
        with self._lock:
            session = self.live.get(session_id)
            if session is not None:
                session.stop("cancelled by client", cancel=True)
        if session is not None:
            session.thread.join(timeout=self.settings.drain_timeout_s)
        with self._lock:
            if session_id not in self.live:
                meta = self.store.update_session(session_id, state="CANCELLED")
            elif session.state == "PAUSED" and not session.thread.is_alive():
                session.cancel_parked()
                meta = self._retire(session, "CANCELLED")
            else:  # still running: its run ends CANCELLED when it parks
                meta = self.store.session_meta(session_id)
        return {"session_id": session_id, "state": meta["state"]}

    def session_view(self, session_id: str) -> dict:
        session = self.live.get(session_id)
        view = self.store.session_meta(session_id)
        if session is not None:
            view["restarts"] = session.restarts
            view.update(session.answer_queue.stats())
        return view

    def list_sessions(self) -> List[dict]:
        return [self.session_view(sid) for sid in self.store.session_ids()]

    def session_result(self, session_id: str) -> dict:
        state = self.store.session_meta(session_id).get("state")
        text = self.store.read_session_artifact(session_id, "result.json")
        if state not in TERMINAL_STATES or text is None:
            raise HTTPError(
                409,
                "session %r is %s; no result yet" % (session_id, state),
            )
        return {"session_id": session_id, "state": state, "result": json.loads(text)}

    def session_metrics_json(self, session_id: str) -> dict:
        self.store.session_meta(session_id)  # 404 on unknown
        text = self.store.read_session_artifact(session_id, "metrics.json")
        if text is None:
            raise HTTPError(409, "session %r has no metrics snapshot yet" % session_id)
        return json.loads(text)

    # ------------------------------------------------------------------
    # answers
    # ------------------------------------------------------------------
    def submit_answers(self, session_id: str, payload: dict) -> dict:
        self._require_admitting()
        session = self._live_session(session_id)
        if not isinstance(session.platform, QueuedAnswerPlatform):
            raise HTTPError(
                409,
                "session %r runs the simulated platform and does not "
                "consume queued answers; open it with platform='queued' "
                "or 'hybrid'" % session_id,
            )
        entries = payload.get("answers")
        if not isinstance(entries, list) or not entries:
            raise HTTPError(400, "expected a non-empty 'answers' list")
        parsed = []
        for entry in entries:
            try:
                expression = expression_from_json(entry["expression"])
                relation = Relation(entry["relation"])
            except (KeyError, TypeError, ValueError) as err:
                raise HTTPError(400, "malformed answer %r: %s" % (entry, err)) from err
            parsed.append((expression, relation))
        log = self.store.answer_log(session_id, fsync=self.settings.journal_fsync)
        accepted = 0
        for expression, relation in parsed:
            try:
                session.answer_queue.put(expression, relation)
            except BackpressureError as err:
                self.metrics.counter(
                    "service_answers_rejected",
                    "answer submissions refused by backpressure",
                ).inc(len(parsed) - accepted)
                raise HTTPError(
                    429, str(err), retry_after=self.settings.retry_after_s
                ) from err
            # Durable acceptance: logged before the client is acked, so
            # a crash cannot silently lose an acknowledged submission.
            log.append(expression_to_json(expression), relation.value)
            accepted += 1
        self.metrics.counter(
            "service_answers_accepted", "answer submissions queued"
        ).inc(accepted)
        return {
            "session_id": session_id,
            "accepted": accepted,
            "queue_depth": len(session.answer_queue),
        }

    def _requeue_unconsumed_answers(self, session_id: str, session) -> None:
        """Re-enqueue durably logged submissions the engine never consumed.

        Consumption is reconciled against the engine's write-ahead
        journal per (expression, relation) occurrence count -- an
        at-least-once contract: a submission answered *and* journaled is
        not redelivered; one accepted but unconsumed at the crash is.
        """
        log = self.store.answer_log(session_id)
        submissions = log.load()
        if not submissions:
            return
        consumed: Dict[str, int] = {}
        journal_path = self.store.session_file(session_id, "journal.jsonl")
        if journal_path.exists():
            try:
                for record in read_journal(journal_path):
                    if record.kind != "answer":
                        continue
                    key = json.dumps(
                        [record.payload.get("expression"), record.payload.get("relation")],
                        sort_keys=True,
                    )
                    consumed[key] = consumed.get(key, 0) + 1
            except Exception:  # noqa: BLE001 - recovery must not die here
                consumed = {}
        requeued = 0
        for entry in submissions:
            key = json.dumps(
                [entry.get("expression"), entry.get("relation")], sort_keys=True
            )
            if consumed.get(key, 0) > 0:
                consumed[key] -= 1
                continue
            try:
                session.answer_queue.put(
                    expression_from_json(entry["expression"]),
                    Relation(entry["relation"]),
                )
                requeued += 1
            except (BackpressureError, KeyError, TypeError, ValueError):
                continue
        if requeued:
            self.metrics.counter(
                "service_answers_requeued",
                "durable submissions re-enqueued at recovery",
            ).inc(requeued)

    # ------------------------------------------------------------------
    # recovery & drain
    # ------------------------------------------------------------------
    def recover(self) -> List[str]:
        """Re-open every non-terminal stored session (startup path)."""
        recovered = []
        for meta in self.store.recoverable_sessions():
            session_id = meta["session_id"]
            try:
                dataset = self.store.load_dataset(meta["dataset_id"])
                config = _config_from_payload(
                    meta.get("config"), self.settings, session_id, self.store
                )
                self._register_and_start(
                    session_id,
                    dataset,
                    config,
                    meta.get("platform", "simulated"),
                    resume=True,
                )
            except (HTTPError, ValueError, KeyError) as err:
                self.store.update_session(
                    session_id, state="FAILED", error="unrecoverable: %s" % err
                )
                with self._lock:
                    self._retired["FAILED"] += 1
                continue
            recovered.append(session_id)
            self.metrics.counter(
                "service_sessions_recovered",
                "interrupted sessions re-opened at startup",
            ).inc()
        return recovered

    def begin_drain(self, reason: str = "SIGTERM") -> None:
        """Stop admitting and cooperatively cancel running sessions."""
        with self._lock:
            if self._draining:
                return
            self._draining = True
            running = [
                s for s in self.live.values() if s.state in ("PENDING", "RUNNING")
            ]
        self.metrics.counter("service_drains", "drains initiated").inc()
        for session in running:
            session.stop("drain: %s" % reason)

    def drain(self, timeout_s: Optional[float] = None, reason: str = "SIGTERM") -> bool:
        """Full graceful drain; True when every session parked in time."""
        self.begin_drain(reason)
        deadline = time.monotonic() + (
            self.settings.drain_timeout_s if timeout_s is None else timeout_s
        )
        with self._lock:
            threads = [s.thread for s in self.live.values() if s.thread is not None]
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        return not any(thread.is_alive() for thread in threads)

    # ------------------------------------------------------------------
    # health & metrics
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return {
            "status": "ok",
            "uptime_s": time.time() - self.started_at,
            "draining": self._draining,
        }

    def readiness(self) -> dict:
        if self._draining:
            raise HTTPError(
                503, "draining", retry_after=self.settings.retry_after_s
            )
        return {
            "status": "ready",
            "session_slots_free": max(
                0, self.settings.max_sessions - self.active_sessions()
            ),
        }

    def refresh_gauges(self) -> None:
        with self._lock:
            totals = collections.Counter(self._retired)
            live = list(self.live.values())
        for session in live:
            totals[session.state] += 1
            totals.update(session.answer_queue.stats())
        for state in SESSION_STATES:
            self.metrics.gauge(
                "service_sessions_%s" % state.lower(),
                "sessions currently %s" % state,
            ).set(totals[state])
        self.metrics.gauge(
            "service_answer_queue_depth", "queued answers across sessions"
        ).set(totals["queue_depth"])
        self.metrics.gauge(
            "service_answers_shed", "answers shed by overflow policy"
        ).set(totals["queue_shed"])
        self.metrics.gauge(
            "service_answers_queue_rejected", "queue-level rejections"
        ).set(totals["queue_rejected"])
        self.metrics.gauge("service_draining", "1 while draining").set(
            1.0 if self._draining else 0.0
        )
        self.metrics.gauge(
            "service_connections_active", "open client connections"
        ).set(self.connections)
        summary = self.store.summary()
        self.metrics.gauge("service_store_datasets", "datasets stored").set(
            summary["datasets"]
        )
        self.metrics.gauge("service_store_sessions", "sessions stored").set(
            summary["sessions"]
        )

    def prometheus_text(self) -> str:
        self.refresh_gauges()
        return self.metrics.to_prometheus()
