"""The resilient query service: HTTP layer, store, admission, drain.

Everything here runs against a real listening server (OS-assigned port)
in a background thread, or against the components directly -- no mocks
of the transport.  The chaos-grade SIGKILL/restart matrix lives in
``test_service_chaos.py``; this file covers the request/response
surface, admission control and backpressure, the durable store, the
storage fault-injection harness, and graceful drain + same-store
restart recovery.
"""

import asyncio
import http.client
import json
import socket
import threading
import time

import pytest

from repro.core import BayesCrowd, BayesCrowdConfig
from repro.errors import ConfigError
from repro.persistence import atomic_write, expression_to_json
from repro.service import (
    DurableAnswerLog,
    HTTPError,
    QueryServer,
    ServiceSettings,
    ServiceStore,
    StoreFaultInjector,
    abrupt_close_probe,
    slow_loris_probe,
)
from repro.service.http import read_request
from repro.service.store import valid_identifier
from repro.session import AnswerJournal, read_journal

from .recovery import observables


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
class ServerHandle:
    """A live server in a daemon thread + a tiny JSON client."""

    def __init__(self, settings: ServiceSettings) -> None:
        self.settings = settings
        self.server = None
        self.exit_code = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if self.server is not None and self.server.bound_port is not None:
                return
            time.sleep(0.01)
        raise RuntimeError("server did not start")

    def _run(self) -> None:
        async def main():
            self.server = QueryServer(self.settings)
            self.exit_code = await self.server.serve_until_stopped()

        asyncio.run(main())

    @property
    def port(self) -> int:
        return self.server.bound_port

    def stop(self, reason: str = "test", timeout: float = 60.0):
        self.server.request_stop_threadsafe(reason)
        self._thread.join(timeout=timeout)
        assert not self._thread.is_alive(), "server did not stop"
        return self.exit_code

    # ------------------------------------------------------------------
    def request(self, method, path, payload=None, raw_body=None, headers=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        body = raw_body
        send_headers = dict(headers or {})
        if payload is not None:
            body = json.dumps(payload)
            send_headers.setdefault("Content-Type", "application/json")
        conn.request(method, path, body=body, headers=send_headers)
        response = conn.getresponse()
        data = response.read()
        out_headers = dict(response.getheaders())
        conn.close()
        parsed = None
        if data and out_headers.get("Content-Type", "").startswith("application/json"):
            parsed = json.loads(data)
        return response.status, parsed, out_headers, data

    def wait_state(self, session_id, states, timeout=120.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, view, _, _ = self.request("GET", "/v1/sessions/%s" % session_id)
            assert status == 200
            if view["state"] in states:
                return view
            time.sleep(0.05)
        raise AssertionError(
            "session %s never reached %r (last: %r)" % (session_id, states, view)
        )


def _settings(tmp_path, **overrides) -> ServiceSettings:
    defaults = dict(
        port=0,
        data_dir=tmp_path / "data",
        journal_fsync=False,
        retry_after_s=2.0,
    )
    defaults.update(overrides)
    return ServiceSettings(**defaults)


@pytest.fixture
def server(tmp_path):
    handle = ServerHandle(_settings(tmp_path))
    yield handle
    if handle._thread.is_alive():
        handle.stop()


def _make_dataset(handle, dataset_id="d1", n=50, seed=3):
    status, meta, _, _ = handle.request(
        "POST",
        "/v1/datasets",
        {"kind": "synthetic", "n": n, "seed": seed, "dataset_id": dataset_id},
    )
    assert status == 201, meta
    return meta


_QUEUED_DATASET = {
    # No "complete" matrix -> no ground truth -> nothing to simulate:
    # sessions over it must use the queued platform.
    "kind": "inline",
    "dataset_id": "dq",
    "values": [[2, 1], [1, 2], [-1, 1], [1, -1]],
    "domain_sizes": [4, 4],
}


# ----------------------------------------------------------------------
# settings
# ----------------------------------------------------------------------
class TestSettings:
    def test_from_env_parses_types(self, tmp_path):
        settings = ServiceSettings.from_env(
            environ={
                "REPRO_SERVICE_PORT": "0",
                "REPRO_SERVICE_MAX_SESSIONS": "3",
                "REPRO_SERVICE_RETRY_AFTER_S": "2.5",
                "REPRO_SERVICE_JOURNAL_FSYNC": "no",
                "REPRO_SERVICE_RECOVER_ON_START": "true",
                "REPRO_SERVICE_DATA_DIR": str(tmp_path),
                "IGNORED_OTHER": "x",
            }
        )
        assert settings.port == 0
        assert settings.max_sessions == 3
        assert settings.retry_after_s == 2.5
        assert settings.journal_fsync is False
        assert settings.recover_on_start is True

    def test_overrides_beat_env(self, tmp_path):
        settings = ServiceSettings.from_env(
            environ={"REPRO_SERVICE_MAX_SESSIONS": "3"},
            max_sessions=5,
            port=0,
            data_dir=tmp_path,
        )
        assert settings.max_sessions == 5

    @pytest.mark.parametrize(
        "bad",
        [
            {"port": 70000},
            {"max_sessions": 0},
            {"overflow_policy": "drop-table"},
            {"header_timeout_s": 0},
            {"max_header_bytes": 10},
            {"retry_after_s": -1},
        ],
    )
    def test_bad_knobs_fail_at_config_time(self, tmp_path, bad):
        with pytest.raises(ConfigError):
            ServiceSettings(data_dir=tmp_path, **bad)

    def test_bad_env_value_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            ServiceSettings.from_env(
                environ={"REPRO_SERVICE_PORT": "not-a-port"}, data_dir=tmp_path
            )


# ----------------------------------------------------------------------
# HTTP parsing (no socket: a hand-fed StreamReader)
# ----------------------------------------------------------------------
def _parse(raw: bytes, **limits):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        kwargs = dict(
            max_header_bytes=1024,
            max_body_bytes=1024,
            header_timeout_s=5.0,
            body_timeout_s=5.0,
        )
        kwargs.update(limits)
        return await read_request(reader, **kwargs)

    return asyncio.run(run())


class TestHTTPParsing:
    def test_simple_get(self):
        request = _parse(b"GET /v1/sessions?follow=1 HTTP/1.1\r\nHost: x\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/v1/sessions"
        assert request.query == {"follow": "1"}
        assert request.wants_keep_alive

    def test_post_with_body(self):
        body = b'{"a": 1}'
        raw = (
            b"POST /v1/datasets HTTP/1.1\r\nContent-Length: %d\r\n"
            b"Connection: close\r\n\r\n%s" % (len(body), body)
        )
        request = _parse(raw)
        assert request.json() == {"a": 1}
        assert not request.wants_keep_alive

    def test_clean_eof_is_none(self):
        assert _parse(b"") is None

    def test_oversized_header_is_431(self):
        raw = b"GET / HTTP/1.1\r\nX-Big: " + b"y" * 4096 + b"\r\n\r\n"
        with pytest.raises(HTTPError) as err:
            _parse(raw)
        assert err.value.status == 431

    def test_oversized_declared_body_is_413(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n"
        with pytest.raises(HTTPError) as err:
            _parse(raw)
        assert err.value.status == 413

    def test_unknown_method_is_405(self):
        with pytest.raises(HTTPError) as err:
            _parse(b"BREW /pot HTTP/1.1\r\n\r\n")
        assert err.value.status == 405

    def test_chunked_body_is_411(self):
        with pytest.raises(HTTPError) as err:
            _parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        assert err.value.status == 411

    def test_truncated_request_is_400(self):
        with pytest.raises(HTTPError) as err:
            _parse(b"GET / HTTP/1.1\r\nHost")
        assert err.value.status == 400


# ----------------------------------------------------------------------
# store + durability harness (satellite: durability audit)
# ----------------------------------------------------------------------
class TestStore:
    @pytest.mark.parametrize("bad", ["", "../evil", ".hidden", "a/b", "x" * 80, 7])
    def test_invalid_identifiers_rejected(self, bad):
        with pytest.raises(HTTPError) as err:
            valid_identifier(bad)
        assert err.value.status == 400

    def test_duplicate_dataset_conflicts(self, tmp_path, nba_small):
        store = ServiceStore(tmp_path)
        store.save_dataset("d", nba_small, {})
        with pytest.raises(HTTPError) as err:
            store.save_dataset("d", nba_small, {})
        assert err.value.status == 409

    def test_recoverable_is_exactly_non_terminal(self, tmp_path):
        store = ServiceStore(tmp_path)
        for sid, state in [
            ("a", "PENDING"), ("b", "RUNNING"), ("c", "PAUSED"),
            ("d", "DONE"), ("e", "FAILED"), ("f", "CANCELLED"),
        ]:
            store.create_session(sid, {"state": state})
        assert sorted(m["session_id"] for m in store.recoverable_sessions()) == [
            "a", "b", "c",
        ]

    def test_answer_log_drops_torn_tail(self, tmp_path):
        log = DurableAnswerLog(tmp_path / "a.jsonl", fsync=False)
        from repro.ctable.expression import Var, Expression

        expr = expression_to_json(Expression(Var(0, 0), Var(1, 0)))
        log.append(expr, ">")
        log.append(expr, "<")
        with open(log.path, "a") as handle:
            handle.write('{"expression": {"tru')  # crash mid-append
        records = log.load()
        assert [r["relation"] for r in records] == [">", "<"]


class TestStorageFaults:
    def _write(self, path, text):
        atomic_write(path, lambda handle: handle.write(text))

    @pytest.mark.parametrize("mode", ["disk_full", "torn"])
    def test_no_partial_file_ever_observable(self, tmp_path, mode):
        target = tmp_path / "state.json"
        self._write(target, "old-and-complete")
        with StoreFaultInjector(mode=mode, times=1) as faults:
            with pytest.raises(OSError):
                self._write(target, "new-but-doomed")
        assert faults.fired == 1
        # The atomicity contract: old content intact, no temp droppings.
        assert target.read_text() == "old-and-complete"
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]
        # The disk "recovers": the very next write goes through whole.
        self._write(target, "new-and-complete")
        assert target.read_text() == "new-and-complete"

    def test_fresh_file_absent_after_fault(self, tmp_path):
        target = tmp_path / "fresh.json"
        with StoreFaultInjector(mode="torn", times=1):
            with pytest.raises(OSError):
                self._write(target, "never-lands")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_match_filter_scopes_injection(self, tmp_path):
        with StoreFaultInjector(mode="disk_full", times=5, match="victim"):
            self._write(tmp_path / "innocent.json", "fine")
            with pytest.raises(OSError):
                self._write(tmp_path / "victim.json", "doomed")
        assert (tmp_path / "innocent.json").read_text() == "fine"

    def test_store_survives_disk_full_on_meta(self, tmp_path):
        store = ServiceStore(tmp_path)
        store.create_session("s1", {"state": "PENDING"})
        with StoreFaultInjector(mode="disk_full", times=1, match="s1.meta"):
            with pytest.raises(OSError):
                store.update_session("s1", state="RUNNING")
        # The record is whole and unchanged -- recovery still sees it.
        assert store.session_meta("s1")["state"] == "PENDING"


# ----------------------------------------------------------------------
# the live server: happy paths
# ----------------------------------------------------------------------
class TestServerBasics:
    def test_health_ready_and_unknown_routes(self, server):
        status, body, _, _ = server.request("GET", "/healthz")
        assert status == 200 and body["status"] == "ok"
        status, body, _, _ = server.request("GET", "/readyz")
        assert status == 200 and body["status"] == "ready"
        status, body, _, _ = server.request("GET", "/no/such/route")
        assert status == 404
        status, body, _, _ = server.request("DELETE", "/healthz")
        assert status == 405

    def test_bad_json_body_is_400(self, server):
        status, body, _, _ = server.request(
            "POST", "/v1/datasets", raw_body="{not json",
            headers={"Content-Type": "application/json"},
        )
        assert status == 400
        assert "JSON" in body["error"]

    def test_dataset_lifecycle(self, server):
        meta = _make_dataset(server, "d1", n=40)
        assert meta["has_ground_truth"] is True
        status, listing, _, _ = server.request("GET", "/v1/datasets")
        assert [d["dataset_id"] for d in listing["datasets"]] == ["d1"]
        status, _, _, _ = server.request(
            "POST", "/v1/datasets", {"kind": "synthetic", "dataset_id": "d1"}
        )
        assert status == 409
        status, body, _, _ = server.request("GET", "/v1/datasets/none")
        assert status == 404

    def test_session_runs_to_done_with_result_events_metrics(self, server):
        _make_dataset(server, "d1", n=40)
        status, meta, _, _ = server.request(
            "POST",
            "/v1/sessions",
            {"dataset_id": "d1", "session_id": "s1",
             "config": {"budget": 8, "latency": 3, "seed": 3}},
        )
        assert status == 202 and meta["state"] == "PENDING"
        view = server.wait_state("s1", ("DONE", "DEGRADED"))
        assert view["restarts"] == 0
        status, body, _, _ = server.request("GET", "/v1/sessions/s1/result")
        assert status == 200
        assert body["result"]["answers"] is not None
        # the EventLog JSONL stream is the wire format: every line parses
        status, _, headers, raw = server.request("GET", "/v1/sessions/s1/events")
        assert status == 200
        assert "ndjson" in headers.get("Content-Type", "")
        events = [json.loads(line) for line in raw.decode().splitlines()]
        assert any(e.get("event") or e.get("kind") for e in events)
        # session metrics snapshot exists once the run finished
        status, snapshot, _, _ = server.request("GET", "/v1/sessions/s1/metrics")
        assert status == 200
        # Prometheus exposition includes supervisor state counts
        status, _, headers, raw = server.request("GET", "/metrics")
        assert status == 200 and "text/plain" in headers["Content-Type"]
        text = raw.decode()
        assert "service_sessions_done" in text
        assert "service_requests" in text

    def test_open_session_on_unknown_dataset_is_404(self, server):
        status, _, _, _ = server.request(
            "POST", "/v1/sessions", {"dataset_id": "ghost"}
        )
        assert status == 404

    def test_bad_session_config_is_400(self, server):
        _make_dataset(server, "d1", n=40)
        status, body, _, _ = server.request(
            "POST",
            "/v1/sessions",
            {"dataset_id": "d1", "config": {"budget": -5}},
        )
        assert status == 400
        status, body, _, _ = server.request(
            "POST",
            "/v1/sessions",
            {"dataset_id": "d1", "config": {"trace_path": "/tmp/hijack"}},
        )
        assert status == 400
        assert "trace_path" in body["error"]

    def test_removed_compiled_backend_is_400(self, server):
        """Removed knobs (the probability backend and its two circuit
        knobs, the process pool's ``n_jobs`` and ``ctable_prune``) are
        unknown keys; a removed value (the ``numpy`` dominator method) is
        rejected with the surviving choices."""
        _make_dataset(server, "d1", n=40)
        for config, fragments in (
            ({"probability_backend": "compiled"}, ["unknown config keys: probability_backend"]),
            ({"compile_node_budget": 8}, ["unknown config keys: compile_node_budget"]),
            ({"circuit_cache_size": 0}, ["unknown config keys: circuit_cache_size"]),
            ({"n_jobs": 2}, ["unknown config keys: n_jobs"]),
            ({"ctable_prune": "off"}, ["unknown config keys: ctable_prune"]),
            ({"dominator_method": "numpy"}, ["'numpy'", "('fast', 'baseline')"]),
        ):
            status, body, _, _ = server.request(
                "POST", "/v1/sessions", {"dataset_id": "d1", "config": config}
            )
            assert status == 400
            for fragment in fragments:
                assert fragment in body["error"]


# ----------------------------------------------------------------------
# admission control & backpressure
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_session_slots_full_is_429_with_retry_after(self, tmp_path):
        handle = ServerHandle(_settings(tmp_path, max_sessions=1))
        try:
            _make_dataset(handle, "d1", n=40)
            # Occupy the single slot with a hand-held RUNNING session.
            app = handle.server.app
            from repro.core import BayesCrowdConfig

            blocker = app.supervisor.create(
                "blocker", app.store.load_dataset("d1"), BayesCrowdConfig()
            )
            blocker.state = "RUNNING"
            status, body, headers, _ = handle.request(
                "POST", "/v1/sessions", {"dataset_id": "d1"}
            )
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert "slots" in body["error"]
            blocker.state = "DONE"  # release
            status, _, _, _ = handle.request(
                "POST", "/v1/sessions",
                {"dataset_id": "d1", "session_id": "s-ok",
                 "config": {"budget": 5, "latency": 2}},
            )
            assert status == 202
        finally:
            handle.stop()

    def test_answer_queue_backpressure_is_429(self, tmp_path):
        handle = ServerHandle(
            _settings(tmp_path, max_pending_answers=2, overflow_policy="reject")
        )
        try:
            status, _, _, _ = handle.request("POST", "/v1/datasets", _QUEUED_DATASET)
            assert status == 201
            status, _, _, _ = handle.request(
                "POST",
                "/v1/sessions",
                {"dataset_id": "dq", "session_id": "sq", "platform": "queued",
                 "config": {"budget": 4, "latency": 1, "alpha": 1.0}},
            )
            assert status == 202
            handle.wait_state("sq", ("DONE", "DEGRADED", "FAILED"))
            # The engine is finished: nothing consumes the queue now, so
            # the bound is observable deterministically.
            answer = {
                "expression": {"left": {"var": [0, 0]}, "right": {"var": [1, 0]}},
                "relation": ">",
            }
            status, body, headers, _ = handle.request(
                "POST",
                "/v1/sessions/sq/answers",
                {"answers": [answer, answer, answer]},
            )
            assert status == 429
            assert "Retry-After" in headers
            status, view, _, _ = handle.request("GET", "/v1/sessions/sq")
            assert view["queue_depth"] == 2  # the bound held
        finally:
            handle.stop()

    def test_simulated_session_rejects_queued_answers(self, server):
        _make_dataset(server, "d1", n=40)
        status, _, _, _ = server.request(
            "POST", "/v1/sessions",
            {"dataset_id": "d1", "session_id": "s1",
             "config": {"budget": 5, "latency": 2}},
        )
        assert status == 202
        status, body, _, _ = server.request(
            "POST",
            "/v1/sessions/s1/answers",
            {"answers": [{
                "expression": {"left": {"var": [0, 0]}, "right": {"var": [1, 0]}},
                "relation": ">",
            }]},
        )
        assert status == 409

    def test_queued_dataset_needs_queued_platform(self, server):
        status, _, _, _ = server.request("POST", "/v1/datasets", _QUEUED_DATASET)
        assert status == 201
        status, body, _, _ = server.request(
            "POST", "/v1/sessions", {"dataset_id": "dq"}
        )
        assert status == 409
        assert "ground truth" in body["error"]

    def test_malformed_answer_is_400(self, server):
        status, _, _, _ = server.request("POST", "/v1/datasets", _QUEUED_DATASET)
        assert status == 201
        status, _, _, _ = server.request(
            "POST",
            "/v1/sessions",
            {"dataset_id": "dq", "session_id": "sq", "platform": "queued",
             "config": {"budget": 4, "latency": 1, "alpha": 1.0}},
        )
        assert status == 202
        status, body, _, _ = server.request(
            "POST",
            "/v1/sessions/sq/answers",
            {"answers": [{"expression": {"left": {}}, "relation": "maybe"}]},
        )
        assert status == 400

    def test_connection_cap_gets_503(self, tmp_path):
        handle = ServerHandle(
            _settings(tmp_path, max_connections=1, header_timeout_s=20.0)
        )
        try:
            # Occupy the single slot with an idle keep-alive connection.
            squatter = socket.create_connection(("127.0.0.1", handle.port))
            time.sleep(0.1)
            with socket.create_connection(("127.0.0.1", handle.port)) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                sock.settimeout(10)
                data = sock.recv(4096)
            assert b"503" in data.split(b"\r\n", 1)[0]
            assert b"Retry-After" in data
            squatter.close()
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# transport faults
# ----------------------------------------------------------------------
class TestTransportFaults:
    def test_slow_loris_is_reaped_with_408(self, tmp_path):
        handle = ServerHandle(_settings(tmp_path, header_timeout_s=0.5))
        try:
            start = time.monotonic()
            received = slow_loris_probe(
                "127.0.0.1", handle.port, duration_s=10.0, interval_s=0.1
            )
            elapsed = time.monotonic() - start
            # reaped by the timeout, not by the attacker giving up
            assert elapsed < 8.0
            assert received == b"" or b"408" in received
            status, _, _, _ = handle.request("GET", "/healthz")
            assert status == 200
        finally:
            handle.stop()

    def test_abruptly_closed_connection_is_absorbed(self, server):
        abrupt_close_probe("127.0.0.1", server.port)
        time.sleep(0.1)
        status, _, _, _ = server.request("GET", "/healthz")
        assert status == 200

    def test_client_vanishing_mid_stream_is_absorbed(self, server):
        _make_dataset(server, "d1", n=40)
        status, _, _, _ = server.request(
            "POST", "/v1/sessions",
            {"dataset_id": "d1", "session_id": "s1",
             "config": {"budget": 5, "latency": 2}},
        )
        assert status == 202
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(
                b"GET /v1/sessions/s1/events?follow=1 HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            sock.recv(64)  # the head arrived; now vanish mid-stream
        server.wait_state("s1", ("DONE", "DEGRADED"))
        status, _, _, _ = server.request("GET", "/healthz")
        assert status == 200


# ----------------------------------------------------------------------
# drain + restart recovery (same store, new process-equivalent)
# ----------------------------------------------------------------------
class TestDrainAndRecovery:
    def test_drain_refuses_new_work_and_parks_sessions(self, tmp_path):
        handle = ServerHandle(_settings(tmp_path))
        data_dir = handle.settings.data_dir
        try:
            _make_dataset(handle, "d1", n=300, seed=11)
            status, _, _, _ = handle.request(
                "POST",
                "/v1/sessions",
                {"dataset_id": "d1", "session_id": "s1",
                 "config": {"budget": 120, "latency": 40, "seed": 11}},
            )
            assert status == 202
            time.sleep(0.3)  # let it get into a round
            exit_code = handle.stop("SIGTERM")
            assert exit_code == 0  # parked within the drain budget
        finally:
            if handle._thread.is_alive():
                handle.stop()

        # The store remembers the interrupted session...
        store = ServiceStore(data_dir)
        meta = store.session_meta("s1")
        assert meta["state"] in ("PAUSED", "PENDING", "RUNNING", "DONE")

        # ...and a restart over the same store resumes it to completion.
        restarted = ServerHandle(ServiceSettings(
            port=0, data_dir=data_dir, journal_fsync=False
        ))
        try:
            view = restarted.wait_state("s1", ("DONE", "DEGRADED"))
            assert view["state"] == "DONE"
            status, body, _, _ = restarted.request("GET", "/v1/sessions/s1/result")
            assert status == 200
            assert body["result"]["answers"] is not None
        finally:
            restarted.stop()

    def test_restart_ignores_a_stale_checkpoint_file(self, tmp_path):
        """A store written by an older release may hold a round checkpoint
        beside a session's journal.  Restart recovers from the journal
        alone: the stale file is never read, even when it is garbage."""
        handle = ServerHandle(_settings(tmp_path))
        data_dir = handle.settings.data_dir
        try:
            _make_dataset(handle, "d1", n=40, seed=3)
        finally:
            handle.stop()
        store = ServiceStore(data_dir)
        config = {"budget": 12, "latency": 4, "seed": 5, "alpha": 0.1,
                  "worker_accuracy": 0.7, "strict_integrity": True}
        full = tmp_path / "full.journal.jsonl"
        baseline = BayesCrowd(
            store.load_dataset("d1"), BayesCrowdConfig(**config)
        ).run(journal_path=full)
        # The durable state of a server killed mid-way through round 2.
        records = read_journal(full)
        first_commit = next(r.seq for r in records if r.kind == "round_commit")
        cut = next(
            r.seq for r in records if r.seq > first_commit and r.kind == "answer"
        )
        with AnswerJournal(store.session_file("s1", "journal.jsonl"), fsync=False) as journal:
            for record in records[:cut]:
                journal.append(record.kind, record.payload)
        store.create_session(
            "s1",
            {"dataset_id": "d1", "platform": "simulated", "config": config,
             "state": "RUNNING"},
        )
        store.session_file("s1", "checkpoint.json").write_bytes(b"\x00{not json")

        restarted = ServerHandle(_settings(tmp_path))
        try:
            view = restarted.wait_state("s1", ("DONE", "DEGRADED", "FAILED"))
            assert view["state"] == "DONE", view
            result = restarted.server.app.supervisor.get("s1").result
        finally:
            restarted.stop()
        assert result.resumed
        assert result.metrics["counters"]["recovered_rounds"] == 1
        assert observables(result) == observables(baseline)

    def test_draining_server_rejects_with_503(self, tmp_path):
        handle = ServerHandle(_settings(tmp_path))
        try:
            _make_dataset(handle, "d1", n=40)
            handle.server.app.begin_drain("test")
            status, _, headers, _ = handle.request("GET", "/readyz")
            assert status == 503 and "Retry-After" in headers
            status, _, _, _ = handle.request(
                "POST", "/v1/datasets", {"kind": "synthetic", "dataset_id": "d2"}
            )
            assert status == 503
            status, _, _, _ = handle.request(
                "POST", "/v1/sessions", {"dataset_id": "d1"}
            )
            assert status == 503
            # liveness stays green while draining (k8s semantics)
            status, body, _, _ = handle.request("GET", "/healthz")
            assert status == 200 and body["draining"] is True
        finally:
            handle.stop()

    def test_stored_session_with_removed_backend_fails_alone(self, tmp_path):
        """A persisted config the server can no longer build (here a
        removed probability-backend or process-pool knob, or the removed
        ``numpy`` dominator method) marks that one session FAILED at restart; the
        server still starts and recovers its siblings."""
        handle = ServerHandle(_settings(tmp_path))
        data_dir = handle.settings.data_dir
        try:
            _make_dataset(handle, "d1", n=40)
        finally:
            handle.stop()
        store = ServiceStore(data_dir)
        for session_id, config in (
            ("bad", {"budget": 4, "latency": 2, "probability_backend": "compiled"}),
            ("bad-budget", {"budget": 4, "latency": 2, "compile_node_budget": 8}),
            ("bad-cache", {"budget": 4, "latency": 2, "circuit_cache_size": 0}),
            ("bad-jobs", {"budget": 4, "latency": 2, "n_jobs": 2}),
            ("bad-prune", {"budget": 4, "latency": 2, "ctable_prune": "off"}),
            ("bad-dominator", {"budget": 4, "latency": 2, "dominator_method": "numpy"}),
            ("good", {"budget": 4, "latency": 2, "seed": 3}),
        ):
            store.create_session(
                session_id,
                {"dataset_id": "d1", "platform": "simulated", "config": config},
            )

        restarted = ServerHandle(_settings(tmp_path))
        try:
            status, _, _, _ = restarted.request("GET", "/healthz")
            assert status == 200
            view = restarted.wait_state("good", ("DONE", "DEGRADED"))
            assert view["state"] == "DONE"
            for session_id, removed in (
                ("bad", "probability_backend"),
                ("bad-budget", "compile_node_budget"),
                ("bad-cache", "circuit_cache_size"),
                ("bad-jobs", "n_jobs"),
                ("bad-prune", "ctable_prune"),
                ("bad-dominator", "'numpy'"),
            ):
                meta = ServiceStore(data_dir).session_meta(session_id)
                assert meta["state"] == "FAILED"
                assert meta["error"].startswith("unrecoverable:")
                assert removed in meta["error"]
        finally:
            restarted.stop()
        remaining = {m["session_id"] for m in ServiceStore(data_dir).recoverable_sessions()}
        assert remaining == set()

    def test_cancel_is_terminal_and_not_recovered(self, tmp_path):
        handle = ServerHandle(_settings(tmp_path))
        data_dir = handle.settings.data_dir
        try:
            status, _, _, _ = handle.request("POST", "/v1/datasets", _QUEUED_DATASET)
            assert status == 201
            status, _, _, _ = handle.request(
                "POST",
                "/v1/sessions",
                {"dataset_id": "dq", "session_id": "sq", "platform": "queued",
                 "config": {"budget": 4, "latency": 1, "alpha": 1.0}},
            )
            assert status == 202
            handle.wait_state("sq", ("DONE", "DEGRADED", "FAILED"))
            status, _, _, _ = handle.request("POST", "/v1/sessions/sq/cancel")
            assert status == 200
        finally:
            handle.stop()
        assert ServiceStore(data_dir).recoverable_sessions() == []
