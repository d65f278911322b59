"""Chaos tests: SIGKILL the server mid-round, restart, bit-identity.

The service-level crash contract extends the engine's write-ahead
guarantee to the network layer: a server killed with SIGKILL at an
arbitrary instant -- two sessions mid-round, store writes in flight --
restarts over the same data directory, re-opens every interrupted
session from its journal, and finishes each with a QueryResult
**bit-identical** to an uninterrupted in-process run of the same
dataset/config/seed.

Also here: the batch CLI's SIGTERM path (cooperative cancellation ->
exit 3 -> resumable with ``--resume``), because both tests need real
subprocesses and real signals.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core import BayesCrowd, BayesCrowdConfig
from repro.persistence import load_dataset, result_to_dict
from repro.service.store import TERMINAL_STATES

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: the two concurrent sessions the chaos run hosts (distinct seeds ->
#: distinct task streams; both must recover independently).  The noisy
#: crowd + strict integrity keep the run in its round loop for seconds,
#: so the SIGKILL reliably lands mid-round with a journal in flight.
SESSIONS = {
    "chaos-a": {"budget": 100, "latency": 300, "seed": 11,
                "worker_accuracy": 0.7, "strict_integrity": True, "alpha": 0.1},
    "chaos-b": {"budget": 80, "latency": 300, "seed": 23,
                "worker_accuracy": 0.75, "strict_integrity": True, "alpha": 0.1},
}
DATASET = {"kind": "synthetic", "dataset_id": "chaos", "n": 100,
           "missing_rate": 0.4, "seed": 11}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


class ServerProcess:
    """A real ``repro serve`` subprocess with stdout capture."""

    def __init__(self, data_dir, extra_args=()):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--data-dir", str(data_dir), *extra_args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_env(),
        )
        self.lines = []
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        self.port = self._await_port()

    def _pump(self):
        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))

    def _await_port(self, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in list(self.lines):
                if "listening on http://" in line:
                    return int(line.rsplit(":", 1)[1].split()[0])
            if self.proc.poll() is not None:
                raise RuntimeError(
                    "server died at startup:\n" + "\n".join(self.lines)
                )
            time.sleep(0.02)
        raise RuntimeError("server never announced its port")

    # ------------------------------------------------------------------
    def request(self, method, path, payload=None, timeout=60):
        url = "http://127.0.0.1:%d%s" % (self.port, path)
        data = json.dumps(payload).encode() if payload is not None else None
        request = urllib.request.Request(url, data=data, method=method)
        if data is not None:
            request.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, json.loads(response.read() or b"null")
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read() or b"null")

    def request_text(self, path, timeout=60):
        url = "http://127.0.0.1:%d%s" % (self.port, path)
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.read().decode()

    def sigkill(self):
        self.proc.kill()
        self.proc.wait(timeout=60)

    def terminate(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=60)


def _norm_result_dict(data):
    """The crash-invariant observables of a result_to_dict payload."""
    out = {
        key: value
        for key, value in data.items()
        if key not in ("seconds", "modeling_seconds", "resumed")
    }
    out["history"] = [
        {k: v for k, v in entry.items() if k != "seconds"}
        for entry in data.get("history", [])
    ]
    return json.loads(json.dumps(out, sort_keys=True))


@pytest.mark.slow
class TestServerSigkillRecovery:
    def test_two_sessions_survive_sigkill_bit_identically(self, tmp_path):
        data_dir = tmp_path / "store"
        server = ServerProcess(data_dir)
        try:
            status, _ = server.request("POST", "/v1/datasets", DATASET)
            assert status == 201
            for session_id, config in SESSIONS.items():
                status, _ = server.request(
                    "POST", "/v1/sessions",
                    {"dataset_id": "chaos", "session_id": session_id,
                     "config": config},
                )
                assert status == 202
            # Let both sessions get well into their rounds, then yank
            # the power cord.  No drain, no flush, no goodbye.
            time.sleep(1.2)
        finally:
            server.sigkill()

        # The kill really interrupted them (otherwise this test proves
        # nothing): their durable state must be non-terminal.
        interrupted = []
        for session_id in SESSIONS:
            meta = json.loads(
                (data_dir / "sessions" / ("%s.meta.json" % session_id)).read_text()
            )
            interrupted.append(meta["state"] not in TERMINAL_STATES)
        assert any(interrupted), "server finished before the SIGKILL landed"

        # Restart over the same store: recovery re-opens both sessions
        # and runs them to completion.
        server = ServerProcess(data_dir)
        try:
            results = {}
            deadline = time.monotonic() + 300
            for session_id in SESSIONS:
                while True:
                    status, view = server.request(
                        "GET", "/v1/sessions/%s" % session_id
                    )
                    assert status == 200
                    if view["state"] in ("DONE", "DEGRADED"):
                        break
                    assert view["state"] != "FAILED", view
                    assert time.monotonic() < deadline, "recovery stalled"
                    time.sleep(0.1)
                status, body = server.request(
                    "GET", "/v1/sessions/%s/result" % session_id
                )
                assert status == 200
                results[session_id] = body["result"]
            metrics = server.request_text("/metrics")
            assert "service_sessions_recovered" in metrics
        finally:
            server.terminate()

        # Bit-identity: an uninterrupted in-process run of the *stored*
        # dataset with the same config must match every observable.
        dataset = load_dataset(data_dir / "datasets" / "chaos.npz")
        for session_id, config in SESSIONS.items():
            baseline = BayesCrowd(dataset, BayesCrowdConfig(**config)).run()
            assert _norm_result_dict(results[session_id]) == _norm_result_dict(
                result_to_dict(baseline)
            ), "session %s diverged after crash recovery" % session_id


@pytest.mark.slow
class TestCliSignals:
    CLI = ["--dataset", "synthetic", "--n", "100", "--missing-rate", "0.4",
           "--budget", "100", "--latency", "300", "--alpha", "0.1",
           "--worker-accuracy", "0.7", "--strict-integrity", "--seed", "11"]

    def _run(self, args, send_signal=None, journal=None, timeout=300):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=_env(),
        )
        if send_signal is not None:
            # Wait for the pre-run banner (printed once handlers are
            # armed), then for the journal to record real progress --
            # the "open" record plus at least one round/answer -- so
            # the signal provably lands mid-query with resumable state
            # on disk, however slowly the preprocessing ran.
            line = proc.stdout.readline()
            assert line.startswith("dataset "), line
            deadline = time.monotonic() + 120
            while True:
                try:
                    with open(journal) as handle:
                        if sum(1 for _ in handle) >= 2:
                            break
                except OSError:
                    pass
                assert proc.poll() is None, "run finished before the signal"
                assert time.monotonic() < deadline, "journal never progressed"
                time.sleep(0.02)
            proc.send_signal(send_signal)
        out, err = proc.communicate(timeout=timeout)
        return proc.returncode, out, err

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_signal_exits_3_and_resumes(self, tmp_path, signum):
        journal = str(tmp_path / "run.journal.jsonl")
        args = self.CLI + ["--journal", journal]

        code, out, err = self._run(args, send_signal=signum, journal=journal)
        assert code == 3, (code, out, err)
        assert "re-run with --resume" in err
        assert os.path.exists(journal), "no resumable state left behind"

        # The parked run resumes to completion...
        code, out, err = self._run(args + ["--resume"])
        assert code == 0, (code, out, err)
        assert "resumed from" in out
        resumed_tail = [
            line for line in out.splitlines()
            if line.startswith(("machine-only", "answers:"))
        ]

        # ...and lands exactly where an uninterrupted run lands.
        code, out, err = self._run(self.CLI)
        assert code == 0
        straight_tail = [
            line for line in out.splitlines()
            if line.startswith(("machine-only", "answers:"))
        ]
        assert resumed_tail == straight_tail
