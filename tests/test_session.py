"""Tests for the session runtime: journal, context, supervisor.

Covers the durable write-ahead answer journal (round trip, torn tail,
corruption detection), per-session RNG streams and task-id allocation,
cooperative cancellation, the supervised state machine with bounded
restart/backoff, answer-queue backpressure, and the re-entrancy
regression: two concurrent sessions with the same seed each reproduce
the solo run exactly.
"""

import dataclasses
import json
import threading

import numpy as np
import pytest

from repro import BayesCrowd, BayesCrowdConfig, generate_nba
from repro.crowd import SimulatedCrowdPlatform
from repro.ctable import Relation, var_greater_const, var_greater_var
from repro.errors import (
    BackpressureError,
    JournalCorruptError,
    JournalError,
    SessionCancelledError,
)
from repro.session import (
    AnswerJournal,
    BoundedAnswerQueue,
    CancellationToken,
    QueuedAnswerPlatform,
    SessionContext,
    SessionSupervisor,
    TaskIdAllocator,
    journal_problems,
    read_journal,
)
from repro.session.context import current_session, session_rng


# ---------------------------------------------------------------------------
# journal
# ---------------------------------------------------------------------------
class TestAnswerJournal:
    def test_append_read_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with AnswerJournal(path, fsync=False) as journal:
            assert journal.append("open", {"version": 1}) == 1
            assert journal.append("round_begin", {"round": 1}) == 2
            assert journal.append("answer", {"task_id": 7}) == 3
            assert journal.last_seq == 3
        records = read_journal(path)
        assert [(r.seq, r.kind) for r in records] == [
            (1, "open"), (2, "round_begin"), (3, "answer"),
        ]
        assert records[2].payload == {"task_id": 7}

    def test_unknown_kind_rejected(self, tmp_path):
        with AnswerJournal(tmp_path / "j.jsonl", fsync=False) as journal:
            with pytest.raises(JournalError):
                journal.append("not-a-kind", {})

    def test_append_after_close_rejected(self, tmp_path):
        journal = AnswerJournal(tmp_path / "j.jsonl", fsync=False)
        journal.close()
        with pytest.raises(JournalError):
            journal.append("open", {})

    def test_reopen_resumes_sequence(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with AnswerJournal(path, fsync=False) as journal:
            journal.append("open", {})
            journal.append("round_begin", {"round": 1})
        with AnswerJournal(path, fsync=False) as journal:
            assert journal.last_seq == 2
            assert journal.append("answer", {"task_id": 1}) == 3
        assert [r.seq for r in read_journal(path)] == [1, 2, 3]

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with AnswerJournal(path, fsync=False) as journal:
            journal.append("open", {})
            journal.append("answer", {"task_id": 1})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "kind": "answer", "pay')  # cut mid-write
        records = read_journal(path)
        assert [r.seq for r in records] == [1, 2]

    def test_reopen_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with AnswerJournal(path, fsync=False) as journal:
            journal.append("open", {})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn": tr')
        with AnswerJournal(path, fsync=False) as journal:
            assert journal.last_seq == 1
            journal.append("answer", {"task_id": 1})
        # The torn bytes are gone and the file parses end to end.
        assert [r.seq for r in read_journal(path)] == [1, 2]

    def test_bit_rot_before_tail_is_corruption(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with AnswerJournal(path, fsync=False) as journal:
            journal.append("open", {})
            journal.append("answer", {"task_id": 1})
            journal.append("round_commit", {"round": 1})
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"task_id": 1', '"task_id": 2').replace(
            '"task_id":1', '"task_id":2'
        )
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptError):
            read_journal(path)

    def test_sequence_gap_is_corruption(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with AnswerJournal(path, fsync=False) as journal:
            journal.append("open", {})
            journal.append("answer", {"task_id": 1})
            journal.append("round_commit", {"round": 1})
        lines = path.read_text().splitlines()
        del lines[1]  # lose the middle record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptError):
            read_journal(path)

    def test_corrupt_tail_checksum_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with AnswerJournal(path, fsync=False) as journal:
            journal.append("open", {})
            journal.append("answer", {"task_id": 1})
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].replace('"task_id":1', '"task_id":9')
        path.write_text("\n".join(lines) + "\n")
        assert [r.seq for r in read_journal(path)] == [1]

    def test_stats(self, tmp_path):
        with AnswerJournal(tmp_path / "j.jsonl", fsync=False) as journal:
            journal.append("open", {})
            assert journal.stats() == {
                "journal_appends": 1,
                "journal_last_seq": 1,
            }


class TestJournalProblems:
    def _write(self, path, records):
        with AnswerJournal(path, fsync=False) as journal:
            for kind, payload in records:
                journal.append(kind, payload)

    def test_consistent_journal_has_no_problems(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._write(path, [
            ("open", {"version": 1}),
            ("round_begin", {"round": 1}),
            ("answer", {"task_id": 1}),
            ("reask", {"task_id": 2, "of_task": 1}),
            ("round_commit", {"round": 1}),
        ])
        assert journal_problems(path) == []

    def test_empty_journal_flagged(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("")
        assert journal_problems(path) == ["journal is empty"]

    def test_missing_open_header_flagged(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._write(path, [("round_begin", {"round": 1}),
                           ("round_commit", {"round": 1})])
        assert any("expected 'open'" in p for p in journal_problems(path))

    def test_answer_outside_round_flagged(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._write(path, [("open", {}), ("answer", {"task_id": 1})])
        assert any("outside any round" in p for p in journal_problems(path))

    def test_double_answered_task_flagged(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._write(path, [
            ("open", {}),
            ("round_begin", {"round": 1}),
            ("answer", {"task_id": 5}),
            ("answer", {"task_id": 5}),
        ])
        assert any("answered twice" in p for p in journal_problems(path))

    def test_out_of_order_round_flagged(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._write(path, [("open", {}), ("round_begin", {"round": 3})])
        assert any("out of order" in p for p in journal_problems(path))

    def test_corrupt_journal_is_one_problem(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("not json at all\nnor this\n")
        problems = journal_problems(path)
        assert len(problems) == 1 and "unparseable" in problems[0]


# ---------------------------------------------------------------------------
# context: task ids + RNG streams
# ---------------------------------------------------------------------------
class TestTaskIdAllocator:
    def test_allocation_is_monotonic_from_one(self):
        allocator = TaskIdAllocator()
        assert [allocator.allocate() for _ in range(3)] == [1, 2, 3]
        assert allocator.next_id == 4

    def test_reserve_never_moves_backwards(self):
        allocator = TaskIdAllocator()
        allocator.reserve(10)
        assert allocator.allocate() == 11
        allocator.reserve(5)  # already used; no rewind
        assert allocator.allocate() == 12

    def test_state_dict_round_trip(self):
        allocator = TaskIdAllocator()
        allocator.allocate()
        allocator.allocate()
        restored = TaskIdAllocator()
        restored.load_state_dict(json.loads(json.dumps(allocator.state_dict())))
        assert restored.allocate() == 3

    def test_ids_start_at_one(self):
        with pytest.raises(ValueError):
            TaskIdAllocator(next_id=0)


class TestSessionContext:
    def test_named_streams_are_cached_and_deterministic(self):
        first = SessionContext(seed=7)
        second = SessionContext(seed=7)
        assert first.rng("vote") is first.rng("vote")
        assert (
            first.rng("vote").integers(0, 1 << 30, 8).tolist()
            == second.rng("vote").integers(0, 1 << 30, 8).tolist()
        )

    def test_distinct_names_give_distinct_streams(self):
        context = SessionContext(seed=7)
        a = context.rng("vote").integers(0, 1 << 30, 8).tolist()
        b = context.rng("jitter").integers(0, 1 << 30, 8).tolist()
        assert a != b

    def test_state_dict_restores_stream_position(self):
        context = SessionContext(seed=3)
        context.rng("vote").integers(0, 1 << 30, 5)
        state = json.loads(json.dumps(context.state_dict(), default=int))
        expected = context.rng("vote").integers(0, 1 << 30, 5).tolist()

        restored = SessionContext(seed=3)
        restored.load_state_dict(state)
        assert restored.rng("vote").integers(0, 1 << 30, 5).tolist() == expected

    def test_activate_sets_ambient_session(self):
        context = SessionContext(seed=1, session_id="s1")
        assert current_session() is None
        assert session_rng("vote") is None
        with context.activate():
            assert current_session() is context
            assert session_rng("vote") is context.rng("vote")
        assert current_session() is None

    def test_nested_activation_restores_outer(self):
        outer = SessionContext(seed=1, session_id="outer")
        inner = SessionContext(seed=2, session_id="inner")
        with outer.activate():
            with inner.activate():
                assert current_session() is inner
            assert current_session() is outer

    def test_activation_is_thread_local(self):
        context = SessionContext(seed=1, session_id="main-thread")
        seen = []

        def _probe():
            seen.append(current_session())

        with context.activate():
            thread = threading.Thread(target=_probe)
            thread.start()
            thread.join()
        assert seen == [None]


class TestCancellationToken:
    def test_cancel_trips_check(self):
        token = CancellationToken()
        token.check("preprocess")  # not cancelled: no raise
        token.cancel("operator stop")
        with pytest.raises(SessionCancelledError) as err:
            token.check("selection")
        assert "operator stop" in str(err.value)

    def test_deadline_trips_token(self):
        token = CancellationToken(deadline_s=1e-9)
        assert token.cancelled
        with pytest.raises(SessionCancelledError):
            token.check("ctable")
        assert token.reason == "deadline exceeded"

    def test_set_deadline_only_tightens(self):
        token = CancellationToken(deadline_s=0.001)
        token.set_deadline(3600.0)  # looser: ignored
        assert token.remaining() < 1.0

    def test_remaining_is_clamped_at_zero(self):
        token = CancellationToken(deadline_s=1e-9)
        assert token.remaining() == 0.0

    def test_remaining_none_without_deadline(self):
        assert CancellationToken().remaining() is None

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ValueError):
            CancellationToken().set_deadline(0.0)


# ---------------------------------------------------------------------------
# backpressure
# ---------------------------------------------------------------------------
class TestBoundedAnswerQueue:
    def _expr(self, row):
        return var_greater_const(row, 1, 2)

    def test_put_take_round_trip(self):
        queue = BoundedAnswerQueue(maxsize=4)
        queue.put(self._expr(0), Relation.GREATER)
        assert queue.take_for(self._expr(0)) is Relation.GREATER
        assert queue.take_for(self._expr(0)) is None
        assert len(queue) == 0

    def test_reject_policy_raises_when_full(self):
        queue = BoundedAnswerQueue(maxsize=1, policy="reject")
        queue.put(self._expr(0), Relation.GREATER)
        with pytest.raises(BackpressureError):
            queue.put(self._expr(1), Relation.LESS)
        assert queue.rejected == 1
        assert queue.take_for(self._expr(0)) is Relation.GREATER

    def test_shed_oldest_policy_drops_head(self):
        queue = BoundedAnswerQueue(maxsize=1, policy="shed-oldest")
        queue.put(self._expr(0), Relation.GREATER)
        queue.put(self._expr(1), Relation.LESS)
        assert queue.shed == 1
        assert queue.take_for(self._expr(0)) is None
        assert queue.take_for(self._expr(1)) is Relation.LESS

    def test_stats_counters(self):
        queue = BoundedAnswerQueue(maxsize=2)
        queue.put(self._expr(0), Relation.GREATER)
        assert queue.stats() == {
            "queue_depth": 1,
            "queue_accepted": 1,
            "queue_shed": 0,
            "queue_rejected": 0,
        }

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            BoundedAnswerQueue(maxsize=0)
        with pytest.raises(ValueError):
            BoundedAnswerQueue(policy="drop-newest")


class TestQueuedAnswerPlatform:
    def test_queue_answers_win_and_rest_fall_through(self, nba_small):
        from repro.crowd.task import ComparisonTask

        queue = BoundedAnswerQueue(maxsize=4)
        fallback = SimulatedCrowdPlatform(
            nba_small, worker_accuracy=1.0, rng=np.random.default_rng(0)
        )
        platform = QueuedAnswerPlatform(queue, fallback=fallback)
        queued_expr = var_greater_var(0, 1, 0)
        queue.put(queued_expr, Relation.LESS)
        tasks = [
            ComparisonTask(expression=queued_expr, for_object=1),
            ComparisonTask(expression=var_greater_var(0, 2, 0), for_object=2),
        ]
        answers = platform.post_batch(tasks)
        assert answers[tasks[0]] is Relation.LESS  # served from the queue
        assert platform.answered_from_queue == 1
        assert tasks[1] in answers  # served by the fallback platform

    def test_without_fallback_batch_is_partial(self):
        from repro.crowd.task import ComparisonTask

        queue = BoundedAnswerQueue(maxsize=4)
        platform = QueuedAnswerPlatform(queue)
        task = ComparisonTask(expression=var_greater_var(0, 1, 0), for_object=1)
        assert platform.post_batch([task]) == {}


# ---------------------------------------------------------------------------
# supervisor
# ---------------------------------------------------------------------------
class _FlakyPlatform:
    """Raises on the first ``fail_times`` batch posts, then delegates."""

    def __init__(self, inner, fail_times=1):
        self.inner = inner
        self.failures_left = fail_times

    def post_batch(self, tasks):
        if self.failures_left > 0:
            self.failures_left -= 1
            raise RuntimeError("injected platform outage")
        return self.inner.post_batch(tasks)

    def state_dict(self):
        return self.inner.state_dict()

    def load_state_dict(self, state):
        self.inner.load_state_dict(state)


def _dataset():
    return generate_nba(n_objects=16, missing_rate=0.4, seed=2)


def _config(**overrides):
    base = dict(
        budget=10, latency=4, worker_accuracy=0.9, alpha=0.1, seed=2
    )
    base.update(overrides)
    return BayesCrowdConfig(**base)


class TestSessionSupervisor:
    def test_run_completes_and_records_transitions(self, tmp_path):
        supervisor = SessionSupervisor(tmp_path)
        supervisor.create("q1", _dataset(), _config())
        result = supervisor.run("q1")
        assert result is not None
        assert supervisor.state("q1") == "DONE"
        session = supervisor.get("q1")
        assert session.transitions[0] == ("PENDING", "RUNNING", "started")
        assert session.transitions[-1][1] == "DONE"
        # The journal is the session's only durable run state.
        assert [p.name for p in tmp_path.iterdir()] == [session.journal_path.name]

    def test_finished_session_releases_its_dataset(self, tmp_path):
        supervisor = SessionSupervisor(tmp_path)
        supervisor.create("q1", _dataset(), _config())
        result = supervisor.run("q1")
        session = supervisor.get("q1")
        assert session.dataset is None and session.platform is None
        assert session.result is result

    def test_duplicate_and_unknown_sessions_rejected(self, tmp_path):
        supervisor = SessionSupervisor(tmp_path)
        supervisor.create("q1", _dataset(), _config())
        with pytest.raises(ValueError):
            supervisor.create("q1", _dataset(), _config())
        with pytest.raises(KeyError):
            supervisor.get("missing")

    def test_illegal_transition_rejected(self, tmp_path):
        supervisor = SessionSupervisor(tmp_path)
        supervisor.create("q1", _dataset(), _config())
        supervisor.run("q1")
        with pytest.raises(RuntimeError):
            supervisor.run("q1")  # DONE -> RUNNING is not a legal edge

    def test_deadline_pauses_then_resume_completes(self, tmp_path):
        supervisor = SessionSupervisor(tmp_path)
        config = _config(session_deadline_s=1e-6)
        session = supervisor.create("q1", _dataset(), config)
        assert supervisor.run("q1") is None  # deadline trips immediately
        assert supervisor.state("q1") == "PAUSED"
        assert isinstance(session.error, SessionCancelledError)

        session.config = dataclasses.replace(config, session_deadline_s=0.0)
        result = supervisor.run("q1", resume=True)
        assert result is not None
        assert supervisor.state("q1") == "DONE"
        solo = BayesCrowd(_dataset(), _config()).run()
        assert result.answers == solo.answers
        assert result.rounds == solo.rounds

    def test_crash_triggers_bounded_restart(self, tmp_path):
        dataset = _dataset()
        platform = _FlakyPlatform(
            SimulatedCrowdPlatform(
                dataset, worker_accuracy=0.9, rng=np.random.default_rng(2)
            ),
            fail_times=1,
        )
        supervisor = SessionSupervisor(
            tmp_path, max_restarts=2, restart_backoff_base=0.0
        )
        supervisor.create("q1", dataset, _config(), platform=platform)
        result = supervisor.run("q1")
        assert result is not None
        session = supervisor.get("q1")
        assert session.restarts == 1
        assert supervisor.state("q1") == "DONE"
        assert any("restart 1/2" in reason for _, _, reason in session.transitions)
        assert supervisor.stats()["q1"]["restarts"] == 1

    def test_restart_budget_exhaustion_fails_session(self, tmp_path):
        dataset = _dataset()
        platform = _FlakyPlatform(
            SimulatedCrowdPlatform(dataset, rng=np.random.default_rng(2)),
            fail_times=100,
        )
        supervisor = SessionSupervisor(
            tmp_path, max_restarts=1, restart_backoff_base=0.0
        )
        supervisor.create("q1", dataset, _config(), platform=platform)
        with pytest.raises(RuntimeError, match="injected platform outage"):
            supervisor.run("q1")
        assert supervisor.state("q1") == "FAILED"
        assert supervisor.get("q1").restarts == 2


class TestConcurrentSessions:
    """Satellite regression: same-seed sessions must not share RNG state."""

    def test_two_same_seed_sessions_match_the_solo_run(self, tmp_path):
        dataset = _dataset()
        solo = BayesCrowd(dataset, _config()).run()
        supervisor = SessionSupervisor(tmp_path)
        supervisor.create("a", dataset, _config())
        supervisor.create("b", dataset, _config())
        results = supervisor.run_all(parallel=True)
        assert set(results) == {"a", "b"}
        for result in results.values():
            assert result is not None
            assert result.answers == solo.answers
            assert result.certain_answers == solo.certain_answers
            assert result.rounds == solo.rounds
            assert result.tasks_posted == solo.tasks_posted
            assert result.answer_probabilities == solo.answer_probabilities
        assert supervisor.state("a") == supervisor.state("b")
