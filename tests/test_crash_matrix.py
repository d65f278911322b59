"""Crash-injection matrix: SIGKILL on journal-append boundaries.

The write-ahead contract says a crash at *any* instant loses nothing
that was journaled: recovery (journal alone, or checkpoint + journal
suffix) replays to the state the crashed process held, and the resumed
run finishes with a QueryResult bit-identical to an uninterrupted one.

These tests spawn a child process whose journal delivers ``SIGKILL`` to
itself after the N-th append (the ``journal_crash_after`` test hook),
then resume in this process and compare every observable field.  The
full boundary sweep ran offline; here a representative sample keeps the
suite fast -- the first appends (open/round_begin), answers inside early
and late rounds, and the final commit.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys

import pytest

from hypothesis import given, settings, strategies as st

from repro import BayesCrowd, BayesCrowdConfig, generate_nba
from repro.obs.__main__ import verify_trace
from repro.session import journal_problems, read_journal

#: Child: run the quarantine/re-ask exercising query until the journal
#: SIGKILLs the process on the requested append boundary.
_CHILD = r'''
import sys
from repro.core import BayesCrowd, BayesCrowdConfig
from repro.datasets import generate_nba

jp, cp, crash_after = sys.argv[1], sys.argv[2], int(sys.argv[3])
dataset = generate_nba(n_objects=20, missing_rate=0.4, seed=3)
config = BayesCrowdConfig(budget=12, latency=4, worker_accuracy=0.7,
                          alpha=0.1, seed=5, strict_integrity=True)
BayesCrowd(dataset, config).run(journal_path=jp, checkpoint_path=cp or None,
                                journal_crash_after=crash_after)
print("NO_CRASH")
'''


def _dataset():
    return generate_nba(n_objects=20, missing_rate=0.4, seed=3)


def _config():
    return BayesCrowdConfig(
        budget=12, latency=4, worker_accuracy=0.7, alpha=0.1, seed=5,
        strict_integrity=True,
    )


def _norm(result):
    """Every crash-invariant observable of a QueryResult.

    Wall-clock (``seconds``), the ``resumed`` flag and engine/journal
    telemetry legitimately differ between a straight-through run and a
    recovered one; everything else must match exactly.
    """
    return dict(
        answers=result.answers,
        certain=result.certain_answers,
        rounds=result.rounds,
        tasks_posted=result.tasks_posted,
        tasks_answered=result.tasks_answered,
        history=[
            (h.round_index, h.tasks_posted, h.tasks_answered, h.newly_decided,
             h.open_conditions, h.retries, h.faults)
            for h in result.history
        ],
        probs=result.answer_probabilities,
        degraded=result.degraded,
        faults=result.fault_counts,
        integrity=result.integrity,
        reliability=result.worker_reliability,
    )


def _crash_child(journal_path, checkpoint_path, crash_after):
    """Run the child to its injected SIGKILL; returns its returncode."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD,
         str(journal_path), str(checkpoint_path or ""), str(crash_after)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    return proc


@pytest.fixture(scope="module")
def baseline():
    """The uninterrupted run plus its total journal-append count."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        journal = os.path.join(tmp, "base.journal.jsonl")
        result = BayesCrowd(_dataset(), _config()).run(journal_path=journal)
        records = read_journal(journal)
    return _norm(result), result, records


class TestCrashMatrix:
    # Boundaries chosen to land on the open header, a round_begin, early
    # and late answers, and commits; clamped to the journal's length so
    # a behavior shift in the config cannot index past the end.
    @pytest.mark.parametrize("boundary", [1, 2, 3, 8, 13, 18, 10**9])
    def test_journal_only_recovery_is_bit_identical(
        self, tmp_path, baseline, boundary
    ):
        base_norm, _, records = baseline
        crash_after = min(boundary, len(records))
        journal = tmp_path / "run.journal.jsonl"
        proc = _crash_child(journal, None, crash_after)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert "NO_CRASH" not in proc.stdout

        resumed = BayesCrowd(_dataset(), _config()).run(
            journal_path=journal, resume=True
        )
        # An open-header-only journal (boundary 1) recovers to a fresh
        # run; any later boundary must report the resumption.
        assert resumed.resumed or crash_after == 1
        assert _norm(resumed) == base_norm

    @pytest.mark.parametrize("boundary", [2, 13, 10**9])
    def test_checkpoint_plus_journal_recovery_is_bit_identical(
        self, tmp_path, baseline, boundary
    ):
        base_norm, _, records = baseline
        crash_after = min(boundary, len(records))
        journal = tmp_path / "run.journal.jsonl"
        checkpoint = tmp_path / "run.ckpt.json"
        proc = _crash_child(journal, checkpoint, crash_after)
        assert proc.returncode == -signal.SIGKILL, proc.stderr

        resumed = BayesCrowd(_dataset(), _config()).run(
            journal_path=journal, checkpoint_path=checkpoint, resume=True
        )
        assert resumed.resumed
        assert _norm(resumed) == base_norm

    def test_recovered_journal_still_verifies(self, tmp_path, baseline):
        """After recovery the on-disk journal passes the obs validator."""
        base_norm, _, records = baseline
        journal = tmp_path / "run.journal.jsonl"
        crash_after = min(8, len(records))
        proc = _crash_child(journal, None, crash_after)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        resumed = BayesCrowd(_dataset(), _config()).run(
            journal_path=journal, resume=True
        )
        assert _norm(resumed) == base_norm
        assert journal_problems(journal) == []

    def test_resumed_run_trace_is_a_whole_tree(self, tmp_path, baseline):
        """A run resumed mid-round traces the recovered round once, plus
        every later round, under a span tree the obs verifier accepts."""
        base_norm, _, records = baseline
        first_commit = next(r.seq for r in records if r.kind == "round_commit")
        crash_after = next(
            r.seq for r in records if r.seq > first_commit and r.kind == "answer"
        )
        journal = tmp_path / "run.journal.jsonl"
        proc = _crash_child(journal, None, crash_after)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        trace = tmp_path / "trace.jsonl"
        config = dataclasses.replace(_config(), trace_path=trace)
        resumed = BayesCrowd(_dataset(), config).run(journal_path=journal, resume=True)
        assert resumed.metrics["counters"]["recovered_rounds"] == 1
        assert _norm(resumed) == base_norm
        assert verify_trace(str(trace)) == []
        rounds = [s["name"] for s in resumed.trace if s["phase"] == "round"]
        assert rounds == ["round[%d]" % i for i in range(2, resumed.rounds + 1)]


class TestMidRoundCheckpointDedupe:
    """Satellite regression: journal replay is idempotent per task id --
    a record the ledger already holds is deduped, applied once and
    charged once, even when checkpoint and journal coverage overlap."""

    @pytest.fixture()
    def crashed_mid_round(self, tmp_path, baseline):
        """Crash on the first *answer* append after the first committed
        round: the checkpoint then covers round 1, the journal suffix
        holds round 2's begin + one answer."""
        _, _, records = baseline
        first_commit = next(
            r.seq for r in records if r.kind == "round_commit"
        )
        crash_after = next(
            r.seq for r in records
            if r.seq > first_commit and r.kind == "answer"
        )
        journal = tmp_path / "run.journal.jsonl"
        checkpoint = tmp_path / "run.ckpt.json"
        proc = _crash_child(journal, checkpoint, crash_after)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert json.loads(checkpoint.read_text())["journal_seq"] == first_commit
        return journal, checkpoint

    def test_mid_round_checkpoint_resume_replays_the_suffix(
        self, baseline, crashed_mid_round
    ):
        base_norm, base_result, _ = baseline
        journal, checkpoint = crashed_mid_round
        resumed = BayesCrowd(_dataset(), _config()).run(
            journal_path=journal, checkpoint_path=checkpoint, resume=True
        )
        counters = resumed.metrics["counters"]
        # The suffix answer was folded in from the journal (charged by
        # replay, not re-posted) and the cut round was finished in place.
        assert counters["journal_replayed_answers"] >= 1
        assert counters["recovered_rounds"] == 1
        assert resumed.tasks_posted == base_result.tasks_posted
        assert _norm(resumed) == base_norm

    def test_overlapping_replay_is_deduped_by_task_id(
        self, baseline, crashed_mid_round
    ):
        """Rewind the checkpoint's journal_seq to the open header: replay
        then re-delivers round 1's answers, which the checkpoint's ledger
        already holds.  Dedupe must skip them (no double apply, no double
        budget charge) and still land on the uninterrupted result."""
        base_norm, base_result, _ = baseline
        journal, checkpoint = crashed_mid_round
        data = json.loads(checkpoint.read_text())
        data["journal_seq"] = 1
        checkpoint.write_text(json.dumps(data))

        resumed = BayesCrowd(_dataset(), _config()).run(
            journal_path=journal, checkpoint_path=checkpoint, resume=True
        )
        counters = resumed.metrics["counters"]
        assert counters["journal_deduped_answers"] >= 1
        assert resumed.tasks_posted == base_result.tasks_posted
        assert _norm(resumed) == base_norm


class TestJournalPrefixProperty:
    """Property: for ANY durable journal prefix, recovery reproduces the
    uninterrupted result.  Equivalent to the SIGKILL matrix (a crash
    after append N leaves exactly the first N records durable) but runs
    in-process, so hypothesis can sweep many boundaries cheaply."""

    @pytest.fixture(scope="class")
    def fast_baseline(self, tmp_path_factory):
        dataset = generate_nba(n_objects=16, missing_rate=0.4, seed=2)
        config = BayesCrowdConfig(
            budget=10, latency=4, worker_accuracy=0.9, alpha=0.1, seed=2
        )
        journal = tmp_path_factory.mktemp("prefix") / "full.journal.jsonl"
        result = BayesCrowd(dataset, config).run(journal_path=journal)
        lines = journal.read_text().splitlines()
        return dataset, config, _norm(result), lines

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_any_prefix_recovers_the_full_result(
        self, fast_baseline, tmp_path_factory, data
    ):
        dataset, config, base_norm, lines = fast_baseline
        prefix_len = data.draw(
            st.integers(min_value=1, max_value=len(lines)), label="prefix"
        )
        torn_tail = data.draw(st.booleans(), label="torn_tail")
        journal = tmp_path_factory.mktemp("case") / "run.journal.jsonl"
        text = "\n".join(lines[:prefix_len]) + "\n"
        if torn_tail:
            text += '{"seq": %d, "kind": "answer", "payl' % (prefix_len + 1)
        journal.write_text(text)

        resumed = BayesCrowd(dataset, config).run(
            journal_path=journal, resume=True
        )
        assert _norm(resumed) == base_norm
