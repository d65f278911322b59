"""End-to-end resilience of the crowdsourcing loop.

Covers the fault-tolerance contract of :meth:`BayesCrowd.run`: retrying
transient platform errors, requeue-vs-refund handling of unanswered
tasks, graceful degradation on fatal errors, budget accounting under
partial answers, and journal resume -- including the chaos scenario
from the acceptance criteria (drops + spam + scheduled transient
failures + a mid-run kill).
"""

import pytest

from repro.core import BayesCrowd, BayesCrowdConfig
from repro.crowd import FaultModel, SimulatedCrowdPlatform, UnreliableCrowdPlatform
from repro.errors import (
    CheckpointError,
    PlatformFatalError,
    PlatformTransientError,
)
from repro.session import read_journal

from .recovery import observables


def chaos_config(**overrides):
    """The acceptance-criteria fault mix, with instant (jitter-only) backoff."""
    defaults = dict(
        budget=24,
        latency=6,
        strategy="hhs",
        max_retries=3,
        backoff_base=0.0,
        faults=FaultModel(drop_rate=0.3, spam_fraction=0.2, transient_every=2),
        seed=11,
    )
    defaults.update(overrides)
    return BayesCrowdConfig(**defaults)


class FlakyPlatform:
    """Raise a scripted error on chosen post attempts, else delegate."""

    def __init__(self, inner, errors):
        self.inner = inner
        self.errors = dict(errors)  # attempt number -> exception instance
        self.attempts = 0

    def post_batch(self, tasks):
        self.attempts += 1
        error = self.errors.get(self.attempts)
        if error is not None:
            raise error
        return self.inner.post_batch(tasks)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class WithholdingPlatform:
    """Answer every task except a deterministic subset (partial answers)."""

    def __init__(self, inner, withhold_every=3):
        self.inner = inner
        self.withheld_ids = []
        self.posted_ids = []
        self._withhold_every = withhold_every
        self._counter = 0

    def post_batch(self, tasks):
        answers = self.inner.post_batch(tasks)
        delivered = {}
        for task in tasks:
            self.posted_ids.append(task.task_id)
            self._counter += 1
            if self._counter % self._withhold_every == 0:
                self.withheld_ids.append(task.task_id)
                continue
            if task in answers:
                delivered[task] = answers[task]
        return delivered

    def __getattr__(self, name):
        return getattr(self.inner, name)


class KillSwitch:
    """Raise ``KeyboardInterrupt`` after N successful batch posts."""

    def __init__(self, inner, after):
        self.inner = inner
        self.after = after
        self.successes = 0

    def post_batch(self, tasks):
        if self.successes >= self.after:
            raise KeyboardInterrupt("simulated crash")
        answers = self.inner.post_batch(tasks)
        self.successes += 1
        return answers

    def state_dict(self):
        return self.inner.state_dict()

    def load_state_dict(self, state):
        self.inner.load_state_dict(state)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def assert_budget_accounting(result, config):
    """Budget is charged for answered tasks only, exactly."""
    assert result.tasks_answered == sum(r.tasks_answered for r in result.history)
    assert result.tasks_posted == sum(r.tasks_posted for r in result.history)
    assert result.tasks_answered <= config.budget
    for record in result.history:
        unanswered = record.faults.get("unanswered", 0)
        expired = record.faults.get("expired", 0)
        assert record.tasks_answered + unanswered + expired == record.tasks_posted


class TestTransientRetries:
    def test_single_transient_is_retried_and_recovers(self, nba_small):
        config = BayesCrowdConfig(
            budget=10, latency=3, max_retries=2, backoff_base=0.0, seed=0
        )
        baseline = BayesCrowd(nba_small, config).run()

        query = BayesCrowd(nba_small, config)
        query.platform = FlakyPlatform(
            query.platform, {1: PlatformTransientError("hiccup")}
        )
        result = query.run()
        assert result.history[0].retries == 1
        assert result.history[0].faults["transient_retries"] == 1
        assert not result.degraded
        assert result.answers == baseline.answers

    def test_retries_exhausted_fails_round_not_run(self, nba_small):
        config = BayesCrowdConfig(
            budget=10, latency=3, max_retries=1, backoff_base=0.0, seed=0
        )
        query = BayesCrowd(nba_small, config)
        always_down = {n: PlatformTransientError("down") for n in range(1, 50)}
        query.platform = FlakyPlatform(query.platform, always_down)
        result = query.run()  # must not raise
        assert result.degraded
        assert result.tasks_answered == 0
        assert result.fault_counts["failed_round"] == result.rounds
        assert result.rounds == config.latency  # latency still bounds the loop

    def test_fatal_error_degrades_gracefully(self, nba_small):
        config = BayesCrowdConfig(budget=10, latency=4, backoff_base=0.0, seed=0)
        query = BayesCrowd(nba_small, config)
        query.platform = FlakyPlatform(query.platform, {2: PlatformFatalError("gone")})
        result = query.run()  # must not raise
        assert result.degraded
        assert result.fault_counts["fatal"] == 1
        assert result.rounds >= 1  # round 1 succeeded before the outage
        assert result.history[0].tasks_answered > 0


class TestRequeuePolicies:
    def test_requeue_reposts_unanswered_tasks(self, nba_small):
        config = BayesCrowdConfig(
            budget=12, latency=4, requeue_policy="requeue", seed=1
        )
        query = BayesCrowd(nba_small, config)
        platform = WithholdingPlatform(query.platform)
        query.platform = platform
        result = query.run()
        assert result.degraded
        assert result.fault_counts["unanswered"] > 0
        reposted = [
            task_id
            for task_id in platform.withheld_ids
            if platform.posted_ids.count(task_id) > 1
        ]
        assert reposted, "requeue policy should post unanswered tasks again"

    def test_refund_abandons_unanswered_tasks(self, nba_small):
        config = BayesCrowdConfig(
            budget=12, latency=4, requeue_policy="refund", seed=1
        )
        query = BayesCrowd(nba_small, config)
        platform = WithholdingPlatform(query.platform)
        query.platform = platform
        result = query.run()
        assert result.degraded
        for task_id in platform.withheld_ids:
            assert platform.posted_ids.count(task_id) == 1
        assert_budget_accounting(result, config)


class TestChaosAcceptance:
    """The ISSUE acceptance scenario: drop 0.3, spam 0.2, transient every 2."""

    def test_chaos_run_completes_and_accounts_budget(self, nba_small):
        config = chaos_config()
        result = BayesCrowd(nba_small, config).run()  # must not raise
        assert result.degraded
        assert result.fault_counts  # aggregated fault totals present
        assert result.fault_counts.get("unanswered", 0) > 0
        assert result.fault_counts.get("transient_retries", 0) > 0
        assert any(r.faults for r in result.history)  # per-round accounting
        assert_budget_accounting(result, config)

    def test_chaos_run_is_reproducible(self, nba_small):
        first = BayesCrowd(nba_small, chaos_config()).run()
        second = BayesCrowd(nba_small, chaos_config()).run()
        assert first.answers == second.answers
        assert first.tasks_answered == second.tasks_answered
        assert first.fault_counts == second.fault_counts

    def test_kill_and_resume_matches_uninterrupted_run(self, nba_small, tmp_path):
        # Reference: one uninterrupted chaos run.
        reference = BayesCrowd(nba_small, chaos_config()).run()

        # Same query, killed after two successful rounds.
        journal = tmp_path / "chaos.journal.jsonl"
        killed = BayesCrowd(nba_small, chaos_config())
        killed.platform = KillSwitch(killed.platform, after=2)
        with pytest.raises(KeyboardInterrupt):
            killed.run(journal_path=journal)
        commits = [r for r in read_journal(journal) if r.kind == "round_commit"]
        # The kill lands after requeued tasks were carried into a commit.
        assert any(commit.payload["pending"] for commit in commits)

        # A fresh process resumes from the journal alone...
        resumed = BayesCrowd(nba_small, chaos_config()).run(
            journal_path=journal, resume=True
        )
        assert resumed.resumed
        # ...and converges to the same final state as the reference run.
        assert observables(resumed) == observables(reference)
        assert_budget_accounting(resumed, chaos_config())

    def test_resume_without_journal_file_starts_fresh(self, nba_small, tmp_path):
        config = chaos_config()
        result = BayesCrowd(nba_small, config).run(
            journal_path=tmp_path / "missing.journal.jsonl", resume=True
        )
        assert not result.resumed
        assert result.rounds > 0

    def test_journal_of_other_query_is_rejected(self, nba_small, tmp_path):
        journal = tmp_path / "other.journal.jsonl"
        BayesCrowd(nba_small, chaos_config(seed=11)).run(journal_path=journal)
        other = BayesCrowd(nba_small, chaos_config(seed=12))
        with pytest.raises(CheckpointError):
            other.run(journal_path=journal, resume=True)


class TestFrameworkWiring:
    def test_faults_config_wraps_platform(self, nba_small):
        config = BayesCrowdConfig(faults=FaultModel(drop_rate=0.5), seed=0)
        query = BayesCrowd(nba_small, config)
        assert isinstance(query.platform, UnreliableCrowdPlatform)
        assert isinstance(query.platform.inner, SimulatedCrowdPlatform)

    def test_quiet_fault_model_is_not_wrapped(self, nba_small):
        config = BayesCrowdConfig(faults=FaultModel(), seed=0)
        query = BayesCrowd(nba_small, config)
        assert isinstance(query.platform, SimulatedCrowdPlatform)

    def test_clean_run_reports_full_answers(self, nba_small):
        config = BayesCrowdConfig(budget=10, latency=3, seed=0)
        result = BayesCrowd(nba_small, config).run()
        assert not result.degraded
        assert result.fault_counts == {}
        assert result.tasks_answered == result.tasks_posted
