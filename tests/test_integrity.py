"""Tests for the answer-integrity ledger and contradiction detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BayesCrowd, BayesCrowdConfig
from repro.crowd import AnswerLedger, FaultModel, WorkerReliability, vote_shares
from repro.ctable import (
    Relation,
    var_greater_const,
    var_greater_var,
)
from repro.datasets import generate_nba
from repro.metrics.accuracy import accuracy_report
from repro.skyline.algorithms import skyline

G, E, L = Relation.GREATER, Relation.EQUAL, Relation.LESS


def fresh_ledger(n_objects=4, domain=6):
    return AnswerLedger(domain_sizes=[domain])


class TestConflictDetection:
    def test_direct_flip_is_flagged(self):
        ledger = fresh_ledger()
        ledger.observe(var_greater_var(0, 1, 0), G)
        assert ledger.check(var_greater_var(0, 1, 0), L) == "direct"

    def test_transitive_flip_is_flagged(self):
        ledger = fresh_ledger()
        ledger.observe(var_greater_var(0, 1, 0), G)  # a > b
        ledger.observe(var_greater_var(1, 2, 0), G)  # b > c
        # c > a flips the transitively implied a > c; resolve() already
        # decides the expression, so this surfaces as a direct conflict.
        assert ledger.check(var_greater_var(2, 0, 0), G) == "direct"

    def test_equality_closing_strict_chain_is_a_cycle(self):
        ledger = fresh_ledger()
        ledger.observe(var_greater_var(0, 1, 0), G)  # a > b
        ledger.observe(var_greater_var(1, 2, 0), G)  # b > c
        # "c equals a" cannot be resolved binarily (both truth values of
        # c > a are compatible with EQUAL being false) but closes a cycle
        # through the strict partial order a > b > c.
        assert ledger.check(var_greater_var(2, 0, 0), E) == "cycle"

    def test_equal_after_strict_order_is_flagged(self):
        # a < b accepted, then "a equals b": binary resolution agrees
        # (both falsify a > b) so only the order graph catches it.
        ledger = fresh_ledger()
        ledger.observe(var_greater_var(0, 1, 0), L)
        assert ledger.check(var_greater_var(0, 1, 0), E) == "cycle"

    def test_second_pin_empties_domain(self):
        ledger = fresh_ledger()
        ledger.observe(var_greater_const(0, 0, 2), E)  # pinned to 2
        reason = ledger.check(var_greater_const(0, 0, 3), E)
        assert reason == "empty-domain"

    def test_consistent_sequence_never_flagged(self):
        ledger = fresh_ledger()
        answers = [
            (var_greater_var(0, 1, 0), G),
            (var_greater_var(1, 2, 0), G),
            (var_greater_var(0, 2, 0), G),  # implied, consistent
            (var_greater_const(0, 0, 2), G),
        ]
        for expression, relation in answers:
            entry = ledger.observe(expression, relation)
            assert entry.status == "applied"
            assert entry.reason is None


class TestLedgerAccounting:
    def test_strict_quarantines_and_counts(self):
        ledger = fresh_ledger()
        ledger.observe(var_greater_var(0, 1, 0), G)
        entry = ledger.observe(var_greater_var(0, 1, 0), L, strict=True)
        assert entry.status == "quarantined"
        assert entry.reason == "direct"
        assert ledger.answers_aggregated == 2
        assert ledger.answers_applied == 1
        assert ledger.answers_quarantined == 1
        assert ledger.accounting_ok()
        assert [e.seq for e in ledger.quarantined()] == [1]

    def test_non_strict_applies_but_flags(self):
        ledger = fresh_ledger()
        ledger.observe(var_greater_var(0, 1, 0), G)
        entry = ledger.observe(var_greater_var(0, 1, 0), L, strict=False)
        assert entry.status == "applied"
        assert entry.reason == "direct"
        assert ledger.contradictions_detected == 1
        assert ledger.accounting_ok()

    def test_summary_keys_are_flat_ints(self):
        ledger = fresh_ledger()
        ledger.observe(var_greater_var(0, 1, 0), G)
        summary = ledger.summary()
        assert summary["answers_aggregated"] == 1
        assert summary["conflict_direct"] == 0
        assert all(isinstance(v, int) for v in summary.values())

    def test_reask_bookkeeping(self):
        ledger = fresh_ledger()
        expr = var_greater_var(0, 1, 0)
        assert ledger.reask_attempts(expr) == 0
        assert ledger.note_reask(expr) == 1
        assert ledger.note_reask(expr) == 2
        assert ledger.answers_reasked == 2

    def test_record_rejects_unknown_status(self):
        ledger = fresh_ledger()
        with pytest.raises(ValueError):
            ledger.record(var_greater_var(0, 1, 0), G, status="discarded")

    def test_needs_constraints_or_domains(self):
        with pytest.raises(ValueError):
            AnswerLedger()


class TestVoteShares:
    def test_shares_sum_to_one(self):
        shares = vote_shares([G, G, L])
        assert shares[G] == pytest.approx(2 / 3)
        assert shares[L] == pytest.approx(1 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            vote_shares([])


class TestWorkerReliability:
    def test_prior_mean_for_unseen_workers(self):
        tracker = WorkerReliability(prior=(4.0, 1.0))
        assert tracker.accuracy(99) == pytest.approx(0.8)
        assert tracker.prior_mean == pytest.approx(0.8)

    def test_agreement_raises_disagreement_lowers(self):
        tracker = WorkerReliability(prior=(4.0, 1.0))
        for __ in range(10):
            tracker.observe(1, True)
            tracker.observe(2, False)
        assert tracker.accuracy(1) > 0.9
        assert tracker.accuracy(2) < 0.3
        assert tracker.n_observations(1) == 10
        assert tracker.n_workers() == 2

    def test_observe_votes_against_accepted(self):
        tracker = WorkerReliability()
        tracker.observe_votes([(1, G), (2, L)], accepted=G)
        assert tracker.accuracy(1) > tracker.accuracy(2)

    def test_rejects_bad_prior(self):
        with pytest.raises(ValueError):
            WorkerReliability(prior=(0.0, 1.0))


# ----------------------------------------------------------------------
# property: truthful answers from a fixed assignment are never flagged
# ----------------------------------------------------------------------
class TestConsistencyProperty:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_answers_from_total_order_never_flagged(self, seed):
        """Answers read off one fixed value assignment per attribute form
        a consistent set; the detector must never flag any of them, in
        any arrival order."""
        rng = np.random.default_rng(seed)
        n_objects = int(rng.integers(3, 7))
        domain = int(rng.integers(2, 7))
        values = rng.integers(0, domain, size=n_objects)
        ledger = AnswerLedger(domain_sizes=[domain])

        pairs = [
            (a, b)
            for a in range(n_objects)
            for b in range(n_objects)
            if a != b
        ]
        rng.shuffle(pairs)
        for a, b in pairs:
            expression = var_greater_var(a, b, 0)
            if values[a] > values[b]:
                relation = Relation.GREATER
            elif values[a] < values[b]:
                relation = Relation.LESS
            else:
                relation = Relation.EQUAL
            entry = ledger.observe(expression, relation, strict=True)
            assert entry.reason is None, (
                "consistent answer flagged %r: %s %s with values %r"
                % (entry.reason, expression, relation, values.tolist())
            )
            assert entry.status == "applied"
        assert ledger.accounting_ok()
        assert ledger.answers_quarantined == 0


# ----------------------------------------------------------------------
# end-to-end: strict integrity under seeded spam workers
# ----------------------------------------------------------------------
class TestStrictIntegrityEndToEnd:
    @pytest.fixture(scope="class")
    def spam_runs(self):
        # Chosen so the machine-only phase leaves real uncertainty: this
        # configuration posts ~29 crowd tasks over 5 rounds.
        dataset = generate_nba(n_objects=30, missing_rate=0.4, seed=3)
        faults = FaultModel(spam_fraction=0.6)

        def run(**overrides):
            config = BayesCrowdConfig(
                budget=30,
                latency=5,
                worker_accuracy=0.95,
                alpha=0.1,
                seed=3,
                **overrides,
            )
            query = BayesCrowd(dataset, config)
            return query, query.run()

        clean_q, clean = run()
        spam_q, spam = run(faults=faults)
        strict_q, strict = run(faults=faults, strict_integrity=True)
        return {
            "dataset": dataset,
            "clean": clean,
            "spam": spam,
            "strict": strict,
            "strict_query": strict_q,
        }

    def test_applied_answers_always_consistent(self, spam_runs):
        """Strict mode must never fold a contradictory answer into the
        c-table: replaying exactly the applied entries through a fresh
        detector finds zero conflicts."""
        ledger = spam_runs["strict_query"].ledger
        assert ledger is not None and ledger.accounting_ok()
        replay = AnswerLedger(domain_sizes=spam_runs["dataset"].domain_sizes)
        for entry in ledger.applied():
            replayed = replay.observe(entry.expression, entry.relation, strict=True)
            assert replayed.status == "applied"
            assert replayed.reason is None
        assert replay.answers_quarantined == 0

    def test_spam_triggers_quarantine_or_stays_consistent(self, spam_runs):
        strict = spam_runs["strict"].integrity
        # With 60% spam either contradictions surfaced (and were
        # quarantined, never applied) or the spam happened to stay
        # consistent; in both cases nothing contradictory was applied.
        assert strict["answers_quarantined"] == strict["contradictions_detected"]

    def test_strict_f1_not_worse_than_trusting_spam(self, spam_runs):
        truth = skyline(spam_runs["dataset"].complete)
        f1_strict = accuracy_report(spam_runs["strict"].answers, truth).f1
        f1_spam = accuracy_report(spam_runs["spam"].answers, truth).f1
        assert f1_strict >= f1_spam - 1e-9

    def test_reliability_learns_spammers(self, spam_runs):
        reliability = spam_runs["strict"].worker_reliability
        if not reliability:
            pytest.skip("run decided before any votes were recorded")
        # Synthetic spammer identities are negative; honest workers are
        # non-negative.  Spammers must not out-rank honest workers.
        spam_scores = [v for k, v in reliability.items() if k < 0]
        honest_scores = [v for k, v in reliability.items() if k >= 0]
        if spam_scores and honest_scores:
            assert min(honest_scores) >= max(spam_scores) - 0.35

    def test_integrity_counters_exported_on_every_run(self, spam_runs):
        for key in ("clean", "spam", "strict"):
            counters = spam_runs[key].metrics["counters"]
            assert (
                counters["answers_quarantined"] + counters["answers_applied"]
                == counters["answers_aggregated"]
            )
