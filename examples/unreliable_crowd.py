#!/usr/bin/env python3
"""Resilience demo: a skyline query against an unreliable crowd market.

Real markets drop tasks (nobody accepts them), return spam, rate-limit
batch posts and occasionally go down mid-campaign.  This example runs
the same query three times:

1. against the oracle simulator (every task answered, the baseline);
2. against a seeded `UnreliableCrowdPlatform` injecting no-shows, spam
   and scheduled transient outages -- the run completes *degraded*, with
   per-fault accounting, and budget is only spent on answered tasks;
3. the same chaotic run, but killed after two rounds and resumed from
   its write-ahead journal -- landing on the identical result, because
   all RNG and platform state rides along in the journal's round
   commits.

Everything is seeded, so the output is identical on every machine.
Exits 1 when the resumed run does not match the uninterrupted one.

Run:
    python examples/unreliable_crowd.py
"""

import sys
import tempfile
from pathlib import Path

from repro import (
    BayesCrowd,
    BayesCrowdConfig,
    FaultModel,
    f1_score,
    generate_nba,
    skyline,
)


class KillSwitch:
    """Simulate a crash: die after N successful batch posts."""

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

    def __getattr__(self, name):
        return getattr(self.inner, name)


def outcome(result):
    """The fields a resumed run must reproduce exactly."""
    return (result.answers, result.certain_answers, result.rounds,
            result.tasks_posted, result.tasks_answered, result.fault_counts)


def make_config(faults=None):
    return BayesCrowdConfig(
        alpha=0.06,
        budget=30,
        latency=5,
        max_retries=3,
        backoff_base=0.0,  # demo: retry instantly instead of sleeping
        requeue_policy="requeue",
        faults=faults,
        seed=11,
    )


def main() -> int:
    dataset = generate_nba(n_objects=250, missing_rate=0.1, seed=17)
    truth = skyline(dataset.complete)
    chaos = FaultModel(
        drop_rate=0.3,        # 30% of answers never arrive
        spam_fraction=0.2,    # 20% of answers are uniform random spam
        transient_every=2,    # every 2nd batch post fails transiently
    )

    # --- 1. the oracle baseline ---------------------------------------
    clean = BayesCrowd(dataset, make_config()).run()
    print("clean run:    F1 %.3f | %d posted = %d answered | degraded=%s" % (
        f1_score(clean.answers, truth), clean.tasks_posted,
        clean.tasks_answered, clean.degraded))

    # --- 2. the same query on a hostile market ------------------------
    chaotic = BayesCrowd(dataset, make_config(chaos)).run()
    faults = ", ".join(
        "%s=%d" % (k, v) for k, v in sorted(chaotic.fault_counts.items())
    )
    print("chaotic run:  F1 %.3f | %d posted, %d answered | degraded=%s (%s)" % (
        f1_score(chaotic.answers, truth), chaotic.tasks_posted,
        chaotic.tasks_answered, chaotic.degraded, faults))
    print("budget charged only for answered tasks: %d == %s" % (
        chaotic.tasks_answered,
        " + ".join(str(r.tasks_answered) for r in chaotic.history)))

    # --- 3. crash after round 2, resume from the journal --------------
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "campaign.journal.jsonl"
        crashed = BayesCrowd(dataset, make_config(chaos))
        crashed.platform = KillSwitch(crashed.platform, after=2)
        try:
            crashed.run(journal_path=journal)
        except KeyboardInterrupt:
            print("\ncrashed after 2 rounds; journal at %s" % journal.name)
        resumed = BayesCrowd(dataset, make_config(chaos)).run(
            journal_path=journal, resume=True
        )
    matches = outcome(resumed) == outcome(chaotic)
    print("resumed run:  F1 %.3f | resumed=%s | matches uninterrupted: %s" % (
        f1_score(resumed.answers, truth), resumed.resumed, matches))

    # Even across faults and a resume, the engine's perf counters keep an
    # honest ledger of the work done after the journal was replayed.
    stats = resumed.engine_stats
    print("resumed perf: %d probabilities (%.0f/s), cache hit rate %.0f%%, "
          "%d objects rescored in %d rankings" % (
              stats["computations"], stats["probabilities_per_sec"],
              100 * stats["cache_hit_rate"], stats["objects_rescored"],
              stats["rankings"]))
    return 0 if matches else 1


if __name__ == "__main__":
    sys.exit(main())
