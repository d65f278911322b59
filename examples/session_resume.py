#!/usr/bin/env python3
"""Crash-safe sessions: journal a run, kill it mid-round, recover it.

Walks the full durability loop of the session runtime:

1. run a query with a write-ahead answer journal;
2. simulate a crash by aborting the run partway through a round --
   the journal then holds the answers of the cut round;
3. resume: replaying the journal alone reproduces the state the crashed
   process held, and the finished result is bit-identical to an
   uninterrupted run;
4. host the same query under a :class:`SessionSupervisor`, which does
   the restart-and-recover dance automatically.

Exits 1 when a recovered run does not match the uninterrupted one.

Run:
    python examples/session_resume.py
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import BayesCrowd, BayesCrowdConfig, generate_nba
from repro.crowd import SimulatedCrowdPlatform
from repro.session import SessionSupervisor, journal_problems, read_journal


def make_dataset():
    return generate_nba(n_objects=20, missing_rate=0.4, seed=3)


def make_config(**overrides):
    base = dict(
        budget=12, latency=4, worker_accuracy=0.7, alpha=0.1, seed=5,
        strict_integrity=True,
    )
    base.update(overrides)
    return BayesCrowdConfig(**base)


def make_platform(dataset):
    return SimulatedCrowdPlatform(
        dataset, worker_accuracy=0.7, rng=np.random.default_rng(5)
    )


class AbortAfterAnswers:
    """Platform wrapper that simulates a crash after N answered tasks.

    A real crash is a SIGKILL (see tests/test_crash_matrix.py, which
    injects one on every journal-append boundary); raising out of the
    platform mid-round exercises the same recovery path in one process.
    The abort fires once -- recovery then runs against the same wrapper.
    """

    def __init__(self, inner, abort_after):
        self.inner = inner
        self.abort_after = abort_after
        self.answered = 0
        self.armed = True

    def post_batch(self, tasks):
        answers = self.inner.post_batch(tasks)
        self.answered += len(answers)
        if self.armed and self.answered >= self.abort_after:
            self.armed = False
            raise RuntimeError("simulated crash mid-round")
        return answers

    def __getattr__(self, name):
        return getattr(self.inner, name)


def outcome(result):
    """The fields a recovered run must reproduce exactly."""
    return (result.answers, result.certain_answers, result.rounds,
            result.tasks_posted, result.tasks_answered, result.integrity)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="bayescrowd-session-") as tmp:
        return demo(Path(tmp))


def demo(workdir: Path) -> int:
    journal = workdir / "run.journal.jsonl"
    dataset = make_dataset()

    # --- 1. the uninterrupted reference run ----------------------------
    baseline = BayesCrowd(dataset, make_config(),
                          platform=make_platform(dataset)).run()
    print("uninterrupted run: %d rounds, %d tasks, answers %s" % (
        baseline.rounds, baseline.tasks_posted, baseline.answers))

    # --- 2. journal a run and crash it mid-flight ----------------------
    platform = AbortAfterAnswers(make_platform(dataset), abort_after=5)
    try:
        BayesCrowd(dataset, make_config(), platform=platform).run(
            journal_path=journal
        )
    except RuntimeError:
        print("\n'crash' injected after %d answers" % platform.answered)

    records = read_journal(journal)
    print("journal survived with %d records (kinds: %s)" % (
        len(records), " ".join(r.kind for r in records)))
    print("journal verifies: %s" % ("yes" if not journal_problems(journal) else "NO"))

    # --- 3. recover: replay the journal -------------------------------
    resumed = BayesCrowd(dataset, make_config(), platform=platform).run(
        journal_path=journal, resume=True
    )
    counters = resumed.metrics["counters"]
    print("\nresumed run: %d rounds, %d tasks, answers %s" % (
        resumed.rounds, resumed.tasks_posted, resumed.answers))
    print("  recovered %d cut round(s), replayed %d journaled answer(s)" % (
        counters.get("recovered_rounds", 0),
        counters.get("journal_replayed_answers", 0)))
    resumed_matches = outcome(resumed) == outcome(baseline)
    print("  matches the uninterrupted run: %s" % (
        "yes" if resumed_matches else "NO"))

    # --- 4. the same loop, supervised ----------------------------------
    supervisor = SessionSupervisor(workdir / "supervised", max_restarts=2,
                                   restart_backoff_base=0.0)
    crashy = AbortAfterAnswers(make_platform(dataset), abort_after=5)
    supervisor.create("demo", dataset, make_config(), platform=crashy)
    result = supervisor.run("demo")
    session = supervisor.get("demo")
    print("\nsupervised session: state=%s after %d restart(s)" % (
        session.state, session.restarts))
    for from_state, to_state, reason in session.transitions:
        print("  %s -> %s (%s)" % (from_state, to_state, reason))
    supervised_matches = outcome(result) == outcome(baseline)
    print("  supervised run matches: %s" % (
        "yes" if supervised_matches else "NO"))
    return 0 if resumed_matches and supervised_matches else 1


if __name__ == "__main__":
    sys.exit(main())
