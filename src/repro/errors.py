"""Error taxonomy of the crowd/platform boundary.

A real crowdsourcing market fails in qualitatively different ways, and
the framework reacts differently to each:

* :class:`PlatformTransientError` -- the platform hiccuped (rate limit,
  network partition, service restart).  Retrying the same batch after a
  backoff is expected to succeed; :meth:`BayesCrowd.run` does exactly
  that, bounded by ``max_retries``.
* :class:`PlatformFatalError` -- the platform is gone for good (account
  suspended, campaign cancelled).  Crowdsourcing stops and the run
  completes *degraded* on whatever answers were already folded in.
* :class:`TaskExpiredError` -- specific tasks can no longer be answered
  (posted too many times, HIT lifetime exceeded).  The framework refunds
  and abandons exactly those tasks and reposts the rest.

Batches can also be rejected outright before posting, which is a caller
bug rather than a platform fault:

* :class:`ConflictingBatchError` -- two tasks in one batch share a
  variable (forbidden by Section 6.1's conflict rule);
* :class:`DuplicateTaskError` -- the same task appears twice in one
  batch (the answers dict would silently collapse the duplicates while
  the money accounting charged for both).

Independently of batches, :class:`CheckpointError` marks durable run
state that cannot be resumed: a write-ahead journal written by a
different query/config than the one trying to resume.

Beyond the crowd boundary the library raises three more typed errors:

* :class:`ConfigError` -- an invalid knob value in
  :class:`repro.core.BayesCrowdConfig` (subclasses ``ValueError`` so
  pre-existing ``except ValueError`` callers keep working);
* :class:`DataValidationError` -- rejected input data, e.g. a NaN/inf in
  an *observed* cell of a user-supplied CSV, which would silently poison
  Bayesian-network training downstream;
* :class:`ResourceBudgetError` -- an exact probability computation
  exceeded its node budget or wall-clock deadline.  Raised internally by
  :class:`repro.probability.ADPLL` and caught by the resource guard
  (:mod:`repro.probability.guard`), which degrades to the Monte Carlo
  estimator instead of stalling the round.
"""

from __future__ import annotations

from typing import Sequence


class CrowdPlatformError(RuntimeError):
    """Base class of runtime failures raised by a crowd platform."""


class PlatformTransientError(CrowdPlatformError):
    """A retryable platform failure (timeout, rate limit, outage blip)."""


class PlatformFatalError(CrowdPlatformError):
    """An unrecoverable platform failure; retrying cannot help."""


class TaskExpiredError(CrowdPlatformError):
    """Some tasks of a batch can no longer be answered.

    Carries the expired tasks so the caller can refund and drop exactly
    those while reposting the remainder of the batch.
    """

    def __init__(self, tasks: Sequence, message: str = "") -> None:
        self.tasks = tuple(tasks)
        super().__init__(
            message or "%d task(s) expired: %s"
            % (len(self.tasks), ", ".join(str(t) for t in self.tasks))
        )


class BatchRejectedError(ValueError):
    """A batch was malformed and rejected before any task was posted."""


class ConflictingBatchError(BatchRejectedError):
    """A batch contained two tasks sharing a variable (Section 6.1)."""


class DuplicateTaskError(BatchRejectedError):
    """A batch contained the same task more than once."""


class CheckpointError(RuntimeError):
    """Durable run state belongs to another query and cannot be resumed."""


class ConfigError(ValueError):
    """An invalid configuration knob value."""


class DataValidationError(ValueError):
    """Input data was rejected before it could poison the pipeline."""


class ResourceBudgetError(RuntimeError):
    """An exact computation exceeded its node budget or deadline.

    Carries which budget tripped (``"node_budget"`` or ``"deadline"``)
    and how much work was done, so the guard can report why it degraded.
    """

    def __init__(self, reason: str, spent: float = 0.0, limit: float = 0.0) -> None:
        self.reason = reason
        self.spent = spent
        self.limit = limit
        super().__init__(
            "%s exhausted (spent %s of %s)" % (reason, spent, limit)
        )


class JournalError(RuntimeError):
    """An answer journal could not be written or used for recovery."""


class JournalCorruptError(JournalError):
    """A journal record failed its checksum or sequence check.

    A torn *final* line (the record a crash interrupted mid-write) is
    tolerated and dropped by the reader; corruption anywhere before the
    tail means the file cannot be trusted and raises this error.
    """


class SessionCancelledError(RuntimeError):
    """A session's cooperative cancellation token was triggered.

    Raised from a :meth:`repro.session.CancellationToken.check` call at a
    phase boundary (or inside a long-running phase loop).  State already
    journaled stays durable: a cancelled run can resume.
    """

    def __init__(self, phase: str = "", reason: str = "") -> None:
        self.phase = phase
        self.reason = reason
        super().__init__(
            "session cancelled%s%s"
            % (
                " during %s" % phase if phase else "",
                " (%s)" % reason if reason else "",
            )
        )


class BackpressureError(RuntimeError):
    """A bounded pending-answer queue rejected a submission (full)."""
