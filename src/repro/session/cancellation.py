"""Cooperative cancellation tokens with deadline propagation.

The #SAT hardness behind exact model counting (and a real crowd's
open-ended answer latency) means any pipeline phase can stall
unboundedly; a serving system must be able to *stop* a session without
killing the process.  A :class:`CancellationToken` is the contract:

* long-running code calls :meth:`CancellationToken.check` at loop
  boundaries (per round, per c-table object, per probability condition)
  and gets a typed :class:`~repro.errors.SessionCancelledError` once the
  token is cancelled or its deadline passed;
* anything already journaled stays durable, so a
  cancelled run is *paused*, not lost -- resuming replays the journal.

Deadlines compose: :meth:`remaining` exposes the time left so inner
phases (e.g. the guarded ADPLL path) can clamp their own per-call
deadlines to the session's.  Tokens are thread-safe; one supervisor
thread may cancel a session running in another.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from ..errors import SessionCancelledError

__all__ = ["CancellationToken"]


class CancellationToken:
    """A thread-safe cancel flag plus an optional wall-clock deadline."""

    def __init__(self, deadline_s: float = 0.0) -> None:
        """``deadline_s`` > 0 arms a deadline that many seconds from now."""
        self._event = threading.Event()
        self._reason = ""
        self._deadline_at: Optional[float] = None
        if deadline_s and deadline_s > 0:
            self.set_deadline(deadline_s)

    # ------------------------------------------------------------------
    def cancel(self, reason: str = "cancelled") -> None:
        """Trip the token; every subsequent :meth:`check` raises."""
        self._reason = reason
        self._event.set()

    def set_deadline(self, seconds_from_now: float) -> None:
        """Arm (or tighten) the deadline; never loosens an earlier one."""
        if seconds_from_now <= 0:
            raise ValueError("deadline must be a positive number of seconds")
        at = time.monotonic() + seconds_from_now
        if self._deadline_at is None or at < self._deadline_at:
            self._deadline_at = at

    # ------------------------------------------------------------------
    @property
    def cancelled(self) -> bool:
        """Has the token been tripped (explicitly or by its deadline)?"""
        if self._event.is_set():
            return True
        if self._deadline_at is not None and time.monotonic() >= self._deadline_at:
            self.cancel("deadline exceeded")
            return True
        return False

    @property
    def reason(self) -> str:
        return self._reason

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (``None`` when no deadline is set).

        Clamped at 0: an expired deadline reports no time left rather
        than a negative duration.
        """
        if self._deadline_at is None:
            return None
        return max(0.0, self._deadline_at - time.monotonic())

    def check(self, phase: str = "") -> None:
        """Raise :class:`SessionCancelledError` if the token tripped.

        ``phase`` names where the cancellation was observed (it rides on
        the exception for supervisor/event reporting).
        """
        if self.cancelled:
            raise SessionCancelledError(phase=phase, reason=self._reason)
