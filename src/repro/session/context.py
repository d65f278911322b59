"""Per-session execution context: RNG streams, task ids, cancellation.

Re-entrancy contract: *nothing on the request path may read or write
module-level mutable state*.  Everything a run mutates -- random
generators, the task-id counter, the cancel flag -- lives on a
:class:`SessionContext`, so N concurrent sessions in one process are
fully isolated and each produces exactly the stream a solo run with the
same seed would.

Two access styles are supported:

* **explicit threading** (preferred): the framework holds its context
  and passes ``rng=``/``task_id=`` down;
* **ambient lookup** for deep library code whose signatures predate the
  session layer (:func:`session_rng`): while a context is
  :meth:`~SessionContext.activate`-d, the module-level fallback RNGs in
  :mod:`repro.crowd.aggregation` and :mod:`repro.probability.approxcount`
  resolve to per-session streams via a :class:`contextvars.ContextVar`
  instead of the shared (deprecated) process-global generator.
  ``ContextVar`` values are per-thread/per-context, so two sessions
  running in two threads never see each other's streams.
"""

from __future__ import annotations

import contextlib
import zlib
from contextvars import ContextVar
from typing import Dict, Iterator, Optional

import numpy as np

from .cancellation import CancellationToken

__all__ = [
    "SessionContext",
    "TaskIdAllocator",
    "current_session",
    "session_rng",
]

#: The active session of the current thread/context (None = library mode).
_active_session: "ContextVar[Optional[SessionContext]]" = ContextVar(
    "repro_active_session", default=None
)


class TaskIdAllocator:
    """Monotonic per-session task ids, resumable across processes.

    The global ``itertools.count`` the tasks module falls back to resets
    every process and interleaves across sessions; this allocator is
    owned by one session, snapshots into journal records,
    and can :meth:`reserve` ids replayed from a journal so a recovered
    process never re-allocates an id the crashed process already used.
    """

    def __init__(self, next_id: int = 1) -> None:
        if next_id < 1:
            raise ValueError("task ids start at 1")
        self._next = int(next_id)

    def allocate(self) -> int:
        task_id = self._next
        self._next += 1
        return task_id

    def reserve(self, task_id: int) -> None:
        """Mark an id as used (journal replay); never moves backwards."""
        if task_id >= self._next:
            self._next = task_id + 1

    @property
    def next_id(self) -> int:
        return self._next

    def state_dict(self) -> dict:
        return {"next_id": self._next}

    def load_state_dict(self, state: dict) -> None:
        self._next = int(state.get("next_id", 1))


class SessionContext:
    """Everything one session is allowed to mutate.

    ``rng(name)`` returns a named per-session stream, derived from the
    session seed and the stream name, created lazily and cached: the
    same name always returns the same generator object, so sequential
    draws within a session advance one stream deterministically.
    """

    def __init__(
        self,
        seed: int = 0,
        session_id: str = "default",
        cancellation: Optional[CancellationToken] = None,
    ) -> None:
        self.seed = int(seed)
        self.session_id = str(session_id)
        self.cancellation = cancellation or CancellationToken()
        self.task_ids = TaskIdAllocator()
        self._rngs: Dict[str, np.random.Generator] = {}

    # ------------------------------------------------------------------
    def rng(self, name: str) -> np.random.Generator:
        """The session's named RNG stream (created on first use).

        Streams are keyed by ``(seed, crc32(name))`` through a
        :class:`numpy.random.SeedSequence`, so distinct names give
        statistically independent streams and the same ``(seed, name)``
        pair always reproduces the same sequence -- in any process.
        """
        generator = self._rngs.get(name)
        if generator is None:
            entropy = [self.seed & 0xFFFFFFFF, zlib.crc32(name.encode("utf-8"))]
            generator = np.random.default_rng(np.random.SeedSequence(entropy))
            self._rngs[name] = generator
        return generator

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def activate(self) -> Iterator["SessionContext"]:
        """Make this the ambient session for the enclosed block.

        Nested activations restore the previous session on exit, and the
        binding is context-local: activating in one thread leaves other
        threads (other sessions) untouched.
        """
        token = _active_session.set(self)
        try:
            yield self
        finally:
            _active_session.reset(token)

    # ------------------------------------------------------------------
    # journal snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """RNG-stream and allocator snapshot (JSON-serializable)."""
        return {
            "seed": self.seed,
            "session_id": self.session_id,
            "task_ids": self.task_ids.state_dict(),
            "rng_streams": {
                name: generator.bit_generator.state
                for name, generator in self._rngs.items()
            },
        }

    def load_state_dict(self, state: dict) -> None:
        self.task_ids.load_state_dict(state.get("task_ids", {}))
        for name, rng_state in state.get("rng_streams", {}).items():
            self.rng(name).bit_generator.state = rng_state


def current_session() -> Optional[SessionContext]:
    """The ambient session of the calling thread/context, if any."""
    return _active_session.get()


def session_rng(name: str) -> Optional[np.random.Generator]:
    """The ambient session's named RNG stream, or ``None`` outside one.

    This is the hook the deprecated module-level fallback generators use:
    inside an activated session, un-threaded library calls still draw
    from session-isolated streams.
    """
    session = _active_session.get()
    if session is None:
        return None
    return session.rng(name)
