"""Configuration of the skyline query service process.

One frozen-at-startup settings object (mirroring the ``app/`` layout's
``settings`` module the ROADMAP sketches) covers everything the server
needs: the bind address, the on-disk store root, the admission-control
limits that keep memory bounded under load, the transport limits that
defeat slow-loris and oversized-body clients, and the drain/recovery
knobs.  Every value can come from the environment (``REPRO_SERVICE_*``)
so a container deployment needs no flags, and every value is validated
here -- a bad knob is a :class:`~repro.errors.ConfigError` at startup,
never a mid-request surprise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Union

from ..errors import ConfigError
from ..session.supervisor import OVERFLOW_POLICIES

__all__ = ["ServiceSettings", "ENV_PREFIX"]

#: environment-variable prefix of :meth:`ServiceSettings.from_env`
ENV_PREFIX = "REPRO_SERVICE_"


@dataclass
class ServiceSettings:
    """All knobs of one ``repro serve`` process."""

    #: bind address / port (port 0 lets the OS pick -- tests rely on it)
    host: str = "127.0.0.1"
    port: int = 8321
    #: root of the persistent dataset/session store
    data_dir: Union[str, Path] = "repro-data"
    #: concurrently *active* (PENDING/RUNNING) session slots; opening a
    #: session beyond this returns 429 with Retry-After instead of
    #: growing memory without bound
    max_sessions: int = 8
    #: per-session bound on queued crowd answers (overflow per policy)
    max_pending_answers: int = 256
    #: "reject" (429 the submitter) or "shed-oldest"
    overflow_policy: str = "reject"
    #: concurrently open client connections; excess get 503 + close
    max_connections: int = 64
    #: Retry-After seconds attached to 429/503 responses
    retry_after_s: float = 1.0
    #: slow-loris guard: a client must deliver the full request head
    #: within this many seconds or the connection is dropped
    header_timeout_s: float = 10.0
    #: same guard for the request body
    body_timeout_s: float = 30.0
    #: request head / body size caps (431 / 413 beyond them)
    max_header_bytes: int = 32 * 1024
    max_body_bytes: int = 8 * 1024 * 1024
    #: seconds to wait for running sessions to reach a resumable pause
    #: during SIGTERM drain before the process gives up and exits anyway
    #: (journal durability means even that loses no acknowledged answer)
    drain_timeout_s: float = 30.0
    #: fsync every journal append of hosted sessions (the durability
    #: contract; tests flip it off for speed)
    journal_fsync: bool = True
    #: re-open interrupted sessions automatically at startup
    recover_on_start: bool = True
    #: bound on datasets a client may create (admission control for the
    #: store; 0 = unbounded)
    max_datasets: int = 1024
    #: resolved store root (filled in __post_init__)
    root: Path = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.host:
            raise ConfigError("host must be non-empty")
        if not 0 <= int(self.port) <= 65535:
            raise ConfigError("port must lie in [0, 65535], got %r" % (self.port,))
        self.port = int(self.port)
        if self.max_sessions < 1:
            raise ConfigError("max_sessions must be at least 1")
        if self.max_pending_answers < 1:
            raise ConfigError("max_pending_answers must be at least 1")
        if self.overflow_policy not in OVERFLOW_POLICIES:
            raise ConfigError(
                "unknown overflow_policy %r; expected one of %r"
                % (self.overflow_policy, OVERFLOW_POLICIES)
            )
        if self.max_connections < 1:
            raise ConfigError("max_connections must be at least 1")
        if self.retry_after_s < 0:
            raise ConfigError("retry_after_s must be non-negative")
        for knob in ("header_timeout_s", "body_timeout_s", "drain_timeout_s"):
            if getattr(self, knob) <= 0:
                raise ConfigError("%s must be positive" % knob)
        if self.max_header_bytes < 256:
            raise ConfigError("max_header_bytes must be at least 256")
        if self.max_body_bytes < 1:
            raise ConfigError("max_body_bytes must be at least 1")
        if self.max_datasets < 0:
            raise ConfigError("max_datasets must be non-negative (0 = unbounded)")
        if not isinstance(self.journal_fsync, bool):
            raise ConfigError("journal_fsync must be a bool")
        if not isinstance(self.recover_on_start, bool):
            raise ConfigError("recover_on_start must be a bool")
        self.root = Path(self.data_dir)

    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls, environ=None, **overrides) -> "ServiceSettings":
        """Build settings from ``REPRO_SERVICE_*`` variables + overrides.

        Booleans accept 1/0/true/false/yes/no; numbers are parsed per
        the field's annotated type; unknown variables are ignored (they
        may belong to a newer server).
        """
        environ = os.environ if environ is None else environ
        kwargs = {}
        for spec in fields(cls):
            if not spec.init:
                continue
            key = ENV_PREFIX + spec.name.upper()
            if key not in environ:
                continue
            raw = environ[key]
            kind = spec.type if isinstance(spec.type, str) else spec.type.__name__
            try:
                if spec.name in ("journal_fsync", "recover_on_start"):
                    lowered = raw.strip().lower()
                    if lowered in ("1", "true", "yes", "on"):
                        kwargs[spec.name] = True
                    elif lowered in ("0", "false", "no", "off"):
                        kwargs[spec.name] = False
                    else:
                        raise ValueError("not a boolean: %r" % raw)
                elif "int" in kind:
                    kwargs[spec.name] = int(raw)
                elif "float" in kind:
                    kwargs[spec.name] = float(raw)
                else:
                    kwargs[spec.name] = raw
            except ValueError as err:
                raise ConfigError("bad %s=%r: %s" % (key, raw, err)) from err
        kwargs.update(overrides)
        return cls(**kwargs)
