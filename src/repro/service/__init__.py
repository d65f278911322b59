"""Resilient HTTP/JSON query service over the BayesCrowd engine.

``repro serve`` (or ``python -m repro.service``) turns the in-process
session substrate -- :class:`~repro.session.SupervisedSession`, the
write-ahead answer journal and its recovery -- into a long-running
network service with admission control, graceful drain on SIGTERM and
crash-proof restart from its persistent on-disk store.  Only live
sessions are held in memory; the store answers for finished ones.
"""

from .app import PLATFORM_MODES, ServiceApp
from .faults import StoreFaultInjector, abrupt_close_probe, slow_loris_probe
from .http import HTTPError, Request, Response
from .server import QueryServer, main, run_server
from .settings import ServiceSettings
from .store import DurableAnswerLog, ServiceStore

__all__ = [
    "PLATFORM_MODES",
    "ServiceApp",
    "StoreFaultInjector",
    "abrupt_close_probe",
    "slow_loris_probe",
    "HTTPError",
    "Request",
    "Response",
    "QueryServer",
    "main",
    "run_server",
    "ServiceSettings",
    "ServiceStore",
    "DurableAnswerLog",
]
