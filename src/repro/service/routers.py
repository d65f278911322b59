"""Route table of the query service: paths -> :class:`ServiceApp` calls.

The API surface (all JSON unless noted)::

    GET  /healthz                          liveness
    GET  /readyz                           readiness (503 while draining)
    GET  /metrics                          Prometheus text format
    POST /v1/datasets                      create (synthetic|nba|inline)
    GET  /v1/datasets                      list
    GET  /v1/datasets/{dataset_id}         metadata
    POST /v1/sessions                      open a query session (202)
    GET  /v1/sessions                      list
    GET  /v1/sessions/{sid}                state + queue stats
    GET  /v1/sessions/{sid}/events         EventLog JSONL stream
                                           (?follow=1 tails until terminal)
    POST /v1/sessions/{sid}/answers        queue crowd answers (202/429)
    POST /v1/sessions/{sid}/pause          cooperative pause -> resumable
    POST /v1/sessions/{sid}/resume         resume a PAUSED session
    POST /v1/sessions/{sid}/cancel         pause + mark terminal CANCELLED
    GET  /v1/sessions/{sid}/result         final QueryResult (409 until done)
    GET  /v1/sessions/{sid}/metrics        final metrics snapshot JSON

Routing is a flat table of ``(method, "/seg/{param}/...")`` patterns --
no framework, no regex; ``{param}`` segments capture into
``request.params``.  ``HEAD`` matches ``GET`` routes (the server strips
the body).
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterator, Awaitable, Callable, Dict, List, Optional, Tuple

from .http import HTTPError, Request, Response, json_response
from .store import TERMINAL_STATES

__all__ = ["dispatch", "ROUTES"]

Handler = Callable[["ServiceApp", Request], Awaitable[Response]]  # noqa: F821


# ----------------------------------------------------------------------
# handlers
# ----------------------------------------------------------------------
async def _healthz(app, request: Request) -> Response:
    return json_response(app.health())


async def _readyz(app, request: Request) -> Response:
    return json_response(app.readiness())


async def _metrics(app, request: Request) -> Response:
    text = await asyncio.get_event_loop().run_in_executor(
        None, app.prometheus_text
    )
    return Response(
        body=text.encode("utf-8"),
        content_type="text/plain; version=0.0.4; charset=utf-8",
    )


async def _create_dataset(app, request: Request) -> Response:
    payload = request.json()
    if not isinstance(payload, dict):
        raise HTTPError(400, "expected a JSON object")
    meta = await asyncio.get_event_loop().run_in_executor(
        None, app.create_dataset, payload
    )
    return json_response(meta, status=201)


async def _list_datasets(app, request: Request) -> Response:
    return json_response({"datasets": app.list_datasets()})


async def _dataset_meta(app, request: Request) -> Response:
    return json_response(app.store.dataset_meta(request.params["dataset_id"]))


async def _open_session(app, request: Request) -> Response:
    payload = request.json()
    if not isinstance(payload, dict):
        raise HTTPError(400, "expected a JSON object")
    meta = await asyncio.get_event_loop().run_in_executor(
        None, app.open_session, payload
    )
    return json_response(meta, status=202)


async def _list_sessions(app, request: Request) -> Response:
    return json_response({"sessions": app.list_sessions()})


async def _session_view(app, request: Request) -> Response:
    return json_response(app.session_view(request.params["session_id"]))


async def _submit_answers(app, request: Request) -> Response:
    payload = request.json()
    if not isinstance(payload, dict):
        raise HTTPError(400, "expected a JSON object")
    out = await asyncio.get_event_loop().run_in_executor(
        None, app.submit_answers, request.params["session_id"], payload
    )
    return json_response(out, status=202)


async def _pause_session(app, request: Request) -> Response:
    return json_response(app.pause_session(request.params["session_id"]))


async def _resume_session(app, request: Request) -> Response:
    out = await asyncio.get_event_loop().run_in_executor(
        None, app.resume_session, request.params["session_id"]
    )
    return json_response(out, status=202)


async def _cancel_session(app, request: Request) -> Response:
    out = await asyncio.get_event_loop().run_in_executor(
        None, app.cancel_session, request.params["session_id"]
    )
    return json_response(out)


async def _session_result(app, request: Request) -> Response:
    return json_response(app.session_result(request.params["session_id"]))


async def _session_metrics(app, request: Request) -> Response:
    return json_response(app.session_metrics_json(request.params["session_id"]))


def _events_stream(app, session_id: str, follow: bool) -> AsyncIterator[bytes]:
    """Tail a session's EventLog JSONL file as the response body.

    The trace file is rewritten from scratch when a session resumes
    (EventLog truncates on open), so a shrinking file resets the read
    offset -- the client sees the resumed run's events from its round 0.
    """
    path = app.store.session_file(session_id, "trace.jsonl")

    async def _generate() -> AsyncIterator[bytes]:
        offset = 0
        quiet_polls = 0
        while True:
            chunk = b""
            if path.exists():
                size = path.stat().st_size
                if size < offset:
                    offset = 0  # truncated by a resume
                if size > offset:
                    with open(path, "rb") as handle:
                        handle.seek(offset)
                        chunk = handle.read()
                        offset = handle.tell()
            if chunk:
                quiet_polls = 0
                yield chunk
            if not follow:
                return
            try:
                state = app.store.session_meta(session_id).get("state")
            except HTTPError:
                return
            if state in TERMINAL_STATES or state == "PAUSED":
                # allow two extra polls so the tail written between the
                # state flip and now is not lost
                quiet_polls += 1
                if quiet_polls > 2 and not chunk:
                    return
            await asyncio.sleep(0.1)

    return _generate()


async def _session_events(app, request: Request) -> Response:
    session_id = request.params["session_id"]
    app.store.session_meta(session_id)  # 404 on unknown
    follow = request.query.get("follow", "0") not in ("", "0", "false")
    return Response(
        content_type="application/x-ndjson",
        stream=_events_stream(app, session_id, follow),
    )


# ----------------------------------------------------------------------
# table + dispatch
# ----------------------------------------------------------------------
ROUTES: List[Tuple[str, str, Handler]] = [
    ("GET", "/healthz", _healthz),
    ("GET", "/readyz", _readyz),
    ("GET", "/metrics", _metrics),
    ("POST", "/v1/datasets", _create_dataset),
    ("GET", "/v1/datasets", _list_datasets),
    ("GET", "/v1/datasets/{dataset_id}", _dataset_meta),
    ("POST", "/v1/sessions", _open_session),
    ("GET", "/v1/sessions", _list_sessions),
    ("GET", "/v1/sessions/{session_id}", _session_view),
    ("GET", "/v1/sessions/{session_id}/events", _session_events),
    ("POST", "/v1/sessions/{session_id}/answers", _submit_answers),
    ("POST", "/v1/sessions/{session_id}/pause", _pause_session),
    ("POST", "/v1/sessions/{session_id}/resume", _resume_session),
    ("POST", "/v1/sessions/{session_id}/cancel", _cancel_session),
    ("GET", "/v1/sessions/{session_id}/result", _session_result),
    ("GET", "/v1/sessions/{session_id}/metrics", _session_metrics),
]

_COMPILED = [
    (method, tuple(pattern.strip("/").split("/")), handler)
    for method, pattern, handler in ROUTES
]


def _match(
    method: str, path: str
) -> Tuple[Optional[Handler], Dict[str, str], bool]:
    """Resolve a request; returns (handler, params, path_known)."""
    segments = tuple(seg for seg in path.strip("/").split("/") if seg != "")
    if path.strip("/") == "":
        segments = ()
    path_known = False
    want = "GET" if method == "HEAD" else method
    for route_method, route_segments, handler in _COMPILED:
        if len(route_segments) != len(segments):
            continue
        params: Dict[str, str] = {}
        for route_seg, seg in zip(route_segments, segments):
            if route_seg.startswith("{") and route_seg.endswith("}"):
                params[route_seg[1:-1]] = seg
            elif route_seg != seg:
                break
        else:
            path_known = True
            if route_method == want:
                return handler, params, True
    return None, {}, path_known


async def dispatch(app, request: Request) -> Response:
    """Route one request to its handler (404/405 on no match)."""
    handler, params, path_known = _match(request.method, request.path)
    if handler is None:
        if path_known:
            raise HTTPError(405, "method %s not allowed here" % request.method)
        raise HTTPError(404, "no route for %s" % request.path)
    request.params = params
    return await handler(app, request)
