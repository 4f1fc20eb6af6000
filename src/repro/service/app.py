"""Stdlib ASGI application over :class:`SimulationService`.

No framework: the module speaks the `ASGI 3.0`_ protocol directly, so
any ASGI server (uvicorn, hypercorn, daphne) can host it, the bundled
threaded bridge (:mod:`repro.service.http`) can serve it with nothing
but the standard library, and the tests can drive it in-process with
a ten-line client.

Routes::

    POST /runs              submit a RunSpec (JSON body; ?wait=SECONDS
                            blocks until done, capped by config)
    GET  /runs              list live jobs (?status=..., ?store=1 to
                            include committed points)
    GET  /runs/{id}         job status or cached result (?wait=SECONDS)
    GET  /runs/{id}/trace   stream the job's telemetry trace (JSONL;
                            tails live jobs until they finish)
    GET  /stats             service counters, queue depths, store totals
    GET  /healthz           liveness probe

Error contract: ``{"error": ..., "status": ...}`` bodies; 400 for
unreadable JSON, 404 for unknown ids/routes, 405 with ``Allow`` for
wrong methods, 422 for invalid specs, 429 with ``Retry-After`` for
rate limiting and queue backpressure, 500 for everything else.

.. _ASGI 3.0: https://asgi.readthedocs.io/en/latest/specs/main.html
"""

from __future__ import annotations

import asyncio
import json

from ..errors import InvalidParameterError
from .errors import QueueFullError, RateLimitedError, UnknownJobError
from .service import SimulationService

__all__ = ["make_app"]

_JSON = [(b"content-type", b"application/json")]
_NDJSON = [(b"content-type", b"application/x-ndjson")]


def make_app(service: SimulationService):
    """Build the ASGI callable for one service instance.

    The returned app handles the ``lifespan`` protocol by starting the
    service's workers on startup and stopping them gracefully on
    shutdown; hosts without lifespan support (the tests, the threaded
    bridge) may call ``service.start()`` / ``service.stop()`` around
    it themselves — ``start`` on a started service is a no-op guard in
    the pool, so doing both is an error, not a convenience.  Pick one.
    """

    async def app(scope, receive, send):
        if scope["type"] == "lifespan":
            await _lifespan(service, receive, send)
            return
        if scope["type"] != "http":
            raise RuntimeError(
                f"unsupported ASGI scope type {scope['type']!r}")
        try:
            await _route(service, scope, receive, send)
        except _Handled:
            pass
        except InvalidParameterError as error:
            await _send_error(send, 422, str(error))
        except (QueueFullError, RateLimitedError) as error:
            await _send_error(
                send, error.status, str(error),
                extra_headers=[(b"retry-after",
                                _retry_after(error.retry_after))])
        except UnknownJobError as error:
            await _send_error(send, error.status, str(error))
        except _BadRequest as error:
            await _send_error(send, 400, str(error))

    return app


async def _lifespan(service, receive, send) -> None:
    while True:
        message = await receive()
        if message["type"] == "lifespan.startup":
            try:
                service.start()
            except Exception as error:
                await send({"type": "lifespan.startup.failed",
                            "message": str(error)})
                return
            await send({"type": "lifespan.startup.complete"})
        elif message["type"] == "lifespan.shutdown":
            service.stop(graceful=True)
            await send({"type": "lifespan.shutdown.complete"})
            return


class _BadRequest(Exception):
    """Body or query string the server cannot even parse."""


async def _route(service, scope, receive, send) -> None:
    method = scope["method"]
    path = scope["path"].rstrip("/") or "/"
    query = _parse_query(scope.get("query_string", b""))

    if path == "/healthz":
        await _require(method, "GET", send)
        await _send_json(send, 200, {"status": "ok"})
    elif path == "/stats":
        await _require(method, "GET", send)
        await _send_json(send, 200, service.stats())
    elif path == "/runs":
        if method == "POST":
            payload = await _read_json_body(receive)
            view = service.submit(payload, client=_client_key(scope))
            wait = _parse_wait(query)
            if wait > 0 and view["status"] in ("queued", "running"):
                view = service.get(view["id"], wait=wait)
            await _send_json(send, _submit_status(view), view)
        elif method == "GET":
            view = service.list_runs(
                status=query.get("status"),
                include_store=query.get("store") in ("1", "true", "yes"))
            await _send_json(send, 200, view)
        else:
            await _send_405(send, "GET, POST")
    elif path.startswith("/runs/"):
        parts = path[len("/runs/"):].split("/")
        if len(parts) == 1:
            await _require(method, "GET", send)
            view = service.get(parts[0], wait=_parse_wait(query))
            await _send_json(send, 200, view)
        elif len(parts) == 2 and parts[1] == "trace":
            await _require(method, "GET", send)
            await _stream_trace(service, parts[0], send)
        else:
            raise UnknownJobError(f"no route {path!r}")
    else:
        raise UnknownJobError(f"no route {path!r}")


# ----------------------------------------------------------------------
# Request plumbing
# ----------------------------------------------------------------------

def _parse_query(raw: bytes) -> dict:
    query = {}
    for part in raw.decode("latin-1").split("&"):
        if "=" in part:
            key, value = part.split("=", 1)
            query[key] = value
        elif part:
            query[part] = ""
    return query


def _parse_wait(query: dict) -> float:
    raw = query.get("wait", "0")
    try:
        wait = float(raw)
    except ValueError:
        raise _BadRequest(f"wait must be a number, got {raw!r}") from None
    if wait < 0:
        raise _BadRequest(f"wait must be >= 0, got {raw!r}")
    return wait


def _client_key(scope) -> str:
    for name, value in scope.get("headers", ()):
        if name == b"x-client":
            return value.decode("latin-1")
    client = scope.get("client")
    return client[0] if client else "anonymous"


async def _read_json_body(receive):
    chunks = []
    while True:
        message = await receive()
        if message["type"] != "http.request":
            raise _BadRequest(
                f"unexpected ASGI message {message['type']!r}")
        chunks.append(message.get("body", b""))
        if not message.get("more_body"):
            break
    body = b"".join(chunks)
    if not body:
        raise _BadRequest("request body is empty; expected a RunSpec "
                          "JSON object")
    try:
        return json.loads(body)
    except ValueError as error:
        raise _BadRequest(f"request body is not valid JSON: {error}") \
            from None


def _submit_status(view: dict) -> int:
    # Cached and already-finished submissions answer 200; freshly
    # queued or coalesced-onto work answers 202 Accepted.
    return 200 if view["status"] in ("done", "failed") else 202


def _retry_after(seconds: float) -> bytes:
    import math
    return str(max(1, math.ceil(seconds))).encode("ascii")


async def _require(method: str, allowed: str, send) -> None:
    if method != allowed:
        await _send_405(send, allowed)
        raise _Handled()


class _Handled(Exception):
    """Response already sent; unwind without another one."""


async def _send_405(send, allow: str) -> None:
    await _send_json(send, 405, {"error": "method not allowed",
                                 "status": 405},
                     extra_headers=[(b"allow", allow.encode("ascii"))])


async def _send_json(send, status: int, payload,
                     extra_headers=()) -> None:
    body = json.dumps(payload).encode("utf-8")
    await send({"type": "http.response.start", "status": status,
                "headers": [*_JSON, *extra_headers,
                            (b"content-length",
                             str(len(body)).encode("ascii"))]})
    await send({"type": "http.response.body", "body": body})


async def _send_error(send, status: int, message: str,
                      extra_headers=()) -> None:
    await _send_json(send, status,
                     {"error": message, "status": status},
                     extra_headers=extra_headers)


# ----------------------------------------------------------------------
# Trace streaming
# ----------------------------------------------------------------------

async def _stream_trace(service, job_id: str, send) -> None:
    """Stream a job's JSONL trace, tailing while the job is active.

    The trace file is append-only with per-line flushes (the
    JsonlTraceSink contract), so reading is safe concurrently with the
    worker.  For finished jobs this degenerates to sending the file;
    for live ones it polls for new bytes until the job leaves the
    active states and the file is drained.
    """
    path, live = service.trace_ref(job_id)
    interval = service.config.poll_interval
    await send({"type": "http.response.start", "status": 200,
                "headers": list(_NDJSON)})
    offset = 0
    while True:
        chunk = b""
        if path.exists():
            with open(path, "rb") as handle:
                handle.seek(offset)
                chunk = handle.read()
            offset += len(chunk)
        if chunk:
            await send({"type": "http.response.body", "body": chunk,
                        "more_body": True})
        if not live:
            break
        live = service.job_active(job_id)
        if not live:
            continue  # one final drain pass after the job finishes
        await asyncio.sleep(interval)
    await send({"type": "http.response.body", "body": b""})
