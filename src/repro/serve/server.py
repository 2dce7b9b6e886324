"""The HTTP surface of the serving tier: ``/v1`` endpoints over a
threaded server and the replicated front-end.

One :class:`ServerConfig`-driven entry point — :func:`run_server` —
builds and runs the server.  The wire surface is versioned:

- ``POST /v1/predict`` — JSON body ``{"task": ..., <task inputs>}`` or a
  JSON list of such objects (a client-side batch, admitted atomically so
  it dispatches as one wave);
- ``GET /v1/healthz`` — liveness, replica fleet and queue/cache gauges;
- ``GET /v1/metrics`` — the registry's full instrument snapshot
  (counters, timers with p50/p99, histograms).

Any other path, unversioned ones included, answers 404 with the
``not_found`` envelope.

Every reply leaves in one write on a ``TCP_NODELAY`` socket.  A reply
written as headers and then body holds the body back under Nagle's
algorithm until the client ACKs the headers, and a keep-alive client
delays that ACK by about 40 ms.  A POST body is read only when it
arrives with a plain ``Content-Length`` of at most ``_MAX_BODY_BYTES``;
any other framing answers 400 (413 past the cap) and closes the
connection, because the body it leaves unread would be parsed as the
next request.

Every error is a structured envelope —
``{"error": {"code", "message", "retryable"}}`` — never an ad-hoc
string: ``retryable`` tells clients whether backing off and retrying
can succeed (shed/deadline) or the request itself is at fault
(``bad_request``) or the server is (``internal``).  A single-object
body maps its failure to the HTTP status (429-family semantics via
503/504); a list body always answers 200 with per-item envelopes, so
one shed item never hides its batch-mates' answers.

Requests flow handler thread → :class:`ReplicatedFrontend` ticket →
dispatcher → replica (or inline engine), so ``ThreadingHTTPServer``'s
per-connection threads overlap network IO with model compute, and
admission control — not the accept queue — decides who gets served
under overload.

Thread-ownership discipline: handler threads own nothing shared — every
mutable thing they touch is either per-request local, or reached through
the front-end's locked surfaces (admission queue, ticket events, the
registry).  The static analyzer (REPRO008/REPRO009) treats every
``Handler`` method as thread-reachable, so any shared state added here
must declare its guard; the lock-order hierarchy lives in
``frontend.py`` and DESIGN.md's "Concurrency discipline" section.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from .engine import InferenceEngine
from .frontend import FrontendConfig, ReplicatedFrontend, ServeTicket
from .requests import RequestError, build_example
from ..runtime import get_registry

__all__ = ["ServerConfig", "decode_body", "run_server", "make_http_server"]

#: ticket error code → HTTP status.  Unlisted codes are server bugs.
_ERROR_STATUS = {
    "bad_request": 400,
    "not_found": 404,
    "payload_too_large": 413,
    "internal": 500,
    "overloaded": 503,
    "shutdown": 503,
    "deadline_exceeded": 504,
    "timeout": 504,
}

#: Largest POST body the server reads; a longer one answers 413 unread.
_MAX_BODY_BYTES = 16 * 1024 * 1024


@dataclass(frozen=True)
class ServerConfig:
    """Everything ``repro serve`` needs beyond the engine itself.

    ``replicas=0`` serves in-process; ``deadline_ms=0`` disables
    per-request deadlines.  ``max_requests`` bounds the accept loop for
    tests and demos (``None`` = run forever).
    """

    host: str = "127.0.0.1"
    port: int = 8080
    replicas: int = 0
    max_queue: int = 64
    deadline_ms: float = 0.0
    max_batch: int = 8
    verbose: bool = False
    max_requests: int | None = None

    def __post_init__(self) -> None:
        if self.deadline_ms < 0:
            raise ValueError("deadline_ms must be non-negative")
        self.frontend_config()  # validates the remaining knobs

    def frontend_config(self) -> FrontendConfig:
        return FrontendConfig(replicas=self.replicas,
                              max_queue=self.max_queue,
                              deadline_seconds=self.deadline_ms / 1000.0,
                              max_batch=self.max_batch)


def _error_body(code: str, message: str, retryable: bool) -> dict[str, Any]:
    return {"error": {"code": code, "message": message,
                      "retryable": retryable}}


def decode_body(raw: bytes | str) -> tuple[bool, list[tuple[str, Any]]]:
    """Decode one POST body into typed submissions.

    ``raw`` is JSON text holding a request object or a non-empty list of
    them; returns whether it was a single object, and the ``(task,
    example)`` pairs.  Raises :class:`RequestError` for anything else.
    ``repro predict`` decodes each line of its request file with it.
    """
    try:
        body = json.loads(raw)
    # JSONDecodeError, the UnicodeDecodeError of bytes that are no UTF-8
    # and a number past int()'s digit limit are ValueErrors; too deep a
    # nesting is a RecursionError.
    except (ValueError, RecursionError) as error:
        raise RequestError(str(error)) from error
    single = isinstance(body, dict)
    items = [body] if single else body
    if not isinstance(items, list) or not items:
        raise RequestError("body must be a request object or non-empty list")
    submissions = []
    for item in items:
        if not isinstance(item, dict):
            raise RequestError("each request must be a JSON object")
        task = item.get("task")
        if not isinstance(task, str):
            raise RequestError("request is missing required field 'task'")
        submissions.append((task, build_example(task, item)))
    return single, submissions


class _ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer owning the front-end's lifecycle."""

    daemon_threads = True

    def __init__(self, address, handler, frontend: ReplicatedFrontend) -> None:
        super().__init__(address, handler)
        self.frontend = frontend

    def server_close(self) -> None:
        try:
            self.frontend.close()
        finally:
            super().server_close()


def make_http_server(engine: InferenceEngine,
                     config: ServerConfig | None = None) -> _ServeHTTPServer:
    """Build (and start the front-end of) the HTTP server for ``engine``.

    Prefer :func:`run_server` unless you need the server object itself
    (tests drive ``handle_request`` one call at a time).  The returned
    server's ``server_close`` also closes the front-end and its replica
    fleet.
    """
    config = config or ServerConfig()
    frontend = ReplicatedFrontend(engine, config.frontend_config())

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # TCP_NODELAY, so the stdlib's own split writes (send_error,
        # the interim 100 Continue) cannot wait on a delayed ACK either.
        disable_nagle_algorithm = True

        def log_message(self, format: str, *args: Any) -> None:
            # Request lines used to vanish here; now they flow through
            # the runtime event stream when --verbose asked for them,
            # so JSONL sinks capture access logs next to serve metrics.
            if not config.verbose:
                return
            get_registry().emit({"kind": "http",
                                 "client": self.address_string(),
                                 "line": format % args})

        # -- plumbing ---------------------------------------------------
        def _reply(self, status: int, payload: Any,
                   close: bool = False) -> None:
            """Send ``payload`` as JSON in one write; ``close`` ends the
            connection after it."""
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if close:
                self.send_header("Connection", "close")
            # send_response and send_header only buffer their lines, and
            # end_headers would send them alone; take them from the
            # buffer instead (an HTTP/0.9 reply has none, only a body).
            head = b"".join(getattr(self, "_headers_buffer", []))
            self._headers_buffer = []
            try:
                self.wfile.write(head + b"\r\n" + body if head else body)
            except (BrokenPipeError, ConnectionResetError) as error:
                self.close_connection = True
                self.log_error("client left before its %d reply (%s)",
                               status, type(error).__name__)

        def _not_found(self, close: bool = False) -> None:
            self._reply(404, _error_body(
                "not_found", f"unknown path {self.path}", False), close)

        def _read_body(self) -> bytes | None:
            """The POST body, or ``None`` once a framing error is answered."""
            declared = self.headers.get("Content-Length", "0").strip()
            if "Transfer-Encoding" in self.headers:
                code, message = ("bad_request",
                                 "Transfer-Encoding is not supported")
            # 21 digits exceed 2**64, and int() refuses 4300.
            elif (not (declared.isascii() and declared.isdigit())
                    or len(declared) > 20):
                code, message = ("bad_request",
                                 f"invalid Content-Length {declared!r}")
            elif int(declared) > _MAX_BODY_BYTES:
                code, message = ("payload_too_large",
                                 f"body of {declared} bytes exceeds the "
                                 f"{_MAX_BODY_BYTES}-byte limit")
            else:
                return self.rfile.read(int(declared))
            self._reply(_ERROR_STATUS[code],
                        _error_body(code, message, False), close=True)
            return None

        # -- GET --------------------------------------------------------
        def do_GET(self) -> None:
            if self.path == "/v1/healthz":
                self._reply(200, frontend.healthz())
            elif self.path == "/v1/metrics":
                self._reply(200, get_registry().snapshot())
            else:
                self._not_found()

        # -- POST -------------------------------------------------------
        def do_POST(self) -> None:
            if self.path != "/v1/predict":
                self._not_found(close=True)   # its body stays unread
                return
            raw = self._read_body()
            if raw is None:
                return
            try:
                single, submissions = decode_body(raw or b"null")
            except RequestError as error:
                self._reply(400, _error_body("bad_request", str(error),
                                             False))
                return
            try:
                tickets = frontend.submit_many(submissions)
            except KeyError as error:
                self._reply(400, _error_body("bad_request", str(error),
                                             False))
                return
            payloads = [self._await(ticket) for ticket in tickets]
            if single:
                payload = payloads[0]
                status = 200
                if "error" in payload:
                    status = _ERROR_STATUS.get(payload["error"]["code"], 500)
                self._reply(status, payload)
            else:
                # Client-side batches answer 200 with per-item payloads
                # (each either a response or an error envelope).
                self._reply(200, payloads)

        @staticmethod
        def _await(ticket: ServeTicket) -> dict[str, Any]:
            # Deadlines bound the wait when configured; otherwise the
            # front-end's recovery machinery (heartbeats, respawn,
            # inline fallback) guarantees eventual resolution.
            grace = (config.deadline_ms / 1000.0 + 30.0
                     if config.deadline_ms > 0 else None)
            if not ticket.wait(grace):
                ticket.fail("timeout", "server wait timed out", True)
            return ReplicatedFrontend.result_payload(ticket)

    server = _ServeHTTPServer((config.host, config.port), Handler, frontend)
    frontend.start()
    return server


def run_server(engine: InferenceEngine,
               config: ServerConfig | None = None) -> None:
    """Serve ``engine`` over HTTP per ``config`` until stopped.

    The one blessed entry point: builds the replicated front-end, binds
    the threaded HTTP server, runs the accept loop (bounded by
    ``config.max_requests`` when set) and tears the fleet down on exit.
    """
    config = config or ServerConfig()
    server = make_http_server(engine, config)
    try:
        handled = 0
        while config.max_requests is None or handled < config.max_requests:
            server.handle_request()
            handled += 1
    finally:
        server.server_close()

