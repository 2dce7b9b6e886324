"""The /v1 HTTP surface: envelopes, unversioned 404s, run_server, and
the transport under them: keep-alive latency, framing errors, clients
that leave early."""

import http.client
import json
import socket
import statistics
import struct
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.corpus import NLIExample
from repro.runtime import InMemorySink, MetricsRegistry, using_registry
from repro.serve import (
    InferenceEngine,
    ServeConfig,
    ServerConfig,
    make_http_server,
    run_server,
)
from repro.serve.server import _MAX_BODY_BYTES
from repro.tasks import NliClassifier


@pytest.fixture
def engine(encoder):
    nli = NliClassifier(encoder, np.random.default_rng(0))
    return InferenceEngine({"nli": nli}, ServeConfig())


def _inline_table(table):
    return {"header": table.header,
            "rows": [[cell.text() for cell in row] for row in table.rows[:3]],
            "title": "demo"}


class _Client:
    """Drives one handle_request per call against a bound server."""

    def __init__(self, server):
        self.server = server
        self.port = server.server_address[1]

    def call(self, path, payload=None):
        worker = threading.Thread(target=self.server.handle_request)
        worker.start()
        data = payload if payload is None or isinstance(payload, bytes) \
            else json.dumps(payload).encode()
        try:
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{self.port}{path}", data=data,
                    timeout=60) as response:
                return response.status, dict(response.headers), \
                    json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), json.loads(error.read())
        finally:
            worker.join()


@pytest.fixture
def client(engine):
    server = make_http_server(engine, ServerConfig(port=0))
    yield _Client(server)
    server.server_close()


@pytest.fixture
def serving(engine):
    """Start servers under ``serve_forever`` threads; stop them after."""
    running = []

    def start(**config):
        server = make_http_server(engine, ServerConfig(port=0, **config))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        running.append((server, thread))
        return server

    yield start
    for server, thread in running:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def _exchange_until_closed(server, request: bytes) -> bytes:
    """Send raw ``request``; everything received until the server closes."""
    port = server.server_address[1]
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        received = []
        while chunk := sock.recv(65536):   # socket.timeout after 5 s
            received.append(chunk)
    return b"".join(received)


class TestV1Surface:
    def test_healthz(self, client):
        status, _, health = client.call("/v1/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["tasks"] == ["nli"]
        assert health["replicas"] == 0

    def test_predict_single(self, client, serve_tables):
        status, _, body = client.call(
            "/v1/predict", {"task": "nli",
                            "table": _inline_table(serve_tables[0]),
                            "statement": "hello"})
        assert status == 200
        assert body["label"] in (0, 1)
        assert body["task"] == "nli"
        assert "latency_seconds" in body and "replica" in body

    def test_predict_batch_answers_per_item(self, client, serve_tables):
        table = _inline_table(serve_tables[0])
        status, _, body = client.call("/v1/predict", [
            {"task": "nli", "table": table, "statement": "s"},
            {"task": "nli", "table": table, "statement": "s"},
        ])
        assert status == 200
        assert [item["batch_size"] for item in body] == [2, 2]
        assert body[0]["label"] == body[1]["label"]

    def test_metrics_has_serve_instruments(self, client, serve_tables):
        client.call("/v1/predict",
                    {"task": "nli", "table": _inline_table(serve_tables[0]),
                     "statement": "s"})
        status, _, metrics = client.call("/v1/metrics")
        assert status == 200
        names = {m.get("name") for m in metrics}
        assert "serve.requests" in names
        assert "serve.frontend.requests" in names
        timers = {m["name"]: m for m in metrics
                  if m.get("metric") == "timer"}
        latency = timers["serve.frontend.latency_seconds"]
        assert "p99_seconds" in latency and "p50_seconds" in latency


class TestErrorEnvelope:
    def test_bad_request(self, client):
        status, _, body = client.call("/v1/predict", {"task": "nli"})
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert body["error"]["retryable"] is False
        assert "message" in body["error"]

    @pytest.mark.parametrize("body", [
        b'{"task": "imputation", "table": {"header": ["a"], "rows": [["1"]]},'
        b' "row": "x", "column": 0}',
        b'{"task": "coltype", "table": {"header": ["a"], "rows": [["1"]]},'
        b' "column": [0]}',
        b'{"task": "coltype", "table": {"header": ["a"], "rows": [["1"]]},'
        b' "column": 1e400}',
        b'{"task": "nli", "table": {"header": ["a"], "rows": [1]},'
        b' "statement": "s"}',
        b'{"task": "nli", "table": {"csv": 5}, "statement": "s"}',
    ], ids=["row-string", "column-list", "column-overflow", "row-not-list",
            "csv-not-string"])
    def test_malformed_fields_answer_400(self, client, body):
        status, _, reply = client.call("/v1/predict", body)
        assert status == 400
        assert reply["error"]["code"] == "bad_request"
        assert reply["error"]["retryable"] is False

    @pytest.mark.parametrize("body", [
        b"\xff{}", b"1" * 5000, b"[" * 100_000,
    ], ids=["not-utf8", "5000-digit-number", "nested-too-deep"])
    def test_undecodable_bodies_answer_400(self, client, body):
        status, _, reply = client.call("/v1/predict", body)
        assert status == 400
        assert reply["error"]["code"] == "bad_request"

    def test_unknown_task(self, client):
        status, _, body = client.call("/v1/predict", {"task": "nope"})
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    def test_not_found(self, client):
        status, _, body = client.call("/v1/nothing")
        assert status == 404
        assert body["error"]["code"] == "not_found"
        assert body["error"]["retryable"] is False

    def test_overload_maps_to_retryable_503(self, engine, serve_tables,
                                            monkeypatch):
        server = make_http_server(engine, ServerConfig(port=0))
        try:
            original = server.frontend.submit_many

            def overloaded(submissions):
                tickets = original(submissions)
                for ticket in tickets:
                    ticket.fail("overloaded", "queue full", True)
                return tickets

            monkeypatch.setattr(server.frontend, "submit_many", overloaded)
            status, _, body = _Client(server).call(
                "/v1/predict",
                {"task": "nli", "table": _inline_table(serve_tables[0]),
                 "statement": "s"})
            assert status == 503
            assert body["error"]["code"] == "overloaded"
            assert body["error"]["retryable"] is True
        finally:
            server.server_close()

    def test_deadline_maps_to_504(self, engine, serve_tables, monkeypatch):
        server = make_http_server(engine, ServerConfig(port=0))
        try:
            original = server.frontend.submit_many

            def expiring(submissions):
                tickets = original(submissions)
                for ticket in tickets:
                    ticket.fail("deadline_exceeded", "too slow", True)
                return tickets

            monkeypatch.setattr(server.frontend, "submit_many", expiring)
            status, _, body = _Client(server).call(
                "/v1/predict",
                {"task": "nli", "table": _inline_table(serve_tables[0]),
                 "statement": "s"})
            assert status == 504
            assert body["error"]["retryable"] is True
        finally:
            server.server_close()


class TestLegacyPaths:
    @pytest.mark.parametrize("path,payload", [
        ("/predict", {"task": "nli"}),
        ("/healthz", None),
        ("/metrics", None),
    ])
    def test_unversioned_paths_are_not_found(self, client, path, payload):
        status, headers, body = client.call(path, payload)
        assert status == 404
        assert body["error"]["code"] == "not_found"
        assert body["error"]["retryable"] is False
        assert "Deprecation" not in headers


class TestVerboseLogging:
    def test_request_lines_reach_event_stream(self, engine, serve_tables):
        with using_registry(MetricsRegistry()) as registry:
            sink = registry.add_sink(InMemorySink())
            server = make_http_server(
                engine, ServerConfig(port=0, verbose=True))
            try:
                _Client(server).call("/v1/healthz")
            finally:
                server.server_close()
            assert any("GET /v1/healthz" in event.get("line", "")
                       for event in sink.of_kind("http"))

    def test_quiet_by_default(self, engine):
        with using_registry(MetricsRegistry()) as registry:
            sink = registry.add_sink(InMemorySink())
            server = make_http_server(engine, ServerConfig(port=0))
            try:
                _Client(server).call("/v1/healthz")
            finally:
                server.server_close()
            assert sink.of_kind("http") == []


class TestRunServerAndShims:
    def test_run_server_bounded_loop(self, engine, serve_tables):
        import socket
        import time

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        config = ServerConfig(port=port, max_requests=1)
        thread = threading.Thread(target=run_server, args=(engine, config))
        thread.start()
        health = None
        for _ in range(200):
            try:
                with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/v1/healthz",
                        timeout=5) as response:
                    health = json.loads(response.read())
                break
            except (urllib.error.URLError, ConnectionError, OSError):
                time.sleep(0.05)
        thread.join(timeout=60)
        assert health is not None and health["status"] == "ok"
        assert not thread.is_alive()      # max_requests bounded the loop

    def test_server_config_validation(self):
        with pytest.raises(ValueError):
            ServerConfig(deadline_ms=-1)
        with pytest.raises(ValueError):
            ServerConfig(replicas=-1)
        with pytest.raises(ValueError):
            ServerConfig(max_queue=0)

    def test_server_close_shuts_frontend(self, engine):
        server = make_http_server(engine, ServerConfig(port=0))
        frontend = server.frontend
        server.server_close()
        assert frontend._dispatcher is None

    def test_closed_frontend_answers_shutdown(self, engine, serve_tables):
        # A request racing server_close must not restart (re-fork) the
        # front-end that close() just stopped.
        server = make_http_server(engine, ServerConfig(port=0))
        try:
            server.frontend.close()
            status, _, body = _Client(server).call(
                "/v1/predict",
                {"task": "nli", "table": _inline_table(serve_tables[0]),
                 "statement": "s"})
            assert status == 503
            assert body["error"]["code"] == "shutdown"
            assert body["error"]["retryable"] is True
            assert server.frontend._dispatcher is None
        finally:
            server.server_close()


class TestTransport:
    def test_keep_alive_requests_do_not_stall(self, serving):
        # Back-to-back requests on one TCP_NODELAY connection, as
        # urllib3 and curl send them.  A reply split over two writes
        # waited about 40 ms here for the client's delayed ACK.
        server = serving()
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=10)
        connection.connect()
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock = connection.sock
        try:
            for method, path, body, status in (
                    ("GET", "/v1/healthz", None, 200),
                    ("POST", "/v1/predict", b"{}", 400)):
                latencies = []
                for _ in range(20):
                    started = time.perf_counter()
                    connection.request(method, path, body)
                    response = connection.getresponse()
                    response.read()
                    latencies.append(time.perf_counter() - started)
                    assert response.status == status
                assert statistics.median(latencies) < 0.020, \
                    (method, path, latencies)
            assert connection.sock is sock   # one connection throughout
        finally:
            connection.close()

    def test_every_reply_leaves_in_one_write(self, serving, serve_tables,
                                             monkeypatch):
        server = serving()
        writes = []
        setup = server.RequestHandlerClass.setup

        def counting_setup(handler):
            setup(handler)
            write = handler.wfile.write

            def counted(data):
                writes.append(len(data))
                return write(data)

            handler.wfile.write = counted

        monkeypatch.setattr(server.RequestHandlerClass, "setup",
                            counting_setup)
        predict = json.dumps({"task": "nli",
                              "table": _inline_table(serve_tables[0]),
                              "statement": "s"}).encode()
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=60)
        try:
            for method, path, body, status in (
                    ("GET", "/v1/healthz", None, 200),
                    ("GET", "/v1/metrics", None, 200),
                    ("GET", "/v1/nothing", None, 404),
                    ("POST", "/v1/predict", b"{}", 400),
                    ("POST", "/v1/predict", predict, 200)):
                writes.clear()
                connection.request(method, path, body)
                response = connection.getresponse()
                data = response.read()
                assert response.status == status
                assert len(writes) == 1, (method, path, writes)
                assert writes[0] > len(data)   # status line and headers too
        finally:
            connection.close()

    def test_expect_100_continue_gets_interim_reply(self, serving):
        server = serving()
        port = server.server_address[1]
        with socket.create_connection(("127.0.0.1", port), timeout=1) as sock:
            sock.sendall(b"POST /v1/predict HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Length: 2\r\n"
                         b"Expect: 100-continue\r\n\r\n")
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                interim += sock.recv(65536)   # socket.timeout after 1 s
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.settimeout(5)
            sock.sendall(b"{}")
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 400
            assert json.loads(response.read())["error"]["code"] == \
                "bad_request"

    @pytest.mark.parametrize("header,status,code", [
        ("Content-Length: abc", 400, "bad_request"),
        ("Content-Length: -1", 400, "bad_request"),
        ("Content-Length: " + "9" * 5000, 400, "bad_request"),
        (f"Content-Length: {_MAX_BODY_BYTES + 1}", 413, "payload_too_large"),
        ("Content-Length: 4000000000", 413, "payload_too_large"),
        ("Transfer-Encoding: chunked", 400, "bad_request"),
    ], ids=["abc", "negative", "5000-digits", "over-cap", "4e9", "chunked"])
    def test_framing_errors_answer_and_close(self, serving, header, status,
                                             code):
        server = serving()
        started = time.perf_counter()
        received = _exchange_until_closed(
            server, f"POST /v1/predict HTTP/1.1\r\nHost: test\r\n"
                    f"{header}\r\n\r\n".encode())
        assert time.perf_counter() - started < 5
        head, _, body = received.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].startswith(f"HTTP/1.1 {status} ")
        assert "Connection: close" in lines[1:]
        assert f"Content-Length: {len(body)}" in lines[1:]
        error = json.loads(body)["error"]
        assert error["code"] == code and error["retryable"] is False

    def test_post_to_unknown_path_closes(self, serving):
        # Its body stays unread, so the connection cannot carry another
        # request: the leftover bytes would parse as the next one.
        server = serving()
        received = _exchange_until_closed(
            server, b"POST /predict HTTP/1.1\r\nHost: test\r\n"
                    b"Content-Length: 2\r\n\r\n{}")
        assert received.startswith(b"HTTP/1.1 404 ")
        assert json.loads(received.partition(b"\r\n\r\n")[2]) \
            ["error"]["code"] == "not_found"

    @pytest.mark.parametrize("reset", [False, True], ids=["fin", "rst"])
    def test_client_gone_before_reply_prints_no_traceback(
            self, serving, monkeypatch, capfd, reset):
        with using_registry(MetricsRegistry()) as registry:
            sink = registry.add_sink(InMemorySink())
            server = serving(verbose=True)
            client_gone, handled = threading.Event(), threading.Event()
            healthz = server.frontend.healthz
            shutdown_request = server.shutdown_request

            def healthz_after_client_left():
                client_gone.wait(10)
                return healthz()

            def shutdown_then_signal(request):
                # Runs after handle_error would have printed.
                shutdown_request(request)
                handled.set()

            monkeypatch.setattr(server.frontend, "healthz",
                                healthz_after_client_left)
            monkeypatch.setattr(server, "shutdown_request",
                                shutdown_then_signal)
            sock = socket.create_connection(
                ("127.0.0.1", server.server_address[1]), timeout=5)
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            if reset:   # abortive close: RST instead of FIN
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
            sock.close()
            client_gone.set()
            assert handled.wait(10)
            lines = [event["line"] for event in sink.of_kind("http")]
        stderr = capfd.readouterr().err
        assert "Traceback" not in stderr and "Exception" not in stderr
        if reset:   # the send itself failed: logged, not raised
            assert any("client left before its 200 reply" in line
                       for line in lines)
