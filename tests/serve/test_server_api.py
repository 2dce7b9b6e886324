"""The /v1 HTTP surface: envelopes, unversioned 404s, run_server."""

import json
import threading
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
        data = None if payload is None else json.dumps(payload).encode()
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
