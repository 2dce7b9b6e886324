"""End-to-end `repro predict` / `repro serve` through cli.main()."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cli import _build_engine, build_parser, main
from repro.corpus import KnowledgeBase, generate_wiki_corpus
from repro.tables import save_table


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    for table in generate_wiki_corpus(KnowledgeBase(seed=0), 6, seed=0):
        save_table(table, root / f"{table.table_id}.csv")
    return root


def _inline_table(corpus_dir):
    import csv

    path = sorted(corpus_dir.glob("*.csv"))[0]
    with open(path) as handle:
        rows = list(csv.reader(handle))
    return {"header": rows[0], "rows": rows[1:4], "title": "demo"}


def _serve_call(server, path, payload=None):
    """One request against ``server``, handled on a helper thread."""
    worker = threading.Thread(target=server.handle_request)
    worker.start()
    data = None if payload is None else json.dumps(payload).encode()
    try:
        with urllib.request.urlopen(
                f"http://127.0.0.1:{server.server_address[1]}{path}",
                data=data, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())
    finally:
        worker.join()


class TestPredictCommand:
    def test_jsonl_round_trip(self, corpus_dir, tmp_path, capsys):
        table = _inline_table(corpus_dir)
        requests = [
            {"task": "qa", "table": table, "question": "which one?"},
            {"task": "nli", "table": table, "statement": "it is so"},
            {"task": "coltype", "table": table, "column": 0},
            {"task": "retrieval", "query": "anything"},
            {"task": "qa", "table": table, "question": "which one?"},
        ]
        request_path = tmp_path / "requests.jsonl"
        request_path.write_text(
            "\n".join(json.dumps(r) for r in requests) + "\n")
        out_path = tmp_path / "responses.jsonl"
        metrics_path = tmp_path / "metrics.jsonl"

        code = main(["predict", str(request_path), str(corpus_dir),
                     "--model", "bert", "--out", str(out_path),
                     "--metrics-out", str(metrics_path)])
        assert code == 0

        responses = [json.loads(line)
                     for line in out_path.read_text().splitlines()]
        assert [r["id"] for r in responses] == list(range(5))
        assert [r["task"] for r in responses] == [r["task"] for r in requests]
        # The duplicated QA request gets the same answer.
        assert responses[0]["label"] == responses[4]["label"]
        assert responses[0]["score"] == responses[4]["score"]
        events = [json.loads(line)
                  for line in metrics_path.read_text().splitlines()]
        assert sum(e.get("kind") == "serve_request" for e in events) == 5

    def test_bad_request_file_fails_with_line_number(self, corpus_dir,
                                                     tmp_path, capsys):
        request_path = tmp_path / "bad.jsonl"
        request_path.write_text('{"task": "qa"}\n')   # missing table
        with pytest.raises(SystemExit) as excinfo:
            main(["predict", str(request_path), str(corpus_dir),
                  "--model", "bert"])
        assert excinfo.value.code == 2
        assert "bad.jsonl:1" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "[1, 2]",
        '"text"',
        '{"task": "imputation", "table": {"header": ["a"], "rows": [["1"]]},'
        ' "row": "x", "column": 0}',
        '{"task": "coltype", "table": {"header": ["a"], "rows": [["1"]]},'
        ' "column": [0]}',
    ], ids=["list", "string", "bad-row", "list-column"])
    def test_malformed_line_fails_with_line_number(self, corpus_dir,
                                                   tmp_path, capsys, line):
        request_path = tmp_path / "bad.jsonl"
        request_path.write_text(
            '{"task": "retrieval", "query": "anything"}\n' + line + "\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["predict", str(request_path), str(corpus_dir),
                  "--model", "bert"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(
            f"repro: error: {request_path}:2: ")

    def test_missing_request_file(self, corpus_dir, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["predict", str(tmp_path / "nope.jsonl"), str(corpus_dir)])
        assert excinfo.value.code == 2


class TestServeEndpoints:
    def test_http_round_trip(self, corpus_dir):
        from repro.serve import ServerConfig, make_http_server
        from repro.serve.requests import SERVED_TASKS

        args = build_parser().parse_args(
            ["serve", str(corpus_dir), "--model", "bert"])
        server = make_http_server(_build_engine(args), ServerConfig(port=0))
        try:
            status, health = _serve_call(server, "/v1/healthz")
            assert status == 200 and health["status"] == "ok"
            assert set(health["tasks"]) == set(SERVED_TASKS)

            table = _inline_table(corpus_dir)
            status, body = _serve_call(server, "/v1/predict", {
                "task": "nli", "table": table, "statement": "hello"})
            assert status == 200 and body["label"] in (0, 1)

            status, body = _serve_call(server, "/v1/predict", [
                {"task": "qa", "table": table, "question": "q?"},
                {"task": "qa", "table": table, "question": "q?"},
            ])
            assert status == 200 and len(body) == 2
            assert body[0]["label"] == body[1]["label"]

            status, body = _serve_call(server, "/v1/predict",
                                       {"task": "unknown"})
            assert status == 400 and "error" in body

            status, metrics = _serve_call(server, "/v1/metrics")
            names = {m.get("name") for m in metrics}
            assert "serve.requests" in names
        finally:
            server.server_close()


class TestReplicatedDifferential:
    def test_predict_matches_one_replica_server(self, corpus_dir, tmp_path):
        """`repro predict` and `repro serve --replicas 1` give the same
        label and score, byte for byte, on every task."""
        from repro.serve import ServerConfig, make_http_server

        table = _inline_table(corpus_dir)
        requests = [
            {"task": "qa", "table": table, "question": "which one?"},
            {"task": "nli", "table": table, "statement": "it is so"},
            {"task": "imputation", "table": table, "row": 1, "column": 0},
            {"task": "coltype", "table": table, "column": 0},
            {"task": "retrieval", "query": "anything"},
            {"task": "text2sql", "table": table, "question": "how many?"},
            {"task": "qa", "table": table, "question": "which one?"},
        ]
        request_path = tmp_path / "requests.jsonl"
        request_path.write_text(
            "\n".join(json.dumps(r) for r in requests) + "\n")
        out_path = tmp_path / "responses.jsonl"
        assert main(["predict", str(request_path), str(corpus_dir),
                     "--model", "bert", "--out", str(out_path)]) == 0
        expected = [json.loads(line)
                    for line in out_path.read_text().splitlines()]

        args = build_parser().parse_args(
            ["serve", str(corpus_dir), "--model", "bert", "--replicas", "1"])
        server = make_http_server(
            _build_engine(args),
            ServerConfig(port=0, replicas=args.replicas))
        try:
            status, answers = _serve_call(server, "/v1/predict", requests)
        finally:
            server.server_close()
        assert status == 200
        assert [a.get("replica") for a in answers] == [0] * len(requests)
        assert [(a["label"], a["score"]) for a in answers] == \
            [(e["label"], e["score"]) for e in expected]


class TestServeOperatorErrors:
    """Bad serve knobs are operator errors: exit 2, one line, no traceback."""

    @pytest.mark.parametrize("flags, fragment", [
        (["--replicas", "-1"], "replicas"),
        (["--deadline-ms", "-5"], "deadline_ms"),
        (["--max-queue", "0"], "max_queue"),
    ])
    def test_invalid_knobs_exit_2(self, corpus_dir, flags, fragment, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", str(corpus_dir), "--model", "bert", *flags])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and fragment in err
