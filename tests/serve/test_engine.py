"""InferenceEngine: dispatch, telemetry, request decoding."""

import numpy as np
import pytest

from repro.corpus import NLIExample
from repro.nn import Module
from repro.runtime import InMemorySink, MetricsRegistry, using_registry
from repro.serve import (
    InferenceEngine,
    RequestError,
    ServeConfig,
    build_example,
    build_predictor,
    json_safe_label,
    parse_table,
)
from repro.serve.requests import SERVED_TASKS
from repro.sql import Aggregate, SelectQuery
from repro.tasks import NliClassifier


@pytest.fixture
def nli(encoder):
    return NliClassifier(encoder, np.random.default_rng(0))


def _example(tables, i=0, statement="a statement"):
    return NLIExample(tables[i], statement, 0)


class TestDispatch:
    def test_submit_unknown_task(self, nli):
        engine = InferenceEngine({"nli": nli})
        with pytest.raises(KeyError):
            engine.process([("nli", object()), ("qa", object())])
        assert engine.cache.misses == 0     # rejected before any work

    def test_process_preserves_submission_order(self, nli, serve_tables):
        engine = InferenceEngine({"nli": nli})
        submissions = [("nli", _example(serve_tables, i % 3))
                       for i in range(6)]
        responses = engine.process(submissions)
        assert [r.request_id for r in responses] == list(range(6))
        assert all(r.task == "nli" for r in responses)

    def test_repeated_tables_hit_cache(self, nli, serve_tables):
        engine = InferenceEngine({"nli": nli}, ServeConfig(cache_entries=4))
        example = _example(serve_tables)
        first = engine.process([("nli", example)])
        second = engine.process([("nli", example)])
        assert engine.cache.hits >= 1
        assert first[0].prediction.label == second[0].prediction.label
        assert first[0].prediction.score == pytest.approx(
            second[0].prediction.score)


class TestModes:
    def test_requests_after_warm_up_walk_no_tree(self, six_task_engine,
                                                 six_task_traffic,
                                                 monkeypatch):
        for predictor in six_task_engine.predictors.values():
            assert not any(module.training
                           for module in predictor.modules())
        six_task_engine.process(six_task_traffic)       # warm-up
        walks = {"n": 0}
        for name in ("modules", "named_parameters"):
            def counting(self, *args, walk=getattr(Module, name)):
                walks["n"] += 1
                return walk(self, *args)
            monkeypatch.setattr(Module, name, counting)
        responses = six_task_engine.process(six_task_traffic)
        assert len(responses) == len(six_task_traffic)
        assert walks["n"] == 0


class TestTelemetry:
    def test_counters_histograms_traces(self, nli, serve_tables):
        registry = MetricsRegistry()
        sink = registry.add_sink(InMemorySink())
        with using_registry(registry):
            engine = InferenceEngine({"nli": nli})
            engine.process([("nli", _example(serve_tables, i))
                            for i in range(3)])
        snapshot = {s["name"]: s for s in registry.snapshot()
                    if s.get("metric")}
        assert snapshot["serve.requests"]["value"] == 3
        assert snapshot["serve.latency_seconds"]["count"] == 3
        # No queue, no batches: the engine keeps no histograms at all.
        assert not any(name.startswith("serve.") and
                       entry["metric"] == "histogram"
                       for name, entry in snapshot.items())
        traces = sink.of_kind("serve_request")
        assert len(traces) == 3
        assert {t["id"] for t in traces} == {0, 1, 2}
        assert all(t["task"] == "nli" for t in traces)


class TestRequestDecoding:
    def test_parse_inline_table(self):
        table = parse_table({"header": ["a", "b"], "rows": [["1", "2"]],
                             "title": "t"})
        assert table.header == ["a", "b"]
        assert table.context.title == "t"

    def test_parse_table_errors(self, tmp_path):
        with pytest.raises(RequestError):
            parse_table(42)
        with pytest.raises(RequestError):
            parse_table({"header": ["a"]})
        with pytest.raises(RequestError):
            parse_table(str(tmp_path / "missing.csv"))
        with pytest.raises(RequestError):
            parse_table({"header": ["a"], "rows": [["1", "2"]]})

    def test_build_example_validates(self):
        table = {"header": ["a"], "rows": [["1"]]}
        with pytest.raises(RequestError):
            build_example("qa", {"table": table})          # no question
        with pytest.raises(RequestError):
            build_example("imputation", {"table": table, "row": 5,
                                         "column": 0})     # out of range
        with pytest.raises(RequestError):
            build_example("nope", {"table": table})
        example = build_example("nli", {"table": table, "statement": "s"})
        assert example.statement == "s"

    def test_build_predictor_covers_served_tasks(self, encoder, serve_tables):
        rng = np.random.default_rng(0)
        for task in SERVED_TASKS:
            predictor = build_predictor(task, encoder, serve_tables, rng)
            assert predictor.task_name in (task, "imputation")

    def test_json_safe_label(self):
        query = SelectQuery("col", Aggregate.COUNT, ())
        assert json_safe_label(query) == query.render()
        assert json_safe_label((1, 2)) == [1, 2]
        assert json_safe_label(np.int64(3)) == 3
        assert json_safe_label(None) is None
