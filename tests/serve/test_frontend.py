"""ReplicatedFrontend: admission, deadlines, routing, replica recovery."""

import threading
import time

import numpy as np
import pytest

from repro.corpus import NLIExample, QAExample
from repro.runtime import InMemorySink, MetricsRegistry, using_registry
from repro.serve import (
    AdmissionQueue,
    FrontendConfig,
    InferenceEngine,
    ReplicatedFrontend,
    ServeConfig,
    ServeTicket,
)
from repro.tasks import CellSelectionQA, NliClassifier


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _ticket(request_id, affinity="k", deadline_at=None):
    return ServeTicket(request_id, "nli", object(), affinity, 0.0,
                       deadline_at)


def _engine(encoder, **config):
    nli = NliClassifier(encoder, np.random.default_rng(0))
    return InferenceEngine({"nli": nli}, ServeConfig(**config))


def _nli(tables, i=0, statement="a statement"):
    return NLIExample(tables[i], statement, 0)


class TestFrontendConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FrontendConfig(replicas=-1)
        with pytest.raises(ValueError):
            FrontendConfig(max_queue=0)
        with pytest.raises(ValueError):
            FrontendConfig(deadline_seconds=-0.1)
        with pytest.raises(ValueError):
            FrontendConfig(max_batch=0)


class TestAdmissionQueue:
    def test_bound_sheds_overflow(self):
        queue = AdmissionQueue(2)
        assert queue.admit(_ticket(0))
        assert queue.admit(_ticket(1))
        assert not queue.admit(_ticket(2))
        assert len(queue) == 2

    def test_admit_many_is_atomic_and_partial(self):
        queue = AdmissionQueue(2)
        verdicts = queue.admit_many([_ticket(i) for i in range(3)])
        assert verdicts == [True, True, False]
        assert [t.request_id for t in queue.pop_any(5)] == [0, 1]

    def test_pop_expired_separates_by_deadline(self):
        queue = AdmissionQueue(4)
        queue.admit_many([_ticket(0, deadline_at=1.0),
                          _ticket(1, deadline_at=5.0),
                          _ticket(2, deadline_at=None)])
        expired = queue.pop_expired(now=2.0)
        assert [t.request_id for t in expired] == [0]
        assert [t.request_id for t in queue.pop_any(5)] == [1, 2]

    def test_pop_for_routes_by_slot_and_keeps_fifo(self):
        queue = AdmissionQueue(8)
        queue.admit_many([_ticket(i, affinity=str(i % 2))
                          for i in range(6)])
        evens = queue.pop_for(lambda t: int(t.affinity), 0, limit=2)
        assert [t.request_id for t in evens] == [0, 2]
        rest = queue.pop_any(10)
        assert [t.request_id for t in rest] == [1, 3, 4, 5]

    def test_requeue_goes_to_front(self):
        queue = AdmissionQueue(8)
        queue.admit_many([_ticket(0), _ticket(1)])
        recovered = queue.pop_any(1)
        queue.requeue(recovered)
        assert [t.request_id for t in queue.pop_any(10)] == [0, 1]


class TestServeTicket:
    def test_first_resolution_wins(self):
        ticket = _ticket(0)
        ticket.complete({"label": 1})
        ticket.fail("internal", "late", False)
        assert ticket.response == {"label": 1}
        assert ticket.error is None

    def test_expired(self):
        assert not _ticket(0, deadline_at=None).expired(1e9)
        assert _ticket(0, deadline_at=1.0).expired(2.0)
        assert not _ticket(0, deadline_at=1.0).expired(0.5)


class TestInProcessFrontend:
    def test_matches_single_engine_bytes(self, encoder, serve_tables):
        baseline = _engine(encoder).process(
            [("nli", _nli(serve_tables, i)) for i in range(3)])
        frontend = ReplicatedFrontend(_engine(encoder), FrontendConfig())
        with frontend:
            results = frontend.process(
                [("nli", _nli(serve_tables, i)) for i in range(3)],
                timeout=60)
        for reference, result in zip(baseline, results):
            assert result["label"] == reference.prediction.label
            assert result["score"] == reference.prediction.score

    def test_unknown_task_raises(self, encoder):
        frontend = ReplicatedFrontend(_engine(encoder))
        with pytest.raises(KeyError):
            frontend.submit("qa", object())

    def test_full_queue_sheds_with_retryable_error(self, encoder,
                                                   serve_tables):
        with using_registry(MetricsRegistry()) as registry:
            frontend = ReplicatedFrontend(
                _engine(encoder), FrontendConfig(max_queue=1))
            kept = frontend.submit("nli", _nli(serve_tables))
            shed = frontend.submit("nli", _nli(serve_tables))
            assert shed.done()
            assert shed.error["code"] == "overloaded"
            assert shed.error["retryable"] is True
            assert not kept.done()
            assert registry.counter("serve.frontend.shed").value == 1
            frontend.start()
            assert kept.wait(60) and kept.response is not None
            frontend.close()

    def test_expired_request_never_dispatched(self, encoder, serve_tables):
        """A ticket whose deadline passed in the queue must not reach a
        worker: the engine sees no work for it."""
        clock = FakeClock()
        engine = _engine(encoder)
        seen = []
        original = engine.process

        def spying_process(submissions):
            seen.extend(submissions)
            return original(submissions)

        engine.process = spying_process
        frontend = ReplicatedFrontend(
            engine, FrontendConfig(deadline_seconds=0.5), clock=clock)
        doomed = frontend.submit("nli", _nli(serve_tables))
        clock.advance(1.0)            # expires while queued, pre-dispatch
        frontend.start()
        assert doomed.wait(60)
        assert doomed.error["code"] == "deadline_exceeded"
        assert doomed.error["retryable"] is True
        assert seen == []             # never reached the engine
        fresh = frontend.submit("nli", _nli(serve_tables))
        assert fresh.wait(60) and fresh.response is not None
        assert len(seen) == 1         # dispatcher stayed healthy
        frontend.close()

    def test_atomic_batch_forms_one_wave(self, encoder, serve_tables):
        frontend = ReplicatedFrontend(_engine(encoder))
        with frontend:
            results = frontend.process(
                [("nli", _nli(serve_tables)), ("nli", _nli(serve_tables))],
                timeout=60)
        assert [r["batch_size"] for r in results] == [2, 2]
        assert results[0]["label"] == results[1]["label"]

    def test_healthz_gauges(self, encoder, serve_tables):
        with using_registry(MetricsRegistry()):
            frontend = ReplicatedFrontend(_engine(encoder))
            with frontend:
                frontend.process([("nli", _nli(serve_tables))], timeout=60)
                health = frontend.healthz()
        assert health["status"] == "ok"
        assert health["tasks"] == ["nli"]
        assert health["replicas"] == 0
        assert health["queue_depth"] == 0
        assert health["cache"]["misses"] >= 1

    def test_close_resolves_pending_tickets(self, encoder, serve_tables):
        frontend = ReplicatedFrontend(_engine(encoder))
        pending = frontend.submit("nli", _nli(serve_tables))
        frontend.close()              # dispatcher never started
        assert pending.done()
        assert pending.error["code"] == "shutdown"


class TestReplicatedFrontend:
    def _two_task_engine(self, encoder):
        rng = np.random.default_rng(0)
        return InferenceEngine({
            "nli": NliClassifier(encoder, rng),
            "qa": CellSelectionQA(encoder, np.random.default_rng(1)),
        }, ServeConfig())

    def _traffic(self, serve_tables):
        submissions = []
        for i in range(6):
            submissions.append(("nli", _nli(serve_tables, i % 3)))
            submissions.append(
                ("qa", QAExample(serve_tables[i % 3], f"q{i % 2}?",
                                 None, ())))
        return submissions

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_byte_identical_to_single_engine(self, encoder, serve_config,
                                             serve_tokenizer, serve_tables,
                                             replicas):
        from repro.models import TableBert

        submissions = self._traffic(serve_tables)
        baseline = self._two_task_engine(encoder).process(submissions)
        twin = TableBert(serve_config, serve_tokenizer,
                         np.random.default_rng(0))
        frontend = ReplicatedFrontend(
            self._two_task_engine(twin), FrontendConfig(replicas=replicas))
        with frontend:
            results = frontend.process(submissions, timeout=120)
        from repro.serve import json_safe_label
        for reference, result in zip(baseline, results):
            assert "error" not in result
            assert result["label"] == json_safe_label(
                reference.prediction.label)
            assert result["score"] == reference.prediction.score

    def test_worker_death_recovers_by_respawn(self, encoder, serve_tables):
        with using_registry(MetricsRegistry()) as registry:
            frontend = ReplicatedFrontend(
                _engine(encoder), FrontendConfig(replicas=1))
            with frontend:
                warm = frontend.process([("nli", _nli(serve_tables))],
                                        timeout=120)
                assert "error" not in warm[0]
                frontend._pool.handle(0).process.kill()
                frontend._pool.handle(0).process.join(timeout=10)
                results = frontend.process(
                    [("nli", _nli(serve_tables, 1))], timeout=120)
            assert "error" not in results[0]
            assert registry.counter("serve.frontend.respawns").value >= 1

    def test_degraded_pool_falls_back_inline(self, encoder, serve_tables):
        with using_registry(MetricsRegistry()) as registry:
            frontend = ReplicatedFrontend(
                _engine(encoder),
                FrontendConfig(replicas=1, max_respawns=0))
            with frontend:
                frontend.start()
                frontend._pool.handle(0).process.kill()
                frontend._pool.handle(0).process.join(timeout=10)
                results = frontend.process(
                    [("nli", _nli(serve_tables))], timeout=120)
            assert "error" not in results[0]
            assert results[0]["replica"] == -1
            assert registry.counter("serve.frontend.degraded").value == 1
            assert registry.counter("serve.frontend.fallbacks").value >= 1

    @pytest.mark.parametrize("max_respawns", [2, 0])
    def test_idle_replica_death_is_noticed_without_traffic(
            self, encoder, serve_tables, max_respawns):
        settled = ("serve.frontend.respawns" if max_respawns
                   else "serve.frontend.degraded")
        with using_registry(MetricsRegistry()) as registry:
            frontend = ReplicatedFrontend(
                _engine(encoder),
                FrontendConfig(replicas=1, max_respawns=max_respawns))
            with frontend:
                warm = frontend.process([("nli", _nli(serve_tables))],
                                        timeout=120)
                assert "error" not in warm[0]
                frontend._pool.handle(0).process.kill()
                deadline = time.monotonic() + 5.0
                while (registry.counter(settled).value < 1
                       and time.monotonic() < deadline):
                    time.sleep(0.02)
                health = frontend.healthz()
                if max_respawns:
                    assert health["status"] == "ok"
                    assert health["live_replicas"] == 1
                    assert frontend._pool.handle(0).generation == 1
                else:
                    assert health["status"] == "degraded"
                    assert health["live_replicas"] == 0
            assert registry.counter(
                "serve.frontend.worker_deaths").value == 1

    def test_affinity_routing_is_stable(self, encoder, serve_tables):
        frontend = ReplicatedFrontend(_engine(encoder))
        a = ServeTicket(0, "nli", object(), "same-table", 0.0, None)
        b = ServeTicket(1, "nli", object(), "same-table", 0.0, None)
        c = ServeTicket(2, "nli", object(), "other-table", 0.0, None)
        live = [0, 1, 2, 3]
        assert frontend._slot_of(a, live) == frontend._slot_of(b, live)
        assert frontend._slot_of(a, live) in live
        assert frontend._slot_of(c, live) in live


class TestCacheConcurrency:
    def test_threaded_hidden_for_keeps_counters_and_bytes(self, encoder,
                                                          serve_tables):
        """Front-end threads hammering one cache: no corruption, exact
        hit/miss accounting, byte-identical hidden states."""
        from repro.serve import EncodingCache

        cache = EncodingCache(max_entries=32)
        features = []
        for table in serve_tables[:4]:
            serialized = encoder.serialize(table, None)
            features.append(encoder.features(serialized, table=table))

        results: dict[int, list] = {}
        errors: list[Exception] = []

        def worker(thread_id: int) -> None:
            try:
                out = []
                for _ in range(5):
                    out.append(cache.hidden_for(encoder, features))
                results[thread_id] = out
            except Exception as error:  # pragma: no cover — failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        total = 4 * 5 * len(features)
        assert cache.misses == len(features)           # one per distinct key
        assert cache.hits == total - len(features)
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == total
        assert stats["entries"] == len(features)
        reference = results[0][0]
        for outputs in results.values():
            for batch in outputs:
                for got, expected in zip(batch, reference):
                    assert got.tobytes() == expected.tobytes()

    def test_threaded_store_lookup_respects_budget(self):
        from repro.serve import EncodingCache

        cache = EncodingCache(max_entries=8)
        errors: list[Exception] = []

        def worker(thread_id: int) -> None:
            try:
                for i in range(200):
                    key = ("m", f"{thread_id}-{i % 16}")
                    cache.store(key, np.full(4, thread_id, dtype=np.float64))
                    cache.lookup(key)
                    cache.stats()
            except Exception as error:  # pragma: no cover — failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(cache) <= 8
        assert cache.evictions == cache.stats()["evictions"] > 0
