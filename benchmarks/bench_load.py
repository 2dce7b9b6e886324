"""E15 — replicated serving under Zipf-popularity table traffic.

Replays a synthetic multi-user workload against the full serving tier
(:class:`repro.serve.ReplicatedFrontend`): requests over every served
task head, tables drawn Zipf-popularity style (a few hot tables take
most of the traffic — the regime where the content-addressed
:class:`EncodingCache` pays off or thrashes), clients closed-loop so
queue depth stays realistic.  Three gates:

1. **Differential** (unconditional): every response from the replicated
   front-end is byte-identical — label and score — to the single-process
   :class:`InferenceEngine` answering the same traffic, for every task
   head.  Replication must never move a bit.
2. **Tail SLO** (unconditional): with a per-request deadline configured,
   the p99 latency of answered requests stays under the deadline (the
   front-end late-fails anything slower, so this checks the shed/deadline
   machinery is actually wired) and nothing hangs.
3. **Throughput** (hardware-gated like ``bench_parallel``): ≥2x
   requests-per-second at 4 replicas vs the single-process engine, only
   asserted on 4+ usable cores; below that the table still prints.

Overload behaviour — burst past the admission bound → structured,
retryable ``overloaded`` sheds mapping to HTTP 503 — is asserted
unconditionally as gate 4.

``--quick`` (the CI `serve-load` job) shrinks the request count, not the
gates.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.corpus import (
    ColumnTypeExample,
    ImputationExample,
    NLIExample,
    QAExample,
    RetrievalExample,
    Text2SqlExample,
)
from repro.models import Tapas
from repro.runtime import MetricsRegistry, using_registry
from repro.serve import (
    FrontendConfig,
    InferenceEngine,
    ReplicatedFrontend,
    ServeConfig,
    build_predictor,
    json_safe_label,
)
from repro.serve.requests import SERVED_TASKS
from repro.serve.server import _ERROR_STATUS

from .conftest import print_table

ZIPF_EXPONENT = 1.1
REPLICAS = 4
DEADLINE_SECONDS = 30.0
SPEEDUP_TARGET = 2.0

_QUESTIONS = ["what is the highest value?", "how many entries are there?",
              "what is the lowest value?"]
_STATEMENTS = ["the first row is the largest", "every value is positive",
               "the table has three columns"]


def _zipf_traffic(tables, count: int, seed: int = 0):
    """``count`` submissions over every task head; tables drawn by rank
    popularity (rank r with probability ∝ r^-s)."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, len(tables) + 1, dtype=float)
    popularity = ranks ** -ZIPF_EXPONENT
    popularity /= popularity.sum()
    submissions = []
    for i in range(count):
        table = tables[int(rng.choice(len(tables), p=popularity))]
        task = SERVED_TASKS[i % len(SERVED_TASKS)]
        if task == "qa":
            example = QAExample(table, _QUESTIONS[i % 3], None, ())
        elif task == "nli":
            example = NLIExample(table, _STATEMENTS[i % 3], 0)
        elif task == "imputation":
            example = ImputationExample(
                table, int(rng.integers(table.num_rows)),
                int(rng.integers(table.num_columns)), "")
        elif task == "coltype":
            example = ColumnTypeExample(table, i % table.num_columns, "")
        elif task == "retrieval":
            example = RetrievalExample(query=_QUESTIONS[i % 3],
                                       positive_table_id="")
        else:
            example = Text2SqlExample(table, _QUESTIONS[i % 3], None)
        submissions.append((task, example))
    return submissions


@pytest.fixture(scope="module")
def serving(wiki_corpus, config, tokenizer, quick):
    corpus = wiki_corpus[: 8 if quick else 16]
    count = 48 if quick else 144

    def build_engine() -> InferenceEngine:
        encoder = Tapas(config, tokenizer, np.random.default_rng(0))
        rng = np.random.default_rng(0)
        predictors = {task: build_predictor(task, encoder, corpus, rng)
                      for task in SERVED_TASKS}
        return InferenceEngine(predictors, ServeConfig(cache_entries=256))

    return build_engine, _zipf_traffic(corpus, count)


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = int(q / 100.0 * len(ordered) + 0.5)
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


def test_replicated_is_byte_identical_per_task(serving):
    """Gate 1: the fleet answers exactly like one engine, task by task."""
    build_engine, traffic = serving
    reference = build_engine().process(traffic)
    frontend = ReplicatedFrontend(
        build_engine(),
        FrontendConfig(replicas=2, max_queue=len(traffic), max_batch=8))
    with frontend:
        results = frontend.process(traffic, timeout=600)
    mismatches = []
    for (task, _), expected, got in zip(traffic, reference, results):
        if "error" in got:
            mismatches.append((task, "error", got["error"]))
            continue
        if (got["label"] != json_safe_label(expected.prediction.label)
                or got["score"] != expected.prediction.score):
            mismatches.append((task, expected.prediction, got))
    assert mismatches == [], mismatches[:5]
    replicas_used = {r["replica"] for r in results}
    assert replicas_used - {-1}, "no request was answered by a replica"


def test_load_throughput_and_tail_slo(benchmark, serving):
    """Gates 2–3: closed-loop Zipf load — RPS, p50/p99, deadline bound."""
    build_engine, traffic = serving
    clients = 4
    measurements = {}

    def closed_loop(frontend):
        """Each client thread owns a slice and runs it sequentially."""
        outputs = [None] * len(traffic)

        def client(offset: int) -> None:
            for i in range(offset, len(traffic), clients):
                ticket = frontend.submit(*traffic[i])
                ticket.wait(DEADLINE_SECONDS + 60.0)
                outputs[i] = ReplicatedFrontend.result_payload(ticket)

        threads = [threading.Thread(target=client, args=(offset,))
                   for offset in range(clients)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - started, outputs

    def experiment():
        # Single-process baseline: the one-engine loop every client
        # would otherwise share.
        engine = build_engine()
        engine.process(traffic[:2])                      # warm-up
        started = time.perf_counter()
        for submission in traffic:
            engine.process([submission])
        measurements["single_s"] = time.perf_counter() - started

        with using_registry(MetricsRegistry()) as registry:
            frontend = ReplicatedFrontend(build_engine(), FrontendConfig(
                replicas=REPLICAS, max_queue=len(traffic),
                deadline_seconds=DEADLINE_SECONDS, max_batch=8))
            with frontend:
                frontend.process(traffic[:2], timeout=600)   # warm-up
                elapsed, outputs = closed_loop(frontend)
                measurements["fleet"] = frontend.healthz()
            measurements["replicated_s"] = elapsed
            measurements["outputs"] = outputs
            measurements["registry"] = registry
        return measurements

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    outputs = measurements["outputs"]
    answered = [o for o in outputs if o is not None and "error" not in o]
    failed = [o for o in outputs if o is not None and "error" in o]
    latencies = [o["latency_seconds"] for o in answered]
    single_rps = len(traffic) / measurements["single_s"]
    replicated_rps = len(traffic) / measurements["replicated_s"]
    speedup = replicated_rps / single_rps
    p50, p99 = _percentile(latencies, 50.0), _percentile(latencies, 99.0)
    cores = os.cpu_count() or 1

    print_table(
        f"E15: Zipf serving load — {len(traffic)} requests, "
        f"{len(SERVED_TASKS)} tasks, {clients} clients",
        ["mode", "total s", "req/s", "p50 ms", "p99 ms", "speedup"],
        [["single-process", f"{measurements['single_s']:.2f}",
          f"{single_rps:.1f}", "-", "-", "1.00x"],
         [f"{REPLICAS} replicas", f"{measurements['replicated_s']:.2f}",
          f"{replicated_rps:.1f}", f"{p50 * 1e3:.0f}", f"{p99 * 1e3:.0f}",
          f"{speedup:.2f}x"]])

    # Gate 2: every request resolved; the tail sits under the deadline.
    assert len(answered) + len(failed) == len(traffic)
    assert failed == [], f"{len(failed)} requests failed: {failed[:3]}"
    assert p99 <= DEADLINE_SECONDS, (
        f"p99 {p99:.2f}s exceeded the {DEADLINE_SECONDS:g}s deadline")
    registry = measurements["registry"]
    timer = registry.timer("serve.frontend.latency_seconds")
    assert timer.percentile(99.0) <= DEADLINE_SECONDS
    # Zipf repeats dedup across the fleet (affinity routing pins tables).
    assert measurements["fleet"]["cache"]["hits"] > 0

    # Gate 3: the speedup claim needs hardware that can actually run the
    # replicas concurrently; below 4 cores, report without asserting.
    if cores >= 4:
        assert speedup >= SPEEDUP_TARGET, (
            f"expected >= {SPEEDUP_TARGET}x req/s at {REPLICAS} replicas "
            f"on {cores} cores, measured {speedup:.2f}x")
    else:
        print(f"\n(speedup assertion skipped: {cores} usable core(s); "
              f"measured {speedup:.2f}x)")


def test_overload_sheds_structured_retryable(serving):
    """Gate 4: burst past the admission bound → retryable 503 sheds."""
    build_engine, traffic = serving
    bound = 8
    burst = traffic[: min(len(traffic), 40)]
    with using_registry(MetricsRegistry()) as registry:
        frontend = ReplicatedFrontend(
            build_engine(), FrontendConfig(max_queue=bound))
        with frontend:
            tickets = frontend.submit_many(burst)
            shed = [t for t in tickets if t.done() and t.error is not None]
            kept = [t for t in tickets if t not in shed]
            for ticket in kept:
                assert ticket.wait(600)
        assert len(shed) == len(burst) - bound
        for ticket in shed:
            assert ticket.error["code"] == "overloaded"
            assert ticket.error["retryable"] is True
            assert _ERROR_STATUS[ticket.error["code"]] == 503
        for ticket in kept:
            assert ticket.response is not None, ticket.error
        assert registry.counter("serve.frontend.shed").value == len(shed)
    print_table(
        "E15: overload shedding — burst vs admission bound",
        ["burst", "bound", "admitted", "shed (503 retryable)"],
        [[str(len(burst)), str(bound), str(len(kept)), str(len(shed))]])
