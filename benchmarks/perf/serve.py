"""The serve workloads: ``repro serve`` over HTTP on hot and on cold tables.

Both run the CLI server (``--replicas 1 --max-queue 256``) on a 16-table
wiki corpus and drive ``POST /v1/predict`` with inline tables from one
client process over at most ``nproc`` (2) keep-alive connections that
set ``TCP_NODELAY``, as urllib3 and curl do:

- ``serve_hot`` draws tables Zipf(s=1.1) from the corpus itself and
  spreads requests over all six task heads.  The 16-table working set
  is far smaller than the 128-entry encoding cache, so after warm-up the
  encoder barely runs and the layers around it carry the cost.
- ``serve_cold`` sends every request with a table the server has never
  seen (generated from a separate seed, titled uniquely), over the five
  table-bearing heads; retrieval is left out because it never misses.
  Every request misses and evicts, so serialization and the encoder
  forward carry the cost: the workload on the other side of every
  cache-path optimization.

Phases: 64 untimed warm-up requests; a closed loop for 25 % of the
measured seconds (throughput); an open loop at a fixed 20 req/s for the
rest, each request timed from when it was due (latency); then every
request body goes through ``repro predict``, the single-engine path, and
each HTTP label and score must equal its answer.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from repro.corpus import open_stream
from repro.tables import load_table

from .common import ROOT, PssSampler, digest, metric, process_tree, result, \
    subprocess_env
from .layers import LayerContext, layer_metrics
from .trace import aggregate, load_spans

TASKS = ("qa", "nli", "imputation", "coltype", "retrieval", "text2sql")
COLD_TASKS = tuple(task for task in TASKS if task != "retrieval")
CORPUS_TABLES = 16
ZIPF_EXPONENT = 1.1
WARMUP_REQUESTS = 64
CONNECTIONS = min(2, os.cpu_count() or 1)
OPEN_RATE = 20.0
CLOSED_SHARE = 0.25
SLO_MS = 100.0
SETUP_STARTS = 3
#: Sizes the closed-loop body pool: no run answers faster than this.
MAX_RATE = 400.0
COLD_SEED_OFFSET = 1_000_003
REQUEST_TIMEOUT = 30.0
SERVER_ARGS = ("--replicas", "1", "--max-queue", "256")

QUESTIONS = ("what is the highest value?", "how many entries are there?",
             "what is the lowest value?", "which row comes first?")
STATEMENTS = ("the first row is the largest", "every value is positive",
              "the table has three columns")

Reference = Callable[[Path, Path, Path], list[dict]]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class ServeInputs:
    corpus: Path
    bodies: list[bytes]
    digest: str


def _table_payload(table, title: str) -> dict:
    return {"header": list(table.header),
            "rows": [[cell.text() for cell in row] for row in table.rows],
            "title": title}


def _request(task: str, table, payload: dict,
             rng: np.random.Generator) -> dict:
    question = QUESTIONS[int(rng.integers(len(QUESTIONS)))]
    if task == "retrieval":
        return {"task": task, "query": question}
    body = {"task": task, "table": payload}
    if task in ("qa", "text2sql"):
        body["question"] = question
    elif task == "nli":
        body["statement"] = STATEMENTS[int(rng.integers(len(STATEMENTS)))]
    elif task == "imputation":
        body["row"] = int(rng.integers(table.num_rows))
        body["column"] = int(rng.integers(table.num_columns))
    else:
        body["column"] = int(rng.integers(table.num_columns))
    return body


def build_inputs(kind: str, seed: int, work: Path,
                 pool_size: int) -> ServeInputs:
    """The server's corpus and ``pool_size`` request bodies, all from ``seed``."""
    corpus = work / "corpus"
    subprocess.run(
        [sys.executable, "-m", "repro", "corpus", "--kind", "wiki",
         "--size", str(CORPUS_TABLES), "--seed", str(seed),
         "--out", str(corpus)],
        cwd=ROOT, env=subprocess_env(), check=True,
        stdout=subprocess.DEVNULL)
    rng = np.random.default_rng(seed)
    bodies = []
    if kind == "hot":
        manifest = json.loads((corpus / "manifest.json").read_text())
        tables = [load_table(corpus / entry["file"]) for entry in manifest]
        payloads = [_table_payload(table, entry["title"])
                    for table, entry in zip(tables, manifest)]
        popularity = np.arange(1, len(tables) + 1, dtype=float) ** -ZIPF_EXPONENT
        popularity /= popularity.sum()
        by_rank = rng.permutation(len(tables))
        for index in range(pool_size):
            chosen = int(by_rank[rng.choice(len(tables), p=popularity)])
            bodies.append(_request(TASKS[index % len(TASKS)], tables[chosen],
                                   payloads[chosen], rng))
    else:
        stream = open_stream("wiki", size=pool_size,
                             seed=seed + COLD_SEED_OFFSET)
        for index, table in enumerate(stream.iter_tables()):
            title = f"{table.context.title} (request {index})"
            bodies.append(_request(COLD_TASKS[index % len(COLD_TASKS)], table,
                                   _table_payload(table, title), rng))
    encoded = [json.dumps(body).encode() for body in bodies]
    corpus_bytes = [path.read_bytes() for path in sorted(corpus.iterdir())]
    return ServeInputs(corpus, encoded, digest(corpus_bytes + encoded))


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _get_json(port: int, path: str) -> dict | list:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        connection.request("GET", path)
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


class Server:
    """One ``repro serve`` process, healthy on return from the constructor."""

    def __init__(self, corpus: Path, log: Path,
                 trace_dir: Path | None = None) -> None:
        self.port = _free_port()
        args = ["serve", str(corpus), *SERVER_ARGS, "--port", str(self.port)]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, "-m", "benchmarks.perf.serve_traced",
                       str(trace_dir), *args]
        self.log = log
        started = time.perf_counter()
        with open(log, "ab") as handle:
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=subprocess_env(),
                stdout=subprocess.DEVNULL, stderr=handle)
        try:
            self._wait_healthy(started + 120.0)
        except BaseException:
            self.stop()
            raise
        self.setup_seconds = time.perf_counter() - started

    def _wait_healthy(self, deadline: float) -> None:
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.process.returncode}: "
                    f"{self.log.read_text()[-2000:]}")
            try:
                if _get_json(self.port, "/v1/healthz")["status"] == "ok":
                    return
            except (OSError, http.client.HTTPException, ValueError):
                pass  # not listening yet
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not become healthy in 120 s")
            time.sleep(0.01)

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then SIGKILL after 20 s.

        A killed server cannot reap its replica, and the replica holds
        both ends of its own pipe, so it is killed here as well.
        """
        if self.process.poll() is None:
            replicas = process_tree(self.process.pid)[1:]
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
                for pid in replicas:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass  # already gone

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
class _Client:
    """One keep-alive connection with ``TCP_NODELAY``; reconnects after errors."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._connection: http.client.HTTPConnection | None = None

    def post(self, body: bytes) -> tuple[int, bytes]:
        """``(status, body)``; status 0 for a timeout or transport error."""
        try:
            if self._connection is None:
                self._connection = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT)
                self._connection.connect()
                self._connection.sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._connection.request(
                "POST", "/v1/predict", body,
                {"Content-Type": "application/json"})
            response = self._connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


@dataclass
class Answer:
    index: int
    status: int
    payload: bytes
    latency: float     # seconds from due (open loop) or sent (closed loop)
    lateness: float    # seconds the open-loop send ran behind schedule


def _run_clients(port: int, work: Callable[[_Client, list], None]
                 ) -> list[Answer]:
    answers: list[Answer] = []
    clients = [_Client(port) for _ in range(CONNECTIONS)]
    threads = [threading.Thread(target=work, args=(client, answers))
               for client in clients]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for client in clients:
            client.close()
    return sorted(answers, key=lambda answer: answer.index)


def closed_loop(port: int, bodies: list[bytes], first: int, last: int,
                seconds: float) -> tuple[list[Answer], float]:
    """Each connection sends its next body when the previous answer arrives."""
    indices = iter(range(first, last))
    lock = threading.Lock()
    started = time.perf_counter()
    stop_at = started + seconds

    def work(client: _Client, answers: list) -> None:
        while time.perf_counter() < stop_at:
            with lock:
                index = next(indices, None)
            if index is None:
                return
            sent = time.perf_counter()
            status, payload = client.post(bodies[index])
            answers.append(Answer(index, status, payload,
                                  time.perf_counter() - sent, 0.0))

    answers = _run_clients(port, work)
    return answers, time.perf_counter() - started


def open_loop(port: int, bodies: list[bytes], first: int, count: int,
              rate: float) -> list[Answer]:
    """Body ``first + i`` is due at ``start + i / rate``, busy or not."""
    indices = iter(range(count))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def work(client: _Client, answers: list) -> None:
        while True:
            with lock:
                offset = next(indices, None)
            if offset is None:
                return
            due = start + offset / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            status, payload = client.post(bodies[first + offset])
            answers.append(Answer(first + offset, status, payload,
                                  time.perf_counter() - due, sent - due))

    return _run_clients(port, work)


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def repro_predict(corpus: Path, requests: Path, work: Path) -> list[dict]:
    """The single-engine answers: ``repro predict`` over the same bodies."""
    out = work / "responses.jsonl"
    subprocess.run(
        [sys.executable, "-m", "repro", "predict", str(requests), str(corpus),
         "--out", str(out)],
        cwd=ROOT, env=subprocess_env(), check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return [json.loads(line) for line in out.read_text().splitlines()
            if line.strip()]


def mismatches(answers: list[Answer], inputs: ServeInputs, work: Path,
               reference: Reference) -> int:
    """Answered requests whose label or score differs from the reference."""
    answered = [answer for answer in answers if answer.status == 200]
    requests = work / "requests.jsonl"
    requests.write_bytes(b"".join(inputs.bodies[answer.index] + b"\n"
                                  for answer in answered))
    expected = reference(inputs.corpus, requests, work)
    if len(expected) != len(answered):
        return len(answered)
    wrong = 0
    for answer, reference_answer in zip(answered, expected):
        got = json.loads(answer.payload)
        if (got.get("label") != reference_answer["label"]
                or got.get("score") != reference_answer["score"]):
            wrong += 1
    return wrong


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def _fleet_counters(port: int) -> tuple[dict, dict]:
    health = _get_json(port, "/v1/healthz")
    waves = next((item for item in _get_json(port, "/v1/metrics")
                  if item.get("name") == "serve.frontend.wave_size"),
                 {"count": 0, "mean": 0.0})
    return health["cache"], waves


def _capacity(answers: list[Answer], elapsed: float) -> float:
    return sum(answer.status == 200 for answer in answers) / elapsed


def run(kind: str, *, seed: int, seconds: float, trace: bool, work: Path,
        reference: Reference = repro_predict,
        warmup: int = WARMUP_REQUESTS,
        setup_starts: int = SETUP_STARTS) -> dict:
    """One run of ``serve_hot`` (``kind="hot"``) or ``serve_cold``.

    ``reference`` answers the same bodies for the correctness check;
    tests shrink ``warmup`` and ``setup_starts``.
    """
    closed_seconds = seconds * CLOSED_SHARE
    open_count = max(1, round(OPEN_RATE * (seconds - closed_seconds)))
    closed_first = warmup
    closed_last = closed_first + math.ceil(MAX_RATE * closed_seconds)
    inputs = build_inputs(kind, seed, work, closed_last + open_count)
    bodies = inputs.bodies
    log = work / "server.log"
    if trace:
        return _run_traced(inputs, seconds, work, log, reference, warmup)

    setups = []
    for _ in range(setup_starts - 1):
        with Server(inputs.corpus, log) as server:
            setups.append(server.setup_seconds)
    with Server(inputs.corpus, log) as server:
        setups.append(server.setup_seconds)
        warmed, _ = closed_loop(server.port, bodies, 0, warmup, math.inf)
        with PssSampler(server.process.pid) as memory:
            closed, elapsed = closed_loop(server.port, bodies, closed_first,
                                          closed_last, closed_seconds)
            opened = open_loop(server.port, bodies, closed_last, open_count,
                               OPEN_RATE)
    wrong = mismatches(warmed + closed + opened, inputs, work, reference)

    measured = closed + opened
    failed = sum(answer.status != 200 for answer in measured)
    latencies_ms = [answer.latency * 1e3 for answer in opened]
    lateness_ms = [answer.lateness * 1e3 for answer in opened]
    within_slo = sum(answer.status == 200 and answer.latency * 1e3 <= SLO_MS
                     for answer in opened)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "throughput_per_s": metric(_capacity(closed, elapsed), "1/s"),
        "p50_ms": metric(np.percentile(latencies_ms, 50), "ms"),
        "p90_ms": metric(np.percentile(latencies_ms, 90), "ms"),
        "peak_pss_mb": metric(memory.peak_mb, "MiB"),
    }
    extra = {
        "slo_attainment": metric(within_slo / len(opened), "ratio"),
        "error_rate": metric(failed / len(measured), "ratio"),
        "lateness_mean_ms": metric(float(np.mean(lateness_ms)), "ms"),
        "lateness_max_ms": metric(max(lateness_ms), "ms"),
    }
    notes = [f"closed loop: {len(closed)} requests in {elapsed:.2f} s on "
             f"{CONNECTIONS} connections",
             f"open loop: {len(opened)} requests at {OPEN_RATE:g} req/s; "
             f"p90 has {len(opened) - math.ceil(0.9 * len(opened))} "
             f"samples beyond it",
             f"correctness: {len(warmed) + len(measured) - failed} answers "
             f"checked against repro predict, {wrong} differ"]
    return result(correct=wrong == 0, attempted=len(measured), failed=failed,
                  metrics=metrics, extra=extra, inputs_digest=inputs.digest,
                  notes=notes)


def _run_traced(inputs: ServeInputs, seconds: float, work: Path, log: Path,
                reference: Reference, warmup: int) -> dict:
    """Untraced then traced server; per-layer metrics from the traced window."""
    bodies = inputs.bodies
    first, last = warmup, warmup + math.ceil(MAX_RATE * seconds * 0.25)
    open_count = max(1, round(OPEN_RATE * seconds * 0.5))
    with Server(inputs.corpus, log) as server:
        closed_loop(server.port, bodies, 0, warmup, math.inf)
        untraced, untraced_elapsed = closed_loop(
            server.port, bodies, first, last, seconds * 0.25)

    spans_dir = work / "spans"
    with Server(inputs.corpus, log, trace_dir=spans_dir) as server:
        warmed, _ = closed_loop(server.port, bodies, 0, warmup, math.inf)
        cache_before, waves_before = _fleet_counters(server.port)
        window_start = time.perf_counter()
        closed, elapsed = closed_loop(server.port, bodies, first, last,
                                      seconds * 0.25)
        opened = open_loop(server.port, bodies, last, open_count, OPEN_RATE)
        window_end = time.perf_counter()
        cache_after, waves_after = _fleet_counters(server.port)
    wrong = mismatches(warmed + closed + opened, inputs, work, reference)

    measured = closed + opened
    answered = [answer for answer in measured if answer.status == 200]
    lookups = sum(cache_after[key] - cache_before[key]
                  for key in ("hits", "misses"))
    waves = waves_after["count"] - waves_before["count"]
    measured_values = {
        "client_ms": float(np.mean([(a.latency - a.lateness) * 1e3
                                    for a in answered])),
        "hit_rate": ((cache_after["hits"] - cache_before["hits"]) / lookups
                     if lookups else 0.0),
        "wave_size": ((waves_after["mean"] * waves_after["count"]
                       - waves_before["mean"] * waves_before["count"]) / waves
                      if waves else 0.0),
        "trace_overhead": (_capacity(untraced, untraced_elapsed)
                           / _capacity(closed, elapsed)),
    }
    summary = aggregate(load_spans(spans_dir), window_start, window_end)
    metrics = layer_metrics(summary, LayerContext("serve", len(answered),
                                                  measured_values))
    failed = len(measured) - len(answered)
    notes = [f"traced window: {len(answered)} answered requests",
             f"correctness: {len(warmed) + len(answered)} answers checked "
             f"against repro predict, {wrong} differ"]
    return result(correct=wrong == 0, attempted=len(measured), failed=failed,
                  metrics=metrics, extra={}, inputs_digest=inputs.digest,
                  notes=notes)
