"""The replicated serving tier: admission control over N model replicas.

``repro serve`` outgrew its single synchronous process here.  The
front-end owns the *request lifecycle* — admit → enqueue → dispatch →
complete, with deadline and shed exits at every stage — while the model
forwards run on N **replica workers**: persistent forked processes on a
:class:`~repro.parallel.workers.WorkerPool`, which supervises them the
way it supervises data-parallel training workers (request/response
pipes, heartbeats, SIGKILL reaping and backoff respawn).  Each
replica inherits the parent's :class:`~repro.serve.engine.InferenceEngine`
by fork (no model pickling) and answers whole waves of decoded requests.

The lifecycle stages and their exits:

- **admit** — the bounded :class:`AdmissionQueue` is the backpressure
  valve: a full queue *sheds* the request immediately with a structured
  retryable ``overloaded`` error instead of queueing unboundedly and
  hanging every client behind a growing backlog.
- **enqueue** — each ticket carries an optional absolute deadline.  A
  ticket that expires while queued is failed as ``deadline_exceeded``
  and is **never dispatched** — a worker's time is only spent on
  requests someone still wants.
- **dispatch** — a single dispatcher thread forms waves of up to
  ``max_batch`` tickets per free replica.  Routing prefers the ticket's
  :func:`~repro.serve.requests.affinity_key` slot (tables hash to
  replicas, so the fleet caches each table once — replica-aware cache
  dedup), but steals work for idle replicas: affinity is a locality
  hint, never a correctness requirement, because predictions are
  byte-identical on every replica (see ``repro.serve.engine``'s
  determinism contract).
- **complete / recover** — replies resolve tickets.  Every dispatcher
  pass asks the pool about every live replica, busy or idle; a replica
  that dies, or goes silent past the heartbeat timeout while it holds a
  wave, is reaped and respawned (exponential backoff, bounded per slot)
  and its wave re-enqueued at the front; past the respawn budget the
  slot retires and the pool *degrades*.  With no replicas left, waves
  run inline in the parent — same canonical numerics, same bytes.

Telemetry lands under ``serve.frontend.*`` (queue depth, sheds,
deadline expiries, dispatches, worker deaths/respawns/degradations)
with ``kind="frontend"`` trace events.
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as _mp_connection
from typing import Any, Callable

from .engine import InferenceEngine
from .requests import affinity_key, json_safe_label
from ..parallel.workers import SUPERVISOR_COUNTERS, WorkerPool
from ..runtime import MetricsRegistry, get_registry, set_registry

__all__ = ["FrontendConfig", "ServeTicket", "AdmissionQueue",
           "ReplicatedFrontend"]

#: Dispatcher wake granularity (seconds) — bounds shed/deadline/failure
#: detection latency, never correctness.
_POLL_GRANULARITY = 0.02

#: Namespace of every front-end instrument in the global registry.
_METRICS_PREFIX = "serve.frontend"


@dataclass(frozen=True)
class FrontendConfig:
    """Admission, deadline and replication knobs for the serving tier.

    ``replicas=0`` serves in-process (no forks) behind the same
    admission queue and deadline machinery; ``replicas=N`` forks N
    persistent replica workers, supervised with the
    :class:`~repro.parallel.workers.WorkerPool` defaults and
    ``max_respawns`` replacements per slot.  ``deadline_seconds=0``
    disables per-request deadlines.
    """

    replicas: int = 0
    max_queue: int = 64
    deadline_seconds: float = 0.0
    max_batch: int = 8
    max_respawns: int = 2

    def __post_init__(self) -> None:
        if self.replicas < 0:
            raise ValueError("replicas must be >= 0")
        if self.max_queue < 1:
            raise ValueError("max_queue must be positive")
        if self.deadline_seconds < 0:
            raise ValueError("deadline_seconds must be non-negative")
        if self.max_batch < 1:
            raise ValueError("max_batch must be positive")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be non-negative")


class ServeTicket:
    """One admitted (or immediately shed) request and its eventual answer.

    Handler threads block on :meth:`wait`; the dispatcher resolves the
    ticket exactly once with either a response dict or a structured
    error dict ``{"code", "message", "retryable"}``.
    """

    __slots__ = ("request_id", "task", "example", "affinity", "arrived",
                 "deadline_at", "response", "error", "_event")

    def __init__(self, request_id: int, task: str, example: Any,
                 affinity: str, arrived: float,
                 deadline_at: float | None) -> None:
        self.request_id = request_id
        self.task = task
        self.example = example
        self.affinity = affinity
        self.arrived = arrived
        self.deadline_at = deadline_at
        self.response: dict[str, Any] | None = None
        self.error: dict[str, Any] | None = None
        self._event = threading.Event()

    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until resolved; ``False`` on timeout."""
        return self._event.wait(timeout)

    def expired(self, now: float) -> bool:
        return self.deadline_at is not None and now > self.deadline_at

    # -- resolution (dispatcher side; first resolution wins) -----------
    def complete(self, response: dict[str, Any]) -> None:
        if not self._event.is_set():
            self.response = response
            self._event.set()

    def fail(self, code: str, message: str, retryable: bool) -> None:
        if not self._event.is_set():
            self.error = {"code": code, "message": message,
                          "retryable": retryable}
            self._event.set()


class AdmissionQueue:  # thread-shared
    """The bounded FIFO between admission and dispatch (thread-safe).

    ``admit`` is the only entry point under caller threads; everything
    else runs on the dispatcher.  ``max_queue`` counts *waiting*
    tickets only — in-flight waves have already left the queue.

    ``close`` wakes every waiter and makes both future waits return
    immediately and future admissions fail (the front-end answers them
    as ``shutdown``) — a ticket admitted after shutdown's final drain
    would otherwise hang its client forever.
    """

    def __init__(self, max_queue: int) -> None:
        self.max_queue = max_queue
        self._lock = threading.Lock()
        self.not_empty = threading.Condition(self._lock)
        self._queue: "deque[ServeTicket]" = deque()  # guarded-by: _lock
        self._stopping = False                       # guarded-by: _lock

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)

    def close(self) -> None:
        """Stop admissions and wake every ``wait_for_work`` caller.

        The flag flips under the same lock the waiters' predicate reads,
        so a waiter is either already past its predicate check (the
        ``notify_all`` lands) or has not reached it yet (it sees the
        flag) — there is no window where a close can be missed.
        """
        with self.not_empty:
            self._stopping = True
            self.not_empty.notify_all()

    def reopen(self) -> None:
        """Accept admissions again (frontend restart after ``close``)."""
        with self._lock:
            self._stopping = False

    def admit(self, ticket: ServeTicket) -> bool:
        """Append unless full; ``False`` means the caller must shed."""
        return self.admit_many([ticket])[0]

    def admit_many(self, tickets: list[ServeTicket]) -> list[bool]:
        """Admit a client-side batch atomically (one lock acquisition).

        The admitted prefix lands adjacent in the queue, so the
        dispatcher sees the whole batch as one candidate wave — a
        client batch is never split by a racing wave pop.  Tickets past
        the admission bound get ``False`` (the caller sheds them);
        admission is first-come within the batch, like the queue itself.
        A closed queue rejects everything.
        """
        with self._lock:
            verdicts = []
            for ticket in tickets:
                if self._stopping or len(self._queue) >= self.max_queue:
                    verdicts.append(False)
                    continue
                self._queue.append(ticket)
                verdicts.append(True)
            if any(verdicts):
                self.not_empty.notify()
            return verdicts

    def requeue(self, tickets: list[ServeTicket]) -> None:
        """Put recovered tickets back at the *front* (they waited longest).

        Recovery re-entry is exempt from the admission bound: the
        tickets were already admitted once and shedding them now would
        turn a replica failure into client-visible errors.
        """
        with self._lock:
            for ticket in reversed(tickets):
                self._queue.appendleft(ticket)
            if tickets:
                self.not_empty.notify()

    def pop_expired(self, now: float) -> list[ServeTicket]:
        """Remove every ticket whose deadline has passed."""
        with self._lock:
            keep: "deque[ServeTicket]" = deque()
            expired = []
            for ticket in self._queue:
                (expired if ticket.expired(now) else keep).append(ticket)
            self._queue = keep
            return expired

    def pop_for(self, slot_of: Callable[[ServeTicket], int], slot: int,
                limit: int) -> list[ServeTicket]:
        """Pop up to ``limit`` tickets routed to ``slot`` (FIFO among them)."""
        with self._lock:
            keep: "deque[ServeTicket]" = deque()
            taken: list[ServeTicket] = []
            for ticket in self._queue:
                if len(taken) < limit and slot_of(ticket) == slot:
                    taken.append(ticket)
                else:
                    keep.append(ticket)
            self._queue = keep
            return taken

    def pop_any(self, limit: int) -> list[ServeTicket]:
        """Pop the oldest ``limit`` tickets regardless of routing."""
        with self._lock:
            taken = []
            while self._queue and len(taken) < limit:
                taken.append(self._queue.popleft())
            return taken

    def wait_for_work(self, timeout: float) -> bool:
        """Block until work arrives, the queue closes, or ``timeout``.

        ``True`` means "something to do" (work queued or shutting
        down); ``False`` is a plain timeout.  The predicate runs under
        the same lock ``close``/``admit_many`` hold while mutating and
        notifying, so a close or admission landing between a caller's
        earlier emptiness probe and this wait cannot be lost; the
        bounded timeout caps the cost of any wakeup the OS still drops.
        """
        with self.not_empty:
            if self._queue or self._stopping:
                return True
            return self.not_empty.wait(timeout)


class ReplicatedFrontend:  # thread-shared
    """N byte-identical model replicas behind one admission queue.

    Parameters
    ----------
    engine:
        The fully-built inference engine.  With ``replicas > 0`` every
        worker inherits it by fork (warm caches ride along); the parent
        copy only runs when the pool has fully degraded.
    config:
        Admission/deadline/replication policy.
    clock:
        Injectable monotonic clock — tests drive deadlines and shed
        paths deterministically with a fake.  Worker liveness always
        uses real ``time.monotonic`` (a fake clock cannot see a real
        process die).
    """

    def __init__(self, engine: InferenceEngine,
                 config: FrontendConfig | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.engine = engine
        self.config = config or FrontendConfig()
        self.clock = clock
        self.queue = AdmissionQueue(self.config.max_queue)
        self._pool: WorkerPool | None = None
        if self.config.replicas > 0:
            self._pool = WorkerPool(
                self.config.replicas, self._serve_shard, self._sync_noop,
                max_respawns=self.config.max_respawns,
                on_event=self._on_pool_event)
        self._parent_pid = os.getpid()
        self._ids_lock = threading.Lock()
        self._next_id = 0  # guarded-by: _ids_lock
        # Lock order (outermost first): _lifecycle_lock -> _state_lock
        # -> queue._lock.  Pipe sends, ticket resolution, sleeps and
        # pool calls all happen *outside* these locks — a wedged
        # replica must never wedge healthz or admission bookkeeping.
        self._state_lock = threading.Lock()
        self._inflight: dict[int, list[ServeTicket]] = {}  # guarded-by: _state_lock
        self._wave_ids = 0  # guarded-by: _state_lock
        self._replica_cache: dict[int, dict[str, int]] = {}  # guarded-by: _state_lock
        self._lifecycle_lock = threading.Lock()
        self._dispatcher: threading.Thread | None = None  # guarded-by: _lifecycle_lock
        self._stopping = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReplicatedFrontend":
        """Fork the replica fleet (if any) and start the dispatcher.

        Idempotent.  Forking happens *here*, before traffic, so every
        replica inherits the same model bytes and any pre-warmed cache,
        and no handler thread holds a lock mid-fork.
        """
        with self._lifecycle_lock:
            if self._dispatcher is not None:
                return self
            if self._pool is not None:
                self._pool.start()
            self._stopping.clear()
            self.queue.reopen()
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="serve-dispatcher",
                daemon=True)
            self._dispatcher.start()
        return self

    def close(self) -> None:
        """Stop dispatching, fail whatever is still pending, reap workers."""
        self._stopping.set()
        self.queue.close()
        with self._lifecycle_lock:
            dispatcher, self._dispatcher = self._dispatcher, None
        if dispatcher is not None:
            dispatcher.join(timeout=10.0)
        with self._state_lock:
            pending = list(self._inflight.values())
            self._inflight.clear()
        for tickets in pending:
            for ticket in tickets:
                ticket.fail("shutdown", "server shutting down", True)
        for ticket in self.queue.pop_any(self.config.max_queue):
            ticket.fail("shutdown", "server shutting down", True)
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "ReplicatedFrontend":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Admission (handler threads)
    # ------------------------------------------------------------------
    def submit(self, task: str, example: Any) -> ServeTicket:
        """Admit one decoded request; the ticket resolves asynchronously.

        A full queue resolves the ticket *immediately* with the
        retryable ``overloaded`` error — admission control never
        blocks the caller behind a backlog it cannot join.
        """
        return self.submit_many([(task, example)])[0]

    def submit_many(self, submissions: list[tuple[str, Any]]
                    ) -> list[ServeTicket]:
        """Admit a client-side batch atomically.

        The batch enters the queue adjacent and unsplit, so it
        dispatches as one wave (up to ``max_batch``).  Tickets the
        bound rejects resolve immediately as retryable ``overloaded``
        sheds; the rest proceed — one shed never fails its batch-mates.
        After :meth:`close`, every ticket resolves immediately as
        retryable ``shutdown``.
        """
        for task, _ in submissions:
            if task not in self.engine.predictors:
                raise KeyError(f"no predictor for task {task!r}; serving "
                               f"{sorted(self.engine.predictors)}")
        now = self.clock()
        deadline_at = (now + self.config.deadline_seconds
                       if self.config.deadline_seconds > 0 else None)
        tickets = []
        with self._ids_lock:
            for task, example in submissions:
                tickets.append(ServeTicket(
                    self._next_id, task, example,
                    affinity_key(task, example), now, deadline_at))
                self._next_id += 1
        registry = get_registry()
        registry.counter(f"{_METRICS_PREFIX}.requests").inc(len(tickets))
        verdicts = self.queue.admit_many(tickets)
        for ticket, admitted in zip(tickets, verdicts):
            if admitted:
                continue
            if self._stopping.is_set():
                # close() sets the flag before it closes the queue.
                ticket.fail("shutdown", "server shutting down", True)
                continue
            registry.counter(f"{_METRICS_PREFIX}.shed").inc()
            registry.emit({"kind": "frontend", "action": "shed",
                           "id": ticket.request_id, "task": ticket.task,
                           "queue_depth": len(self.queue)})
            ticket.fail("overloaded",
                        f"admission queue full ({self.config.max_queue}); "
                        "retry with backoff", True)
        registry.histogram(f"{_METRICS_PREFIX}.queue_depth").observe(
            len(self.queue))
        return tickets

    def process(self, submissions: list[tuple[str, Any]],
                timeout: float | None = None) -> list[dict[str, Any]]:
        """Submit-and-wait convenience (batch files, benches, tests).

        Returns one dict per submission, in submission order: either a
        response dict or ``{"error": {...}}`` for shed/expired/failed
        tickets.
        """
        self.start()
        tickets = self.submit_many(submissions)
        results = []
        for ticket in tickets:
            if not ticket.wait(timeout):
                ticket.fail("timeout", "client wait timed out", True)
            results.append(self.result_payload(ticket))
        return results

    @staticmethod
    def result_payload(ticket: ServeTicket) -> dict[str, Any]:
        if ticket.response is not None:
            return ticket.response
        return {"error": dict(ticket.error or
                              {"code": "internal", "message": "unresolved",
                               "retryable": False})}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    def live_replicas(self) -> int:
        if self._pool is None:
            return 0
        return len(self._pool.live_slots())

    def healthz(self) -> dict[str, Any]:
        """Liveness plus the gauges an operator pages on."""
        registry = get_registry()
        live = self.live_replicas()
        configured = self.config.replicas
        fleet: dict[str, int] = {"entries": 0, "hits": 0, "misses": 0,
                                 "evictions": 0}
        with self._state_lock:
            replica_stats = [dict(stats)
                             for stats in self._replica_cache.values()]
            inflight_waves = len(self._inflight)
        for stats in replica_stats:
            for key in fleet:
                fleet[key] += int(stats.get(key, 0))
        parent = self.engine.cache.stats()
        if configured == 0:
            fleet = parent
        return {
            "status": ("ok" if configured == 0 or live == configured
                       else "degraded"),
            "tasks": sorted(self.engine.predictors),
            "replicas": configured,
            "live_replicas": live,
            "queue_depth": self.queue_depth,
            "max_queue": self.config.max_queue,
            "inflight_waves": inflight_waves,
            "shed": int(registry.counter(f"{_METRICS_PREFIX}.shed").value),
            "deadline_expired": int(registry.counter(
                f"{_METRICS_PREFIX}.deadline_expired").value),
            "cache": fleet,
        }

    # ------------------------------------------------------------------
    # Replica-side execution (runs in forked workers; also the inline
    # fallback in the parent)
    # ------------------------------------------------------------------
    def _sync_noop(self, arrays: list) -> None:
        """Serving never syncs parameters — weights are fork-frozen."""

    def _serve_shard(self, payload: list[tuple[int, str, Any]]
                     ) -> tuple[dict, dict]:
        """Answer one wave of decoded requests through the local engine.

        Shaped as a :class:`WorkerPool` ``run_shard`` callable: returns
        ``(results, stats)``.  Failures are caught per *request*, so one
        poisoned example never takes down its wave-mates or the replica.
        """
        if os.getpid() != self._parent_pid and get_registry().sinks:
            # First wave in a fresh fork: drop inherited sinks so N
            # replicas never interleave writes into the parent's JSONL
            # artifact through inherited file descriptors.
            set_registry(MetricsRegistry())
        responses = []
        for request_id, task, example in payload:
            try:
                answered = self.engine.process([(task, example)])[0]
                responses.append({
                    "id": request_id, "task": task, "ok": True,
                    "label": json_safe_label(answered.prediction.label),
                    "score": answered.prediction.score,
                })
            except Exception as error:
                responses.append({
                    "id": request_id, "task": task, "ok": False,
                    "message": f"{type(error).__name__}: {error}",
                })
        return ({"responses": responses,
                 "cache": self.engine.cache.stats()},
                {"served": len(responses)})

    # ------------------------------------------------------------------
    # Dispatcher (single thread)
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stopping.is_set():
            now = self.clock()
            self._fail_expired(self.queue.pop_expired(now), "queued")
            if self._pool is not None:
                self._drain_replies()
                self._supervise()
            self._dispatch_free()
            self._idle_wait()

    def _idle_wait(self) -> None:
        if self._stopping.is_set():
            return
        if self._pool is not None:
            with self._state_lock:
                busy = list(self._inflight)
            connections = [self._pool.handle(slot).connection
                           for slot in busy
                           if slot in self._pool.live_slots()]
            if connections:
                _mp_connection.wait(connections, timeout=_POLL_GRANULARITY)
                return
        if len(self.queue) == 0:
            self.queue.wait_for_work(_POLL_GRANULARITY)

    def _fail_expired(self, tickets: list[ServeTicket], where: str) -> None:
        if not tickets:
            return
        registry = get_registry()
        for ticket in tickets:
            registry.counter(f"{_METRICS_PREFIX}.deadline_expired").inc()
            registry.emit({"kind": "frontend", "action": "deadline_expired",
                           "id": ticket.request_id, "task": ticket.task,
                           "where": where})
            ticket.fail("deadline_exceeded",
                        f"deadline ({self.config.deadline_seconds:g}s) "
                        f"exceeded while {where}", True)

    def _slot_of(self, ticket: ServeTicket, live: list[int]) -> int:
        """Stable affinity routing over the currently-live replicas."""
        digest = zlib.crc32(ticket.affinity.encode())
        return live[digest % len(live)]

    def _dispatch_free(self) -> None:
        if self._pool is None:
            batch = self.queue.pop_any(self.config.max_batch)
            if batch:
                self._execute_inline(batch)
            return
        live = self._pool.live_slots()
        if not live:
            batch = self.queue.pop_any(self.config.max_batch)
            if batch:
                self._execute_inline(batch)
            return
        with self._state_lock:
            busy = set(self._inflight)
        free = [slot for slot in live if slot not in busy]
        for slot in free:
            batch = self.queue.pop_for(
                lambda t: self._slot_of(t, live), slot, self.config.max_batch)
            if not batch:
                # Work conservation beats affinity: an idle replica
                # steals the head of the queue rather than sit out.
                batch = self.queue.pop_any(self.config.max_batch)
            if not batch:
                continue
            self._send_wave(slot, batch)

    def _send_wave(self, slot: int, batch: list[ServeTicket]) -> None:
        payload = [(t.request_id, t.task, t.example) for t in batch]
        with self._state_lock:
            wave_id = self._wave_ids
            self._wave_ids += 1
        registry = get_registry()
        # Pipe send stays outside _state_lock; only the dispatcher sends,
        # so registering the wave after the send is safe.  A closed pipe
        # shows up as the slot's failure on the next supervision pass.
        self._pool.send(slot, wave_id, None, [(wave_id, payload)])
        with self._state_lock:
            self._inflight[slot] = batch
        registry.counter(f"{_METRICS_PREFIX}.dispatches").inc()
        registry.histogram(f"{_METRICS_PREFIX}.wave_size").observe(len(batch))

    def _execute_inline(self, batch: list[ServeTicket]) -> None:
        """Serve a wave in the parent process (replicas=0 or fully degraded).

        Byte-identical to a replica serving it: same engine, same
        canonical per-example numerics.
        """
        registry = get_registry()
        if self._pool is not None:
            registry.counter(f"{_METRICS_PREFIX}.fallbacks").inc()
        registry.counter(f"{_METRICS_PREFIX}.dispatches").inc()
        registry.histogram(f"{_METRICS_PREFIX}.wave_size").observe(len(batch))
        payload = [(t.request_id, t.task, t.example) for t in batch]
        result, _stats = self._serve_shard(payload)
        self._complete_wave(batch, result, replica=-1)

    def _drain_replies(self) -> None:
        with self._state_lock:
            slots = list(self._inflight)
        for slot in slots:
            if slot not in self._pool.live_slots():
                continue
            status, payload = self._pool.poll(slot)
            while status == "hb":
                status, payload = self._pool.poll(slot)
            if status == "ok":
                with self._state_lock:
                    batch = self._inflight.pop(slot)
                for shard_index, result, _stats, _secs in payload:
                    self._complete_wave(batch, result, replica=slot)
            elif status == "error":
                # run_shard catches per request; this frame means the
                # replica loop itself blew up — deterministic, so
                # re-execution would fail again.  Fail the wave.
                with self._state_lock:
                    batch = self._inflight.pop(slot)
                for ticket in batch:
                    ticket.fail("internal",
                                f"replica {slot} failed: {payload}", False)

    def _supervise(self) -> None:
        """Ask the pool about every live replica, busy or idle."""
        for slot in self._pool.live_slots():
            reason = self._pool.failure(slot)
            if reason is not None:
                self._recover_slot(slot, reason)

    def _recover_slot(self, slot: int, reason: str) -> None:
        """Replace a failed replica, then requeue or deadline-fail its wave."""
        with self._state_lock:
            batch = self._inflight.pop(slot, [])
            self._replica_cache.pop(slot, None)
        self._pool.replace(slot, reason)
        now = self.clock()
        expired = [t for t in batch if t.expired(now)]
        self._fail_expired(expired, "recovering")
        survivors = [t for t in batch if not t.expired(now)]
        if survivors:
            get_registry().counter(
                f"{_METRICS_PREFIX}.redispatched").inc(len(survivors))
            self.queue.requeue(survivors)

    def _on_pool_event(self, action: str, slot: int, reason: str) -> None:
        """Record a supervisor action of the replica pool."""
        registry = get_registry()
        registry.counter(
            f"{_METRICS_PREFIX}.{SUPERVISOR_COUNTERS[action]}").inc()
        registry.emit({"kind": "frontend", "action": action,
                       "worker": slot, "reason": reason})

    def _complete_wave(self, batch: list[ServeTicket], result: dict,
                       replica: int) -> None:
        by_id = {ticket.request_id: ticket for ticket in batch}
        if replica >= 0 and "cache" in result:
            with self._state_lock:
                self._replica_cache[replica] = result["cache"]
        now = self.clock()
        registry = get_registry()
        late = [ticket for ticket in batch if ticket.expired(now)]
        self._fail_expired(late, "in flight")
        for entry in result.get("responses", []):
            ticket = by_id.get(entry["id"])
            if ticket is None or ticket.done():
                continue
            if not entry.get("ok"):
                ticket.fail("internal", entry.get("message", "replica error"),
                            False)
                continue
            latency = max(0.0, now - ticket.arrived)
            registry.timer(f"{_METRICS_PREFIX}.latency_seconds").observe(
                latency)
            registry.emit({
                "kind": "frontend", "action": "answered",
                "id": ticket.request_id, "task": ticket.task,
                "replica": replica, "latency_seconds": latency,
                "batch_size": len(batch),
            })
            ticket.complete({
                "id": ticket.request_id,
                "task": ticket.task,
                "label": entry["label"],
                "score": entry["score"],
                "latency_seconds": latency,
                "batch_size": len(batch),
                "replica": replica,
            })
