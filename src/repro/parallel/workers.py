"""The persistent OS-process worker pool behind the data-parallel engine.

Workers are forked (``multiprocessing.get_context("fork")``) so they
inherit the model, optimizer parameters and corpus by address-space copy
— no model pickling — and they **stay alive across steps**: each worker
runs a request/response loop over its private duplex pipe instead of
being re-forked per step.  The framing:

parent → worker
    ``("step", step_index, params_or_None, [(shard_index, payload), …])``
    ``("stop",)``

worker → parent
    ``("hb",)``                         liveness heartbeat while computing
    ``("ok", [(shard_index, grads, stats, seconds), …])``
    ``("error", traceback_text)``       the shard compute raised

``params`` (the step-start parameter arrays) rides along on every
data-parallel assignment: a slot receives one per step, and a
replacement receives its lost predecessor's.  The worker writes them
into its inherited parameter objects before computing, so forked copies
never drift from the parent.  The serving front-end sends ``None``: a
replica keeps the weights it was forked with.

While a worker is computing, a daemon heartbeat thread sends ``("hb",)``
frames every ``heartbeat_interval`` seconds (pipe writes serialized by a
lock) so the supervisor can distinguish a *wedged* process (silent) from
a *slow* one (still beating) — see the failure matrix in DESIGN.md
"Elastic data-parallel training".

The pool manages **worker slots**: each slot holds one live process at a
time.  It is also the one supervisor of those slots for both of its
owners, :class:`~repro.parallel.engine.DataParallelEngine` and
:class:`~repro.serve.frontend.ReplicatedFrontend`.
:meth:`WorkerPool.failure` decides whether a slot has failed, and
:meth:`WorkerPool.replace` reaps it and either respawns it after
exponential backoff — a fresh fork carrying an incremented
``generation`` (fault-injection plans key on it so a staged death never
re-fires on the replacement) — or retires it once its respawn budget is
spent.  What happens to the lost work stays with the owner: the engine
re-executes shards, the front-end requeues requests.

Determinism note: nothing here orders the gradient sum.  Workers may
finish in any order; the parent hands everything to
:func:`~repro.parallel.reduce.tree_reduce_grads`, which sorts by shard
index before folding.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import traceback
from typing import Any, Callable

import numpy as np

from .faults import FaultPlan, execute_fault

__all__ = ["WorkerError", "WorkerFailedError", "WorkerPool", "WorkerHandle",
           "SUPERVISOR_COUNTERS"]

#: Grace given to a worker to exit after a ``stop``/SIGTERM before the
#: next escalation level (seconds).
_JOIN_GRACE = 5.0
_TERM_GRACE = 1.0

#: The counter each owner records a supervisor action under, after its
#: own prefix (``parallel.respawns``, ``serve.frontend.respawns``, ...).
SUPERVISOR_COUNTERS = {"worker_death": "worker_deaths",
                       "worker_respawn": "respawns",
                       "pool_degraded": "degraded"}


class WorkerError(RuntimeError):
    """A worker process failed; carries the remote traceback text."""


class WorkerFailedError(WorkerError):
    """A specific worker failed at a specific step.

    Raised for shard computes that raised remotely — re-execution is
    deterministic, so it would fail again — and for transport failures
    the supervisor cannot attribute.  The failure names ``worker`` and
    ``step`` so operators see *which* process failed *when* instead of a
    raw pipe traceback.
    """

    def __init__(self, worker: int, step: int, reason: str) -> None:
        who = f"worker {worker}" if worker >= 0 else "worker transport"
        super().__init__(f"{who} failed at step {step}: {reason}")
        self.worker = worker
        self.step = step
        self.reason = reason


def _send_frame(connection, frame: tuple, lock: threading.Lock) -> bool:
    """Best-effort pipe send; ``False`` when the peer is gone."""
    try:
        with lock:
            # The send lock only serializes heartbeat vs reply frames
            # on one pipe; a wedged peer is reaped by the supervisor's
            # heartbeat timeout, never waited out here.
            connection.send(frame)  # lock-ok: supervisor reaps wedged peers
        return True
    except (BrokenPipeError, EOFError, OSError):
        return False


def _worker_main(connection, inherited: list, slot: int, generation: int,
                 run_shard: Callable[[Any], tuple[dict, dict]],
                 sync: Callable[[list[np.ndarray]], None],
                 heartbeat_interval: float,
                 fault_plan: FaultPlan | None) -> None:
    """Child loop: recv a step, heartbeat while computing, reply.

    ``inherited`` holds the parent-side pipe ends the fork copied in —
    this worker's own and every live sibling's.  They are closed first:
    while the child holds one, its parent end of its own pipe never
    reaches zero references, so a parent killed outright (SIGKILL, no
    ``stop`` frame) would leave ``recv`` blocked forever instead of
    raising ``EOFError``.
    """
    for stale in inherited:
        stale.close()
    lock = threading.Lock()
    busy = threading.Event()
    stopping = threading.Event()

    def beat() -> None:
        while not stopping.wait(heartbeat_interval):
            if busy.is_set():
                if not _send_frame(connection, ("hb",), lock):
                    return

    heartbeat = threading.Thread(target=beat, daemon=True)
    if heartbeat_interval > 0:
        heartbeat.start()
    try:
        while True:
            message = connection.recv()
            if message[0] == "stop":
                break
            _, step, params, assigned = message
            busy.set()
            try:
                fault = (fault_plan.match(step, slot, generation)
                         if fault_plan is not None else None)
                if fault is not None:
                    execute_fault(fault)  # die exits; hang/delay sleep
                if params is not None:
                    sync(params)
                results = []
                for shard_index, payload in assigned:
                    started = time.perf_counter()
                    grads, stats = run_shard(payload)
                    elapsed = time.perf_counter() - started
                    results.append((shard_index, grads, stats, elapsed))
                reply = ("ok", results)
            except BaseException:
                reply = ("error", traceback.format_exc())
            finally:
                busy.clear()
            if not _send_frame(connection, reply, lock):
                break
    except (EOFError, KeyboardInterrupt):
        stopping.set()  # parent went away or interrupted: quiet exit
    except OSError:
        stopping.set()  # pipe torn down mid-recv: same as EOF
    finally:
        stopping.set()
        connection.close()


class WorkerHandle:
    """One live worker incarnation bound to a slot.

    Tracks the liveness bookkeeping :meth:`WorkerPool.failure` reads:
    when the pipe last produced any frame (``last_seen``), when the
    in-flight dispatch was sent (``sent_at``, ``None`` while idle) and
    whether the pipe was found closed (``closed``).
    """

    __slots__ = ("slot", "generation", "process", "connection",
                 "last_seen", "sent_at", "closed")

    def __init__(self, slot: int, generation: int, process,
                 connection) -> None:
        self.slot = slot
        self.generation = generation
        self.process = process
        self.connection = connection
        self.last_seen = time.monotonic()
        self.sent_at: float | None = None
        self.closed = False


def _ignore_event(action: str, slot: int, reason: str) -> None:
    """The supervisor callback of a pool whose owner records nothing."""


class WorkerPool:
    """N persistent forked worker slots, one duplex pipe each, lazy start.

    The pool supervises its slots.  The owner asks :meth:`failure` about
    a slot on each of its passes and hands a failed one to
    :meth:`replace`; ``on_event(action, slot, reason)`` hears every
    ``worker_death``, ``worker_respawn`` and ``pool_degraded``.
    ``dispatch_deadline=0`` disables the per-dispatch wall bound and
    ``heartbeat_interval=0`` disables heartbeats (and with them the
    silence detector).
    """

    def __init__(self, workers: int,
                 run_shard: Callable[[Any], tuple[dict, dict]],
                 sync: Callable[[list[np.ndarray]], None], *,
                 heartbeat_interval: float = 0.5,
                 heartbeat_timeout: float = 10.0,
                 dispatch_deadline: float = 0.0,
                 max_respawns: int = 2,
                 respawn_backoff: float = 0.05,
                 on_event: Callable[[str, int, str], None] = _ignore_event,
                 fault_plan: FaultPlan | None = None,
                 stop_grace: float = _JOIN_GRACE,
                 term_grace: float = _TERM_GRACE) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers
        self._run_shard = run_shard
        self._sync = sync
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_timeout = heartbeat_timeout
        self._dispatch_deadline = dispatch_deadline
        self._max_respawns = max_respawns
        self._respawn_backoff = respawn_backoff
        self._on_event = on_event
        self._fault_plan = fault_plan
        self._stop_grace = stop_grace
        self._term_grace = term_grace
        self._handles: dict[int, WorkerHandle] = {}
        self._generations: dict[int, int] = {}
        self._respawns: dict[int, int] = {}
        self._started = False

    # -- membership -----------------------------------------------------
    def live_slots(self) -> list[int]:
        """Slots that currently hold a process, in slot order."""
        return sorted(self._handles)

    def handle(self, slot: int) -> WorkerHandle:
        return self._handles[slot]

    # -- lifecycle ------------------------------------------------------
    def _context(self):
        """The 'fork' context (POSIX): spawn/forkserver would re-import
        rather than inherit the live model, and this engine's contract
        is inherit-by-fork."""
        try:
            return multiprocessing.get_context("fork")
        except ValueError as error:  # pragma: no cover — non-POSIX only
            raise WorkerError(
                "data-parallel workers need the 'fork' start method; "
                "use workers=1 on this platform") from error

    def start(self) -> None:
        """Fork one process per slot; idempotent."""
        if self._started:
            return
        self._started = True
        for slot in range(self.workers):
            self.spawn(slot)

    def spawn(self, slot: int) -> WorkerHandle:
        """Fork a fresh process into ``slot`` (generation increments)."""
        if slot in self._handles:
            raise WorkerError(f"slot {slot} already holds a live worker")
        generation = self._generations.get(slot, -1) + 1
        self._generations[slot] = generation
        context = self._context()
        parent_end, child_end = context.Pipe()
        inherited = [parent_end, *(handle.connection
                                   for handle in self._handles.values())]
        process = context.Process(
            target=_worker_main,
            args=(child_end, inherited, slot, generation, self._run_shard,
                  self._sync, self._heartbeat_interval, self._fault_plan),
            daemon=True)
        process.start()
        child_end.close()
        handle = WorkerHandle(slot, generation, process, parent_end)
        self._handles[slot] = handle
        return handle

    def reap(self, slot: int) -> None:
        """Forcibly remove a slot's process: SIGKILL, join, close pipe.

        SIGKILL (not SIGTERM) because the slot is only reaped once
        :meth:`failure` has declared it dead or wedged — a process that
        missed its deadline cannot be trusted to honor a signal handler,
        and a half-written reply must never be read.
        """
        handle = self._handles.pop(slot, None)
        if handle is None:
            return
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join(timeout=_JOIN_GRACE)
        handle.connection.close()

    def close(self) -> None:
        """Stop and join every worker; idempotent, never raises.

        Escalation ladder per process: cooperative ``("stop",)`` frame →
        ``join(5s)`` → SIGTERM → ``join(1s)`` → SIGKILL → ``join``.  Both
        pipe ends are always closed (the child end was closed right
        after fork), so no descriptor and no zombie survives close.
        """
        lock = threading.Lock()
        for handle in self._handles.values():
            _send_frame(handle.connection, ("stop",), lock)
        for handle in self._handles.values():
            handle.process.join(timeout=self._stop_grace)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=self._term_grace)
            if handle.process.is_alive():  # ignores SIGTERM: escalate
                handle.process.kill()
                handle.process.join()
            handle.connection.close()
        self._handles = {}
        self._started = False

    # -- supervision ----------------------------------------------------
    def failure(self, slot: int) -> str | None:
        """Why ``slot`` has failed, or ``None`` while it is healthy.

        Any slot fails when its process has died or its pipe has
        closed.  A slot with work in flight also fails past the dispatch
        deadline (stuck, or pathologically slow while still beating) or
        after ``heartbeat_timeout`` with no frame (wedged).  An idle
        slot never fails on silence: idle workers send no heartbeats.
        """
        handle = self._handles[slot]
        if not handle.process.is_alive():
            return ("worker process died "
                    f"(exitcode={handle.process.exitcode})")
        if handle.closed:
            return "worker pipe closed"
        if handle.sent_at is None:
            return None
        now = time.monotonic()
        if (self._dispatch_deadline > 0
                and now - handle.sent_at > self._dispatch_deadline):
            return f"dispatch deadline ({self._dispatch_deadline:g}s) exceeded"
        if (self._heartbeat_interval > 0
                and now - handle.last_seen > self._heartbeat_timeout):
            return f"no heartbeat for {self._heartbeat_timeout:g}s"
        return None

    def replace(self, slot: int, reason: str) -> bool:
        """Reap a failed slot, then respawn it or retire it.

        The slot is reaped first (SIGKILL, pipe closed).  Its ``k``-th
        respawn forks the next generation after
        ``respawn_backoff * 2**k`` seconds and returns ``True``; past
        ``max_respawns`` the slot is retired, the pool degrades to fewer
        workers, and the result is ``False``.  The owner decides what
        happens to the slot's lost work.
        """
        self.reap(slot)
        self._on_event("worker_death", slot, reason)
        attempts = self._respawns.get(slot, 0)
        if attempts >= self._max_respawns:
            self._on_event("pool_degraded", slot,
                           f"slot retired after {attempts} respawns; "
                           f"{len(self._handles)} workers remain")
            return False
        self._respawns[slot] = attempts + 1
        backoff = self._respawn_backoff * 2 ** attempts
        if backoff > 0:
            time.sleep(backoff)
        self.spawn(slot)
        self._on_event("worker_respawn", slot,
                       f"respawn {attempts + 1}/{self._max_respawns} "
                       f"after {backoff:g}s backoff")
        return True

    # -- transport ------------------------------------------------------
    def send(self, slot: int, step: int, params: list[np.ndarray] | None,
             assigned: list[tuple[int, Any]]) -> None:
        """Dispatch one wave's shards (plus optional parameter sync).

        A closed pipe (the worker died since its last reply) is not
        raised here: the slot is marked, and :meth:`failure` reports it
        on the owner's next pass like any other loss.
        """
        self.start()
        handle = self._handles[slot]
        try:
            handle.connection.send(("step", step, params, assigned))
        except OSError:
            handle.closed = True
        handle.last_seen = handle.sent_at = time.monotonic()

    def poll(self, slot: int, timeout: float = 0.0):
        """Receive the next frame from a slot within ``timeout``.

        Returns one of ``("ok", results)``, ``("error", text)``,
        ``("hb", None)`` or ``(None, None)`` when nothing arrived in
        time.  Any received frame refreshes the handle's ``last_seen``;
        a closed pipe, or a frame outside the protocol, marks the slot
        for :meth:`failure` to report.
        """
        handle = self._handles[slot]
        try:
            if not handle.connection.poll(timeout):
                return (None, None)
            frame = handle.connection.recv()
        except (EOFError, OSError):
            handle.closed = True
            return (None, None)
        handle.last_seen = time.monotonic()
        if frame[0] == "hb":
            return ("hb", None)
        if frame[0] in ("ok", "error"):
            handle.sent_at = None
            return (frame[0], frame[1])
        handle.closed = True  # unknown frame: treat the peer as broken
        return (None, None)
