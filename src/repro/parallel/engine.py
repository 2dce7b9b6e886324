"""The data-parallel step engine: shard → compute → fixed-order reduce.

:class:`DataParallelEngine` owns scheduling, reduction **and the
re-execution of lost shards**; *what* a shard computes stays with the
caller, passed in as ``compute(payload) -> stats``.  The contract:

- ``compute`` runs forward+backward for one shard payload against the
  live ``parameters`` and returns a JSON-able stats dict; the engine
  harvests ``p.grad`` afterwards (as a sparse ``{param_index: grad}``
  dict) and clears it, so consecutive shards never cross-accumulate.
- Per-shard losses must already carry their global normalization (e.g.
  ``n_shard_targets / n_total_targets`` scaling), so the engine's job is
  a plain unweighted sum — performed by the fixed-order reduction tree
  in :mod:`repro.parallel.reduce`, which is what makes the combined
  gradient bit-identical for every worker count and completion order.
- ``workers=1`` runs shards in-process in shard order (no fork, no
  pickling); ``workers>1`` forks a persistent
  :class:`~repro.parallel.workers.WorkerPool` lazily on the first step
  and syncs parameter arrays to it each step.

**Elastic supervision.**  The pool is the supervisor
(:meth:`~repro.parallel.workers.WorkerPool.failure` and
:meth:`~repro.parallel.workers.WorkerPool.replace`, fed from this
engine's config): while replies are pending it declares a worker failed
when the process dies, goes silent past ``heartbeat_timeout`` or misses
its ``step_deadline``, reaps it (SIGKILL, pipe closed) and replaces it
with a fresh fork after exponential backoff, up to ``max_respawns`` per
slot; past that the slot is retired and the pool *degrades* to fewer
workers.  The engine deterministically re-executes the lost shards — on
the replacement, or in-process when the slot was retired — which
preserves the bit-identity guarantee: a shard gradient is a pure
function of the step-start parameter bytes and the shard payload, and
the reduction tree orders by shard index, never by who computed it or
when.

Telemetry lands in the process registry: ``parallel.shard_ms``/
``parallel.reduce_ms``/``parallel.imbalance`` as before, plus the
supervisor counters ``parallel.worker_deaths``, ``parallel.respawns``
and ``parallel.degraded`` with ``kind="supervisor"`` events (mirrored
through an attached :class:`~repro.runtime.HealthMonitor` when one is
wired in).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from multiprocessing import connection as _mp_connection
from typing import Any, Callable, Sequence

import numpy as np

from .config import ParallelConfig
from .plan import assign_round_robin
from .reduce import tree_reduce_grads
from .workers import SUPERVISOR_COUNTERS, WorkerFailedError, WorkerPool
from ..runtime import get_registry, telemetry_enabled

__all__ = ["DataParallelEngine", "EngineStep"]

#: How often the engine wakes to ask the pool about silent workers while
#: waiting for replies (seconds).  Purely a polling granularity — it
#: bounds detection latency, never correctness.
_POLL_GRANULARITY = 0.05

_RawResult = tuple[int, dict, dict, float]


@dataclass
class EngineStep:
    """What one engine step produced, ordered by shard index."""

    grads: dict[int, np.ndarray]
    stats: list[dict]
    shard_seconds: list[float]
    reduce_seconds: float

    @property
    def imbalance(self) -> float:
        """``max/mean - 1`` over shard compute times (0 = balanced)."""
        if len(self.shard_seconds) < 2:
            return 0.0
        mean = sum(self.shard_seconds) / len(self.shard_seconds)
        if mean <= 0.0:
            return 0.0
        return max(self.shard_seconds) / mean - 1.0


class DataParallelEngine:
    """Schedules shard computations, recovers lost ones, reduces grads."""

    def __init__(self, parameters: Sequence,
                 compute: Callable[[Any], dict],
                 config: ParallelConfig | None = None,
                 health=None) -> None:
        self.parameters = list(parameters)
        self.compute = compute
        self.config = config or ParallelConfig()
        self.health = health
        self._pool: WorkerPool | None = None
        self._steps = 0

    # -- shard execution ------------------------------------------------
    def _run_shard(self, payload: Any) -> tuple[dict[int, np.ndarray], dict]:
        """Compute one shard against the live parameters; harvest grads."""
        for parameter in self.parameters:
            parameter.zero_grad()
        stats = self.compute(payload)
        grads = {index: parameter.grad
                 for index, parameter in enumerate(self.parameters)
                 if parameter.grad is not None}
        for parameter in self.parameters:
            parameter.zero_grad()
        return grads, stats

    def _sync(self, arrays: list[np.ndarray]) -> None:
        """Overwrite parameter storage in place (worker-side per step)."""
        for parameter, value in zip(self.parameters, arrays):
            parameter.assign(value)

    def _run_inline(self, shards: list[tuple[int, Any]]) -> list[_RawResult]:
        """Re-execute shards in the parent process (degraded fallback).

        Bit-identical to a worker executing them: the parent's parameter
        bytes *are* the step-start bytes every worker synced from.
        """
        results: list[_RawResult] = []
        for shard_index, payload in shards:
            started = time.perf_counter()
            grads, stats = self._run_shard(payload)
            elapsed = time.perf_counter() - started
            results.append((shard_index, grads, stats, elapsed))
        return results

    # -- the step -------------------------------------------------------
    def step(self, payloads: Sequence[Any]) -> EngineStep:
        """Run every shard payload, return the tree-combined gradients.

        The result is bit-identical for any ``workers`` setting — and
        for any pattern of worker deaths, hangs, respawns or pool
        degradation — because shard decomposition happened upstream,
        per-shard numerics run on identical parameter bytes (fork +
        per-step sync), and the reduce orders contributions by shard
        index, never by completion or by executor.
        """
        if not payloads:
            raise ValueError("engine step needs at least one shard payload")
        num_shards = len(payloads)
        shards = list(enumerate(payloads))
        step_index = self._steps
        self._steps += 1

        live: list[int] = []
        if self.config.workers > 1:
            pool = self._ensure_pool()
            pool.start()
            live = pool.live_slots()
        if not live:
            raw = self._run_inline(shards)
        else:
            params = [parameter.data for parameter in self.parameters]
            pending: dict[int, list[tuple[int, Any]]] = {}
            assignment = assign_round_robin(range(num_shards), len(live))
            for position, shard_ids in sorted(assignment.items()):
                self._dispatch(live[position], step_index,
                               [shards[i] for i in shard_ids],
                               pending, params)
            raw = self._collect(pending, step_index, params)

        started = time.perf_counter()
        combined = tree_reduce_grads(
            ((shard_index, grads) for shard_index, grads, _, _ in raw),
            num_shards)
        reduce_seconds = time.perf_counter() - started

        by_index = {shard_index: (stats, elapsed)
                    for shard_index, _, stats, elapsed in raw}
        result = EngineStep(
            grads=combined,
            stats=[by_index[i][0] for i in range(num_shards)],
            shard_seconds=[by_index[i][1] for i in range(num_shards)],
            reduce_seconds=reduce_seconds,
        )
        self._observe(result)
        return result

    def load_grads(self, grads: dict[int, np.ndarray]) -> None:
        """Install combined gradients; untouched parameters keep ``None``."""
        for index, parameter in enumerate(self.parameters):
            parameter.grad = grads.get(index)

    # -- elastic supervision --------------------------------------------
    def _dispatch(self, slot: int, step: int, shards: list[tuple[int, Any]],
                  pending: dict[int, list[tuple[int, Any]]],
                  params: list[np.ndarray]) -> None:
        """Send an assignment with the step-start parameters.

        A slot receives one assignment per step (a replacement receives
        its lost predecessor's), so every assignment carries them.
        """
        self._pool.send(slot, step, params, shards)
        pending[slot] = shards

    def _collect(self, pending: dict[int, list[tuple[int, Any]]], step: int,
                 params: list[np.ndarray]) -> list[_RawResult]:
        """Gather replies, re-executing the shards of failed workers.

        The pool decides when a pending worker has failed and replaces
        it; the lost shards go to the replacement, or run in-process
        when the slot was retired.  Application errors raised inside a
        shard are not recoverable — re-execution is deterministic, so
        they would fail again — and surface as
        :class:`WorkerFailedError` attributed to the worker and step.
        """
        results: list[_RawResult] = []
        pool = self._pool
        while pending:
            for slot in sorted(pending):
                status, payload = pool.poll(slot)
                if status == "ok":
                    results.extend(payload)
                    del pending[slot]
                    continue
                if status == "error":
                    raise WorkerFailedError(slot, step, payload)
                reason = pool.failure(slot)
                if reason is None:
                    continue
                lost = pending.pop(slot)
                if pool.replace(slot, reason):
                    self._dispatch(slot, step, lost, pending, params)
                else:
                    results.extend(self._run_inline(lost))
            if pending:
                _mp_connection.wait(
                    [pool.handle(slot).connection for slot in pending],
                    timeout=_POLL_GRANULARITY)
        return results

    def _on_pool_event(self, action: str, slot: int, reason: str) -> None:
        """Record a supervisor action of the pool against the current step."""
        step = self._steps - 1
        if telemetry_enabled():
            registry = get_registry()
            registry.counter(f"parallel.{SUPERVISOR_COUNTERS[action]}").inc()
            registry.emit({
                "kind": "supervisor",
                "action": action,
                "step": step,
                "worker": slot,
                "reason": reason,
            })
        if self.health is not None:
            self.health.worker_event(step, slot, reason, action)

    def _observe(self, result: EngineStep) -> None:
        registry = get_registry()
        shard_ms = registry.histogram("parallel.shard_ms")
        for seconds in result.shard_seconds:
            shard_ms.observe(seconds * 1e3)
        registry.histogram("parallel.reduce_ms").observe(
            result.reduce_seconds * 1e3)
        registry.histogram("parallel.imbalance").observe(result.imbalance)

    # -- lifecycle ------------------------------------------------------
    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None:
            config = self.config
            self._pool = WorkerPool(
                config.workers, self._run_shard, self._sync,
                heartbeat_interval=config.heartbeat_interval,
                heartbeat_timeout=config.heartbeat_timeout,
                dispatch_deadline=config.step_deadline,
                max_respawns=config.max_respawns,
                respawn_backoff=config.respawn_backoff,
                on_event=self._on_pool_event,
                fault_plan=config.faults)
        return self._pool

    def close(self) -> None:
        """Stop worker processes; safe to call twice or never start."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "DataParallelEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
