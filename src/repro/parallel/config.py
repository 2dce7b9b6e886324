"""Configuration of the data-parallel training engine.

The one rule that makes parallel runs bit-identical to serial ones:
**numerics may depend only on the shard decomposition, never on the
worker count**.  ``ParallelConfig.workers`` is pure scheduling — it
decides which OS process computes which shard, not how the batch is cut
or in which order shard gradients are summed.  ``resolve_shard_size``
therefore derives the shard size from the batch size alone, and
``numeric_signature`` (what :class:`~repro.pretrain.TrainerCheckpoint`
stores) deliberately excludes ``workers``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .faults import FaultPlan

__all__ = ["ParallelConfig", "FixedClock", "DEFAULT_SHARDS"]

# When shard_size is left at 0 (auto), a batch is cut into this many
# shards regardless of worker count, so the summation tree — and with it
# every gradient bit — is identical for workers=1 and workers=N.
DEFAULT_SHARDS = 4


@dataclass(frozen=True)
class ParallelConfig:
    """How one optimizer step is sharded across worker processes.

    Parameters
    ----------
    workers:
        OS processes computing shard gradients.  ``1`` runs every shard
        in the calling process (no fork) — cheap for tests and laptops,
        bit-identical to any other worker count.
    shard_size:
        Rows per micro-shard.  ``0`` (auto) resolves to
        ``ceil(batch_size / DEFAULT_SHARDS)``; the resolution never
        looks at ``workers``.
    accumulate:
        Number of sequential dispatch waves a step's shards are split
        into.  Purely a scheduling/memory knob: all shard gradients
        still enter one fixed-order reduction tree, so ``accumulate``
        does not change a single bit of the combined gradient.
    heartbeat_interval:
        Seconds between liveness frames a busy worker emits.  ``0``
        disables heartbeats (hang detection then rests on the step
        deadline alone).
    heartbeat_timeout:
        Silence (no frame of any kind from a dispatched worker) after
        which the supervisor declares the process wedged and reaps it.
    step_deadline:
        Wall-clock budget for one dispatched wave assignment; a worker
        that has not replied within it is reaped even if it still
        heartbeats (slow-degenerate case).  ``0`` disables deadlines.
    max_respawns:
        Replacement forks permitted *per worker slot* over a run before
        the slot is retired and the pool degrades to fewer workers —
        safe, because worker count is pure scheduling.
    respawn_backoff:
        Base of the exponential backoff slept before respawn attempt
        ``k`` (``respawn_backoff * 2**k`` seconds).
    faults:
        Optional deterministic :class:`~repro.parallel.faults.FaultPlan`
        executed inside the workers — the fault-injection harness.

    The five supervisor knobs configure the engine's
    :class:`~repro.parallel.WorkerPool`.  Each is scheduling-only: none
    of them appears in ``numeric_signature`` because a recovered (or
    degraded) run is byte-identical to a healthy one.
    """

    workers: int = 1
    shard_size: int = 0
    accumulate: int = 1
    heartbeat_interval: float = 0.5
    heartbeat_timeout: float = 10.0
    step_deadline: float = 120.0
    max_respawns: int = 2
    respawn_backoff: float = 0.05
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.shard_size < 0:
            raise ValueError("shard_size must be non-negative (0 = auto)")
        if self.accumulate < 1:
            raise ValueError("accumulate must be positive")
        if self.heartbeat_interval < 0 or self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat_interval must be >= 0 and "
                             "heartbeat_timeout > 0")
        if self.step_deadline < 0:
            raise ValueError("step_deadline must be non-negative (0 = off)")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be non-negative")
        if self.respawn_backoff < 0:
            raise ValueError("respawn_backoff must be non-negative")
        if self.faults is not None and self.workers == 1:
            raise ValueError(
                "fault injection needs forked workers (workers > 1): "
                "the in-process path has no processes to kill")

    def resolve_shard_size(self, batch_size: int) -> int:
        """The rows-per-shard actually used for ``batch_size`` batches.

        Depends only on the batch size and ``shard_size`` — never on
        ``workers`` — so the shard decomposition (and therefore the
        gradient) is invariant to how many processes run it.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.shard_size:
            return min(self.shard_size, batch_size)
        return max(1, math.ceil(batch_size / DEFAULT_SHARDS))

    def numeric_signature(self, batch_size: int) -> dict:
        """The projection of this config that affects training numerics.

        This is what checkpoints persist and what resume compatibility
        compares: two runs with equal signatures produce bit-identical
        gradients no matter their worker counts.
        """
        return {"shard_size": self.resolve_shard_size(batch_size)}


class FixedClock:
    """A deterministic stand-in for ``time.perf_counter``.

    Each call advances by ``tick`` seconds, so wall-time fields in
    training records — and therefore checkpoint archives — are
    byte-identical across runs and machines.  Used by
    ``repro pretrain --fixed-clock`` and the differential test harness.
    """

    __slots__ = ("tick", "_now")

    def __init__(self, tick: float = 1.0, start: float = 0.0) -> None:
        self.tick = float(tick)
        self._now = float(start)

    def __call__(self) -> float:
        self._now += self.tick
        return self._now

