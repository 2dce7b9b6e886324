"""Data-parallel training: deterministic multi-process gradient steps.

The engine shards each optimizer step's batch across N persistent
forked worker processes and combines per-shard gradients with a
fixed-order tree all-reduce, so the summed gradient — and therefore
every checkpoint byte — is identical for ``workers=1`` and
``workers=N``.  Workers stay alive across steps behind a
request/response pipe protocol; a supervisor detects dead or hung
workers (heartbeats + step deadlines), respawns them with exponential
backoff, and deterministically re-executes lost shards — so a run
survives worker loss without moving a single gradient bit.  See
DESIGN.md ("Deterministic data parallelism", "Elastic data-parallel
training") for why the summation order must be pinned and how the
failure matrix is covered.

Quickstart::

    from repro.parallel import ParallelConfig
    from repro.pretrain import Pretrainer, PretrainConfig

    config = PretrainConfig(steps=60,
                            parallel=ParallelConfig(workers=4))
    Pretrainer(model, config).train(corpus)   # bit-identical to workers=1
    # kill -9 a worker mid-run: the supervisor replaces it and the
    # final checkpoint bytes do not change.
"""

from .config import DEFAULT_SHARDS, FixedClock, ParallelConfig
from .engine import DataParallelEngine, EngineStep
from .faults import FaultPlan, FaultSpec, parse_fault_plan
from .plan import assign_round_robin, shard_slices
from .reduce import tree_combine, tree_reduce_grads
from .workers import WorkerError, WorkerFailedError, WorkerHandle, WorkerPool

__all__ = [
    "ParallelConfig", "FixedClock", "DEFAULT_SHARDS",
    "DataParallelEngine", "EngineStep",
    "FaultPlan", "FaultSpec", "parse_fault_plan",
    "shard_slices", "assign_round_robin",
    "tree_combine", "tree_reduce_grads",
    "WorkerError", "WorkerFailedError", "WorkerHandle", "WorkerPool",
]
