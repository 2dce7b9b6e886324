"""The pretraining loop (Fig. 1, pipeline (1); hands-on §3.3).

The :class:`Pretrainer` works with any :class:`~repro.models.TableEncoder`:
models without their own MLM head (everything except TURL) get one attached
over their token embedding, so the vanilla-vs-structure-aware comparison is
apples-to-apples.  Masked entity recovery is enabled automatically when the
model exposes a ``mer_head`` (TURL).

The loop is fault-tolerant:

- :class:`TrainerCheckpoint` captures the *full* run state — model and
  (external) MLM-head weights, Adam moments and step count, LR-schedule
  position, the ``np.random.Generator`` bit-generator state, and the
  step history — so :meth:`Pretrainer.resume` continues a run
  bit-identically to one that was never interrupted;
- snapshots are written every ``checkpoint_every`` steps via the atomic
  npz+manifest writer in :mod:`repro.nn.io`, with bounded retention
  (``keep_checkpoints``), and resuming falls back to the newest
  snapshot that still loads;
- every step runs through the :class:`~repro.trainloop.TrainLoop` that
  fine-tuning shares, whose :class:`~repro.runtime.HealthMonitor` checks
  loss and gradient norm; bad steps are skipped before they reach
  ``Adam.step`` and a streak of them rolls the trainer back to its last
  good checkpoint with a reduced learning rate.
"""

from __future__ import annotations

import functools
import json
import time
import warnings
from dataclasses import asdict, dataclass, field
from dataclasses import replace as dataclass_replace
from pathlib import Path
from typing import Callable

import numpy as np

from .masking import IGNORE_INDEX, MaskedBatch, combine_masking, \
    mask_for_mer, mask_for_mlm
from .objectives import mer_loss, mlm_loss
from ..corpus.stream import EmptyCorpusError, ShardWindow, StreamingCorpus
from ..models import MlmHead, TableEncoder
from ..nn import Adam, LinearWarmupSchedule, Tensor
# Imported only because benchmarks/perf/layers.py wraps it here.
from ..nn import clip_gradients  # noqa: F401
from ..parallel import ParallelConfig, shard_slices
from ..nn.io import (
    CheckpointError,
    read_npz_verified,
    write_npz_atomic,
)
from ..runtime import HealthConfig, TrainRecord, get_registry
from ..tables import Table
from ..trainloop import TrainLoop, sanitize_preflight

__all__ = ["PretrainConfig", "Pretrainer", "TrainerCheckpoint",
           "EmptyCorpusError"]

TRAINER_CHECKPOINT_VERSION = 1
_CHECKPOINT_PREFIX = "ckpt-"

# PretrainConfig fields that must match between a checkpoint and the
# trainer resuming from it for the continuation to be bit-identical.
_RESUME_CRITICAL_FIELDS = (
    "steps", "batch_size", "learning_rate", "warmup_fraction",
    "mask_probability", "mer_mask_probability", "whole_cell_masking",
    "use_mlm", "use_mer", "grad_clip", "seed", "parallel",
)


@dataclass(frozen=True)
class PretrainConfig:
    """Hyperparameters of a pretraining run."""

    steps: int = 60
    batch_size: int = 8
    learning_rate: float = 3e-3
    warmup_fraction: float = 0.1
    mask_probability: float = 0.15
    mer_mask_probability: float = 0.3
    whole_cell_masking: bool = True
    use_mlm: bool = True
    use_mer: bool = True          # only takes effect when the model supports it
    grad_clip: float = 1.0
    seed: int = 0
    checkpoint_every: int = 0     # snapshot cadence in steps; 0 disables
    keep_checkpoints: int = 3     # on-disk snapshot retention (last K)
    health: HealthConfig = field(default_factory=HealthConfig)
    parallel: ParallelConfig | None = None   # None = one in-process shard
    stream_window: int = 8        # max shards resident for streamed corpora

    def __post_init__(self) -> None:
        if self.steps < 1 or self.batch_size < 1:
            raise ValueError("steps and batch_size must be positive")
        if self.stream_window < 1:
            raise ValueError("stream_window must be positive")
        if not (self.use_mlm or self.use_mer):
            raise ValueError("at least one pretraining objective must be enabled")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if self.keep_checkpoints < 1:
            raise ValueError("keep_checkpoints must be positive")


@dataclass
class TrainerCheckpoint:
    """The complete state of a :class:`Pretrainer` at one step boundary.

    Restoring a checkpoint and continuing is bit-identical to never
    having stopped: all randomness, optimizer moments, schedule position
    and history are captured.
    """

    model_state: dict[str, np.ndarray]
    head_state: dict[str, np.ndarray] | None
    optimizer_state: dict
    rng_state: dict
    history: list[dict]
    schedule_lr: float
    config: dict

    @property
    def step(self) -> int:
        """The number of completed steps this checkpoint represents."""
        return len(self.history)

    # ------------------------------------------------------------------
    # Disk format: one atomic npz archive + manifest sidecar.  Arrays are
    # namespaced (model./head./optim.m.i/optim.v.i) and everything
    # non-array travels in a JSON ``meta`` entry.
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(".npz")
        arrays: dict[str, np.ndarray] = {}
        for name, value in self.model_state.items():
            arrays[f"model.{name}"] = value
        for name, value in (self.head_state or {}).items():
            arrays[f"head.{name}"] = value
        for i, moment in enumerate(self.optimizer_state.get("_m", [])):
            arrays[f"optim.m.{i}"] = moment
        for i, moment in enumerate(self.optimizer_state.get("_v", [])):
            arrays[f"optim.v.{i}"] = moment
        meta = {
            "format_version": TRAINER_CHECKPOINT_VERSION,
            "has_head": self.head_state is not None,
            "optimizer": {"lr": self.optimizer_state["lr"],
                          "step_count": self.optimizer_state["step_count"]},
            "rng_state": self.rng_state,
            "history": self.history,
            "schedule_lr": self.schedule_lr,
            "config": self.config,
        }
        arrays["meta"] = np.array(json.dumps(meta))
        return write_npz_atomic(path, arrays)

    @classmethod
    def load(cls, path: str | Path) -> "TrainerCheckpoint":
        """Read a checkpoint archive; raises :class:`CheckpointError` on
        truncated/corrupt archives or a missing, unreadable or malformed
        meta entry."""
        path = Path(path)
        arrays = read_npz_verified(path)
        if "meta" not in arrays:
            raise CheckpointError(
                f"checkpoint {path} has no meta entry; not a trainer "
                f"checkpoint")
        try:
            meta = json.loads(str(arrays.pop("meta")[()]))
        except (json.JSONDecodeError, TypeError) as error:
            raise CheckpointError(
                f"checkpoint {path} meta entry is unreadable: {error}"
            ) from error
        if not isinstance(meta, dict):
            raise CheckpointError(
                f"checkpoint {path} meta entry is not a JSON object")
        version = meta.get("format_version", 1)
        if version != TRAINER_CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {path} has format_version {version!r}; this "
                f"build supports {TRAINER_CHECKPOINT_VERSION}")
        model_state = {name[len("model."):]: value
                       for name, value in arrays.items()
                       if name.startswith("model.")}
        head_state = {name[len("head."):]: value
                      for name, value in arrays.items()
                      if name.startswith("head.")} or None
        moments_m = [arrays[f"optim.m.{i}"]
                     for i in range(sum(1 for n in arrays
                                        if n.startswith("optim.m.")))]
        moments_v = [arrays[f"optim.v.{i}"]
                     for i in range(sum(1 for n in arrays
                                        if n.startswith("optim.v.")))]
        try:
            optimizer = meta["optimizer"]
            optimizer_state = {"lr": float(optimizer["lr"]),
                               "step_count": int(optimizer["step_count"]),
                               "_m": moments_m, "_v": moments_v}
            history = meta["history"]
            if not (isinstance(history, list)
                    and all(isinstance(record, dict) for record in history)):
                raise TypeError("history is not a list of objects")
            # The trainer's generator is a PCG64; let it vet the state.
            np.random.PCG64().state = meta["rng_state"]
            return cls(
                model_state=model_state,
                head_state=head_state if meta.get("has_head") else None,
                optimizer_state=optimizer_state,
                rng_state=meta["rng_state"],
                history=history,
                schedule_lr=float(meta["schedule_lr"]),
                config=dict(meta.get("config", {})),
            )
        except (KeyError, OverflowError, TypeError, ValueError) as error:
            raise CheckpointError(
                f"checkpoint {path} meta entry is malformed: "
                f"{type(error).__name__}: {error}") from error


@dataclass(frozen=True)
class _ShardPayload:
    """One micro-shard of a masked batch plus its loss normalization.

    The weights are ``n_shard_targets / n_total_targets`` per objective,
    computed in the parent, so summing the (weighted) shard losses and
    gradients with the fixed-order tree reduce reproduces the fused
    mean-over-targets objective.  Module-level so fork/pipe transport
    can pickle it.
    """

    masked: MaskedBatch
    mlm_weight: float
    mer_weight: float


def _slice_masked(masked: MaskedBatch, rows: slice) -> MaskedBatch:
    """Row-slice a masked batch (padding/seq_len untouched).

    Keeping the padded sequence length means a shard's forward runs the
    same per-row arithmetic as any other decomposition of the same
    batch, and the slices are views — no copies cross into worker pipes
    beyond pickling itself.
    """
    batch = masked.batch
    sliced = dataclass_replace(
        batch,
        token_ids=batch.token_ids[rows],
        positions=batch.positions[rows],
        row_ids=batch.row_ids[rows],
        column_ids=batch.column_ids[rows],
        roles=batch.roles[rows],
        entity_ids=batch.entity_ids[rows],
        numeric_features=batch.numeric_features[rows],
        lengths=batch.lengths[rows],
    )
    return MaskedBatch(batch=sliced,
                       mlm_targets=masked.mlm_targets[rows],
                       mer_targets=masked.mer_targets[rows])


def _step_extras(totals: dict) -> dict:
    """A pretraining record's extras from its summed shard stats."""
    extras = {"mlm_loss": totals.get("mlm_loss", 0.0),
              "mer_loss": totals.get("mer_loss", 0.0)}
    for name in ("mlm", "mer"):
        count = totals.get(f"{name}_count", 0)
        extras[f"{name}_accuracy"] = (totals[f"{name}_correct"] / count
                                      if count else 0.0)
    return extras


# ----------------------------------------------------------------------
# Corpus sources: one batch-drawing protocol over lists and streams
# ----------------------------------------------------------------------
class _SampledSource:
    """Finite corpus: one uniform ``rng.choice`` draw per step.

    ``lookup`` resolves the drawn indices to tables: a ``list[Table]``
    indexes in place, a finite stream goes through its bounded
    :class:`ShardWindow`.  Both make the same ``choice`` call, so a
    streamed run and a run over the stream's materialization are
    bit-identical, and the checkpoint carries no stream identity (the
    window is pure cache, i.e. scheduling, not numerics).
    """

    def __init__(self, origin: "list[Table] | StreamingCorpus", size: int,
                 lookup: Callable[[np.ndarray], list[Table]]) -> None:
        self.origin = origin
        self.size = size
        self.lookup = lookup

    def draw(self, rng: np.random.Generator, batch_size: int,
             step_index: int) -> list[Table]:
        count = min(batch_size, self.size)
        return self.lookup(rng.choice(self.size, size=count, replace=False))

    def checkpoint_info(self, completed_steps: int,
                        batch_size: int) -> dict | None:
        return None


class _SequentialSource:
    """Infinite stream: in-order consumption with a derivable cursor.

    There is no population to sample from, so batches are consecutive
    stream slices and the sampling RNG is never consumed.  The cursor is
    a pure function of progress (``completed_steps * batch_size``) —
    rollbacks, sanitize preflights and checkpoint resumes all re-derive
    it from the history length, which is how a resumed run re-enters
    mid-stream bit-identically.
    """

    size = None

    def __init__(self, stream: StreamingCorpus, window: ShardWindow) -> None:
        self.origin = stream
        self.stream = stream
        self.window = window

    def draw(self, rng: np.random.Generator, batch_size: int,
             step_index: int) -> list[Table]:
        start = step_index * batch_size
        return self.window.tables(range(start, start + batch_size))

    def checkpoint_info(self, completed_steps: int,
                        batch_size: int) -> dict | None:
        return {"mode": "sequential",
                "fingerprint": self.stream.fingerprint(),
                "cursor": completed_steps * batch_size}


class Pretrainer:
    """Runs MLM (+MER where supported) pretraining over a table corpus."""

    def __init__(self, model: TableEncoder,
                 config: PretrainConfig | None = None, *,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.model = model
        self.config = config or PretrainConfig()
        self.clock = clock
        self.rng = np.random.default_rng(self.config.seed)

        if hasattr(model, "mlm_head"):
            self.mlm_head = model.mlm_head
            self._external_head = False
            extra_params: list = []
        else:
            self.mlm_head = MlmHead(model.config.dim,
                                    model.token_embedding.weight, self.rng)
            self._external_head = True
            extra_params = [p for name, p in self.mlm_head.named_parameters()
                            if "tied_weight" not in name]
        self.supports_mer = hasattr(model, "mer_head")

        parameters = list(model.parameters())
        seen = {id(p) for p in parameters}
        parameters += [p for p in extra_params if id(p) not in seen]
        self.optimizer = Adam(parameters, lr=self.config.learning_rate)
        warmup = max(1, int(self.config.steps * self.config.warmup_fraction))
        self.schedule = LinearWarmupSchedule(
            self.config.learning_rate, warmup, self.config.steps + 1)
        self.history: list[TrainRecord] = []
        self._loop = TrainLoop(
            self.optimizer, model, source="pretrain",
            grad_clip=self.config.grad_clip, health=self.config.health,
            parallel=self.config.parallel, clock=clock,
            schedule=self.schedule)
        self.health = self._loop.health
        self._last_good: TrainerCheckpoint | None = None
        self._shard_size = self._loop.shard_size(self.config.batch_size)
        self._source: "_SampledSource | _SequentialSource | None" = None
        self._restored_stream: dict | None = None

    # ------------------------------------------------------------------
    # Checkpoint capture / restore
    # ------------------------------------------------------------------
    def capture(self) -> TrainerCheckpoint:
        """Snapshot the full trainer state in memory."""
        head_state = (self.mlm_head.state_dict()
                      if self._external_head else None)
        return TrainerCheckpoint(
            model_state=self.model.state_dict(),
            head_state=head_state,
            optimizer_state=self.optimizer.state_dict(),
            rng_state=self.rng.bit_generator.state,
            history=[record.to_dict() for record in self.history],
            schedule_lr=self.schedule.lr,
            config=self._config_dict(),
        )

    def restore(self, checkpoint: TrainerCheckpoint) -> int:
        """Load a checkpoint into this trainer; returns the restored step.

        Raises :class:`CheckpointError` when the saved state does not fit
        the model/optimizer (all offending keys listed).
        """
        try:
            history = [TrainRecord.from_dict(d) for d in checkpoint.history]
            schedule_lr = float(checkpoint.schedule_lr)
            self.model.load_state_dict(checkpoint.model_state)
            if checkpoint.head_state is not None:
                if not self._external_head:
                    raise CheckpointError(
                        "checkpoint carries an external MLM head but the "
                        "model owns its own")
                self.mlm_head.load_state_dict(checkpoint.head_state)
            elif self._external_head:
                raise CheckpointError(
                    "checkpoint has no external MLM head state but this "
                    "trainer needs one")
            self.optimizer.load_state_dict(checkpoint.optimizer_state)
            self.rng.bit_generator.state = checkpoint.rng_state
        except (KeyError, OverflowError, TypeError, ValueError) as error:
            raise CheckpointError(
                f"checkpoint does not match the trainer: {error}") from error
        self.schedule.lr = schedule_lr
        self.history = history
        return len(self.history)

    def save_checkpoint(self, path: str | Path) -> Path:
        """Capture and atomically persist the trainer state."""
        return self.capture().save(path)

    def resume(self, path: str | Path) -> int:
        """Restore state from a checkpoint file or snapshot directory.

        A directory resumes from its newest snapshot that loads; an
        explicit file that does not load falls back to the newest sibling
        snapshot that does.  Passing over an unusable archive warns, and
        only when no candidate loads does this raise.  Returns the
        restored step count.
        """
        path = Path(path)
        explicit = not path.is_dir()
        directory = path.parent if explicit else path
        candidates = sorted(directory.glob(f"{_CHECKPOINT_PREFIX}*.npz"),
                            reverse=True)
        if explicit:
            candidates = [path] + [c for c in candidates if c != path]
        unusable: tuple[Path, Exception] | None = None
        for candidate in candidates:
            try:
                checkpoint = TrainerCheckpoint.load(candidate)
            except (CheckpointError, FileNotFoundError) as error:
                unusable = unusable or (candidate, error)
                continue
            if unusable is not None:
                warnings.warn(
                    f"checkpoint {unusable[0]} is unusable ({unusable[1]}); "
                    f"falling back to {candidate}", RuntimeWarning,
                    stacklevel=2)
            break
        else:
            if explicit:
                raise unusable[1]
            raise CheckpointError(
                f"no valid trainer checkpoint found in {path}")
        self._check_config_compatible(checkpoint.config)
        step = self.restore(checkpoint)
        self._last_good = checkpoint
        self._restored_stream = checkpoint.config.get("stream")
        return step

    def _config_dict(self) -> dict:
        config = asdict(self.config)
        config["health"] = asdict(self.config.health)
        # Persist only the numeric projection of parallelism: the shard
        # decomposition decides gradient bits, the worker count does not.
        # This keeps a workers=4 checkpoint byte-identical to a workers=1
        # one, and lets serial->parallel->serial resumes pass the
        # compatibility check.
        parallel = self.config.parallel
        config["parallel"] = (
            parallel.numeric_signature(self.config.batch_size)
            if parallel is not None else None)
        # Streaming a *finite* corpus is pure scheduling (the shard
        # window is a cache), so streamed and materialized runs share
        # checkpoint bytes and "stream" stays None.  An *infinite*
        # stream is numeric identity: its fingerprint and cursor are
        # what let a resume re-enter mid-stream bit-identically.
        source = self._source
        config["stream"] = (
            source.checkpoint_info(len(self.history), self.config.batch_size)
            if source is not None else None)
        config.pop("stream_window", None)
        return config

    def _check_config_compatible(self, saved: dict) -> None:
        if not saved:
            return
        current = self._config_dict()
        mismatched = {
            name: (saved[name], current[name])
            for name in _RESUME_CRITICAL_FIELDS
            if name in saved and saved[name] != current[name]
        }
        if mismatched:
            details = ", ".join(
                f"{name}: checkpoint={a!r} trainer={b!r}"
                for name, (a, b) in sorted(mismatched.items()))
            raise CheckpointError(
                f"checkpoint was written with different hyperparameters "
                f"({details}); resuming would not be bit-identical")

    # ------------------------------------------------------------------
    def _bind_source(self, corpus: "list[Table] | StreamingCorpus"):
        """Resolve (and cache) the batch source for a corpus argument.

        A ``list[Table]`` samples in place; a finite stream samples
        through a bounded :class:`ShardWindow` with the identical RNG
        stream; an infinite stream is consumed in order via a derivable
        cursor.  Only the parent draws batches — workers receive masked
        shard slices — so a rebind never touches the workers.
        """
        source = self._source
        if source is not None and source.origin is corpus:
            return source
        if isinstance(corpus, StreamingCorpus):
            window = ShardWindow(corpus,
                                 max_shards=self.config.stream_window)
            if corpus.is_infinite:
                source = _SequentialSource(corpus, window)
            else:
                source = _SampledSource(corpus, corpus.size, window.tables)
        else:
            source = _SampledSource(
                corpus, len(corpus),
                lambda indices: [corpus[int(i)] for i in indices])
        if source.size == 0:
            raise EmptyCorpusError("pretraining corpus is empty")
        self._source = source
        return source

    def _check_stream_resume(self, source) -> None:
        """Validate a mid-stream resume against the checkpoint's cursor.

        Only sequential (infinite-stream) checkpoints record a stream
        identity; offering such a checkpoint a different stream — or no
        stream at all — cannot be bit-identical and is rejected up
        front.
        """
        restored = self._restored_stream
        if restored is None:
            return
        info = source.checkpoint_info(len(self.history),
                                      self.config.batch_size)
        if info is None or info["fingerprint"] != restored.get("fingerprint"):
            have = None if info is None else info["fingerprint"]
            raise CheckpointError(
                f"checkpoint was written mid-stream (stream fingerprint "
                f"{restored.get('fingerprint')!r}, cursor "
                f"{restored.get('cursor')}) but train() was offered a "
                f"corpus with stream fingerprint {have!r}; resuming would "
                f"not be bit-identical")
        self._restored_stream = None

    def _masked_batch(self, tables: list[Table],
                      rng: np.random.Generator) -> MaskedBatch:
        """Batch + mask ``tables`` drawing masking noise from ``rng``."""
        batch, serialized = self.model.batch(tables)
        vocab = self.model.tokenizer.vocab
        use_mer = self.config.use_mer and self.supports_mer
        if self.config.use_mlm and use_mer:
            mlm = mask_for_mlm(batch, serialized, vocab, rng,
                               mask_probability=self.config.mask_probability,
                               whole_cell=self.config.whole_cell_masking)
            mer = mask_for_mer(batch, serialized, vocab, rng,
                               mask_probability=self.config.mer_mask_probability)
            return combine_masking(mlm, mer)
        if use_mer:
            return mask_for_mer(batch, serialized, vocab, rng,
                                mask_probability=self.config.mer_mask_probability)
        return mask_for_mlm(batch, serialized, vocab, rng,
                            mask_probability=self.config.mask_probability,
                            whole_cell=self.config.whole_cell_masking)

    # ------------------------------------------------------------------
    # The step: shard payloads and their loss, run by the TrainLoop
    # ------------------------------------------------------------------
    def sanitize_check(self, corpus: "list[Table] | StreamingCorpus"):
        """Preflight tape sanitization of one pretraining forward.

        Samples a batch and traces the step's shard loss over it as one
        whole-batch payload (no backward, no optimizer step) with
        :func:`~repro.trainloop.sanitize_preflight` — dead parameters,
        untouched ops, float64 creep, NaN-prone fan-out.  Findings are
        emitted through the runtime metrics registry (``kind="sanitize"``
        events) and the report is returned for rendering.

        The sampling RNG state is restored afterwards, so an opted-in
        run draws the identical batch sequence as a run without it.
        """
        source = self._bind_source(corpus)
        state = self.rng.bit_generator.state
        try:
            masked = self._masked_batch(
                source.draw(self.rng, self.config.batch_size,
                            len(self.history)), self.rng)
        finally:
            self.rng.bit_generator.state = state
        payloads = self._payloads(masked, masked.batch.batch_size)
        if not payloads:
            raise ValueError(
                "sampled batch produced no pretraining targets; "
                "cannot sanitize")
        named = [(f"model.{name}", p)
                 for name, p in self.model.named_parameters()]
        seen = {id(p) for _, p in named}
        named += [(f"mlm_head.{name}", p)
                  for name, p in self.mlm_head.named_parameters()
                  if id(p) not in seen]
        return sanitize_preflight(self._shard_loss, payloads[0], named)

    def close(self) -> None:
        """Release worker processes; a later step re-forks them lazily."""
        self._loop.close()

    def _shard_loss(self, payload: _ShardPayload
                    ) -> tuple[Tensor | None, dict]:
        """The loss graph of one micro-shard (runs in-process or forked).

        Losses arrive pre-normalized (``payload.*_weight`` is this
        shard's share of the step's prediction targets), so the fixed-
        order sum of shard losses and gradients equals the batch's
        mean-over-targets objective.

        Each head runs on its objective's target rows only, gathered from
        the flattened hidden states: about one position in twenty carries
        a target, and the ignored rows' logits would only be dropped by
        the loss.
        """
        masked = payload.masked
        stats = {"mlm_loss": 0.0, "mer_loss": 0.0,
                 "mlm_correct": 0, "mlm_count": 0,
                 "mer_correct": 0, "mer_count": 0}
        if payload.mlm_weight == 0.0 and payload.mer_weight == 0.0:
            return None, stats
        hidden = self.model(masked.batch)
        flat = hidden.reshape(-1, hidden.shape[-1])
        objectives = (
            ("mlm", payload.mlm_weight, self.mlm_head, mlm_loss,
             masked.mlm_targets),
            ("mer", payload.mer_weight, getattr(self.model, "mer_head", None),
             mer_loss, masked.mer_targets))
        total = None
        for name, weight, head, objective, targets in objectives:
            if weight == 0.0:
                continue
            rows = np.flatnonzero(targets != IGNORE_INDEX)
            gathered = targets.reshape(-1)[rows]
            logits = head(flat.take_rows(rows))
            loss = objective(logits, gathered) * weight
            stats[f"{name}_loss"] = float(loss.data)
            stats[f"{name}_correct"] = int(
                (logits.data.argmax(axis=-1) == gathered).sum())
            stats[f"{name}_count"] = len(rows)
            total = loss if total is None else total + loss
        return total, stats

    def _payloads(self, masked: MaskedBatch,
                  shard_size: int) -> list[_ShardPayload]:
        """Cut a masked batch into weighted shard payloads.

        Each objective's weight is the shard's share of the batch's
        targets, so the fixed-order sum of shard losses is the batch
        mean.  Empty when the batch has no prediction targets.  All RNG
        work already happened in the parent, so worker count cannot
        perturb the random stream.
        """
        use_mer = self.supports_mer and self.config.use_mer
        total_mlm = masked.num_mlm_targets if self.config.use_mlm else 0
        total_mer = masked.num_mer_targets if use_mer else 0
        if not (total_mlm or total_mer):
            return []
        payloads = []
        for rows in shard_slices(masked.batch.batch_size, shard_size):
            shard = _slice_masked(masked, rows)
            mlm_weight = (shard.num_mlm_targets / total_mlm
                          if total_mlm else 0.0)
            mer_weight = (shard.num_mer_targets / total_mer
                          if total_mer else 0.0)
            payloads.append(_ShardPayload(
                masked=shard, mlm_weight=mlm_weight, mer_weight=mer_weight))
        return payloads

    def train_step(self, corpus: "list[Table] | StreamingCorpus"
                   ) -> TrainRecord:
        """One optimization step over a sampled batch; returns the record.

        Steps the health monitor judges bad (NaN/Inf loss or gradient,
        divergence spike) skip the optimizer update; a streak of them
        rolls the trainer back to the last good checkpoint, in which case
        the returned record belongs to the discarded timeline and is not
        appended to :attr:`history`.
        """
        source = self._bind_source(corpus)
        step = len(self.history)
        started = self.clock()
        masked = self._masked_batch(
            source.draw(self.rng, self.config.batch_size, step), self.rng)
        restore = (None if self._last_good is None
                   else functools.partial(self.restore, self._last_good))
        record, rolled_back = self._loop.step(
            step, self._payloads(masked, self._shard_size),
            self._shard_loss, restore=restore, extras=_step_extras,
            started=started, tokens=int(masked.batch.token_ids.size))
        if not rolled_back:
            self.history.append(record)
        return record

    # ------------------------------------------------------------------
    def _write_snapshot(self, directory: Path) -> Path:
        path = directory / f"{_CHECKPOINT_PREFIX}{len(self.history):08d}.npz"
        written = self.save_checkpoint(path)
        self._prune_snapshots(directory)
        return written

    def _prune_snapshots(self, directory: Path) -> None:
        snapshots = sorted(directory.glob(f"{_CHECKPOINT_PREFIX}*.npz"))
        for stale in snapshots[:-self.config.keep_checkpoints]:
            stale.unlink(missing_ok=True)
            manifest = stale.with_name(stale.name + ".manifest.json")
            manifest.unlink(missing_ok=True)

    def train(self, corpus: "list[Table] | StreamingCorpus",
              checkpoint_dir: str | Path | None = None) -> list[TrainRecord]:
        """Run (or continue) the configured number of steps.

        ``corpus`` may be a ``list[Table]`` (legacy), a finite
        :class:`StreamingCorpus` (bounded-memory, bit-identical to
        training over its materialization) or an infinite stream
        (consumed in order behind a derivable cursor).  An empty corpus
        raises :class:`EmptyCorpusError` before any model work.

        A fresh trainer runs ``config.steps`` steps; a trainer restored
        via :meth:`resume` continues from its checkpoint until the same
        total.  Calling ``train`` again on a completed run raises —
        silent re-entry would continue the history with a stale LR
        schedule (resume is the supported continuation path).

        With ``config.checkpoint_every > 0`` a full snapshot is taken at
        that cadence (and written to ``checkpoint_dir`` when given, with
        the last ``config.keep_checkpoints`` retained on disk).
        """
        source = self._bind_source(corpus)
        self._check_stream_resume(source)
        if len(self.history) >= self.config.steps:
            raise RuntimeError(
                f"training already completed {len(self.history)} of "
                f"{self.config.steps} steps; build a fresh Pretrainer or "
                f"resume() a checkpoint to continue a run")
        directory: Path | None = None
        if checkpoint_dir is not None:
            directory = Path(checkpoint_dir)
            directory.mkdir(parents=True, exist_ok=True)
        self.model.train()
        if self._last_good is None:
            self._last_good = self.capture()
        try:
            while len(self.history) < self.config.steps:
                self.train_step(corpus)
                done = len(self.history)
                cadence = self.config.checkpoint_every
                # After a rollback this re-captures the snapshot it
                # restored, backed-off rate included; after one onto the
                # initial snapshot the history is empty.
                if (cadence and done % cadence == 0
                        and not (self.history
                                 and self.history[-1].extras.get("skipped"))):
                    self._last_good = self.capture()
                    if directory is not None:
                        self._write_snapshot(directory)
        finally:
            self.close()
        if directory is not None:
            self._write_snapshot(directory)
        self.model.eval()
        get_registry().counter("pretrain.runs_completed").inc()
        return self.history
