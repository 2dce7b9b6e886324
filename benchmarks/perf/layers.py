"""Per-layer metrics: the public functions a traced run wraps, and the
formulas that turn their spans into the ``per_layer`` metrics of
``BENCHMARK.json``.

Times are milliseconds per operation (per answered request for the
serve workloads, per optimizer step for the training workloads) unless
the metric says otherwise, so a layer's metric moves when either its
cost per call or its number of calls per operation moves.  ``self``
time excludes the time of wrapped calls nested inside; ``total`` time
includes it.  A layer a workload never calls reports 0.

README.md maps each metric to the end-to-end metric and workload it
should move.
"""

from __future__ import annotations

import functools
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = ["LAYER_METRICS", "LayerContext", "installed", "layer_metrics"]

#: Encoder depth of the default ``EncoderConfig`` every workload uses.
ENCODER_LAYERS = 2


@contextmanager
def installed(tracer) -> Iterator[None]:
    """Wrap every traced function while the block runs.

    Enter before any model exists or any process forks: models built
    inside the block get per-layer wrappers, and forked processes keep
    the wrappers for their lifetime.
    """
    import repro.pretrain.trainer as trainer_module
    import repro.serve.cache as cache_module
    import repro.serve.frontend as frontend_module
    import repro.serve.server as server_module
    import repro.tasks.common as tasks_common
    from repro.models import MODEL_CLASSES, EntityRecoveryHead, MlmHead, \
        TableEncoder
    from repro.nn import Adam, Tensor
    from repro.parallel import DataParallelEngine
    from repro.pretrain import Pretrainer
    from repro.runtime import MetricsRegistry
    from repro.serve import EncodingCache, InferenceEngine
    from repro.serve.frontend import ReplicatedFrontend, ServeTicket
    from repro.tasks import BiEncoderRetriever, CellSelectionQA, \
        ColumnTypePredictor, NliClassifier, SketchParser, ValueImputer

    originals: list[tuple[object, str, Callable]] = []

    def patch(owner, attribute: str, name: str, **options) -> None:
        original = getattr(owner, attribute)
        originals.append((owner, attribute, original))
        setattr(owner, attribute, tracer.wrap(name, original, **options))

    patch(server_module, "build_example", "requests.decode")
    patch(frontend_module, "affinity_key", "requests.affinity")
    patch(ReplicatedFrontend, "submit_many", "frontend.admit")
    patch(ServeTicket, "wait", "frontend.wait")
    patch(InferenceEngine, "process", "engine.process")
    patch(EncodingCache, "features_for", "cache.features",
          size=lambda args: len(args[2]))
    patch(EncodingCache, "hidden_for", "cache.hidden")
    patch(cache_module, "model_fingerprint", "cache.model_fingerprint")
    patch(cache_module, "feature_fingerprint", "cache.feature_fingerprint")
    for predictor in (CellSelectionQA, NliClassifier, ValueImputer,
                      ColumnTypePredictor, BiEncoderRetriever, SketchParser):
        patch(predictor, "predict", f"head.{predictor.task_name}")

    encoders = (TableEncoder, *MODEL_CLASSES.values())
    for method in ("serialize", "features", "batch", "embed", "forward",
                   "infer_hidden"):
        for cls in encoders:
            if method in vars(cls):
                patch(cls, method, f"model.{method}")
    originals.append((TableEncoder, "__init__", TableEncoder.__init__))
    TableEncoder.__init__ = _wrap_encoder_layers(tracer,
                                                 TableEncoder.__init__)

    for function in ("mask_for_mlm", "mask_for_mer", "combine_masking"):
        patch(trainer_module, function, "pretrain.mask")
    for function in ("mlm_loss", "mer_loss"):
        patch(trainer_module, function, "pretrain.loss")
    patch(MlmHead, "forward", "pretrain.head")
    patch(EntityRecoveryHead, "forward", "pretrain.head")
    patch(trainer_module, "clip_gradients", "pretrain.clip")
    patch(Pretrainer, "train_step", "pretrain.step")
    patch(Pretrainer, "save_checkpoint", "pretrain.snapshot")
    patch(Pretrainer, "capture", "pretrain.snapshot")
    patch(Tensor, "backward", "nn.backward")
    patch(Adam, "step", "nn.optimizer")

    patch(DataParallelEngine, "step", "parallel.step", extra=_engine_step)
    patch(ColumnTypePredictor, "loss", "finetune.loss")
    patch(tasks_common, "clip_gradients", "finetune.clip")

    patch(MetricsRegistry, "emit", "runtime.emit")
    try:
        yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def _wrap_encoder_layers(tracer, init: Callable) -> Callable:
    """Per-instance spans for each encoder layer's attention and FFN."""
    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for index, layer in enumerate(self.encoder.layers):
            for attribute, label in (("attention", "attention"),
                                     ("feed_forward", "ffn")):
                module = getattr(layer, attribute)
                object.__setattr__(module, "forward", tracer.wrap(
                    f"model.encoder.layers.{index}.{label}", module.forward))
    return traced_init


def _engine_step(step) -> dict:
    """The shard/reduce timings a ``DataParallelEngine.step`` returns."""
    return {"shard_ms": [seconds * 1e3 for seconds in step.shard_seconds],
            "reduce_ms": step.reduce_seconds * 1e3,
            "imbalance": step.imbalance}


@dataclass
class LayerContext:
    """What the formulas need besides the spans.

    ``family`` is ``serve``, ``pretrain`` or ``finetune``; ``ops`` the
    answered requests or optimizer steps inside the traced window;
    ``measured`` holds values read outside spans (client latency,
    ``/v1/healthz`` and ``/v1/metrics`` deltas, computed sync bytes,
    trace overhead).
    """

    family: str
    ops: int
    measured: dict[str, float] = field(default_factory=dict)


def _field(summary: dict, name: str, key: str) -> float:
    return summary.get(name, {}).get(key, 0)


def _per_op_ms(name: str, key: str = "self") -> Callable:
    return lambda s, c: _field(s, name, key) * 1e3 / c.ops


def _sum_per_op_ms(*names: str) -> Callable:
    return lambda s, c: sum(_field(s, n, "total") for n in names) * 1e3 / c.ops


def _per_call_ms(name: str) -> Callable:
    def compute(s, c):
        calls = _field(s, name, "calls")
        return _field(s, name, "self") * 1e3 / calls if calls else 0.0
    return compute


def _calls_per_op(name: str) -> Callable:
    return lambda s, c: _field(s, name, "calls") / c.ops


def _measured(key: str) -> Callable:
    return lambda s, c: c.measured[key]


def _residual_ms(s, c) -> float:
    inside = (_field(s, "requests.decode", "self")
              + _field(s, "frontend.admit", "self")
              + _field(s, "frontend.wait", "total"))
    return c.measured["client_ms"] - inside * 1e3 / c.ops


def _overhead_ms(s, c) -> float:
    return (_field(s, "frontend.wait", "total")
            - _field(s, "engine.process", "total")) * 1e3 / c.ops


def _feature_memo_hit_rate(s, c) -> float:
    tables = _field(s, "cache.features", "n")
    return 1.0 - _field(s, "model.serialize", "calls") / tables if tables else 0.0


def _step_extras(s) -> list[dict]:
    return s.get("parallel.step", {}).get("extras", [])


def _shard_ms(s, c) -> float:
    return statistics.fmean(ms for e in _step_extras(s) for ms in e["shard_ms"])


def _reduce_ms(s, c) -> float:
    return statistics.fmean(e["reduce_ms"] for e in _step_extras(s))


def _imbalance(s, c) -> float:
    return statistics.fmean(e["imbalance"] for e in _step_extras(s))


def _parallel_overhead_ms(s, c) -> float:
    """Step time minus the busiest worker's shards and the reduce.

    Shards are dealt to workers with the engine's own
    ``assign_round_robin``, so a worker computing two shards counts both.
    """
    from repro.parallel.plan import assign_round_robin

    extras = _step_extras(s)
    step_ms = _field(s, "parallel.step", "total") * 1e3 / len(extras)
    critical = []
    for e in extras:
        dealt = assign_round_robin(range(len(e["shard_ms"])),
                                   int(c.measured["workers"]))
        critical.append(max(sum(e["shard_ms"][i] for i in shards)
                            for shards in dealt.values()) + e["reduce_ms"])
    return step_ms - statistics.fmean(critical)


_ALL = ("serve", "pretrain", "finetune")
_SERVE = ("serve",)

#: (name, unit, better, workload families that call the layer, formula)
LAYER_METRICS: list[tuple[str, str, str, tuple[str, ...], Callable]] = [
    ("server.residual_ms", "ms", "lower", _SERVE, _residual_ms),
    ("requests.decode_ms", "ms", "lower", _SERVE,
     _per_op_ms("requests.decode")),
    ("requests.affinity_ms", "ms", "lower", _SERVE,
     _per_op_ms("requests.affinity")),
    ("frontend.admit_ms", "ms", "lower", _SERVE,
     _per_op_ms("frontend.admit")),
    ("frontend.wait_ms", "ms", "lower", _SERVE,
     _per_op_ms("frontend.wait", "total")),
    ("frontend.overhead_ms", "ms", "lower", _SERVE, _overhead_ms),
    ("frontend.wave_size", "count", "higher", _SERVE,
     _measured("wave_size")),
    ("engine.process_ms", "ms", "lower", _SERVE,
     _per_op_ms("engine.process", "total")),
    ("cache.hit_rate", "ratio", "higher", _SERVE, _measured("hit_rate")),
    ("cache.feature_memo_hit_rate", "ratio", "higher", _SERVE,
     _feature_memo_hit_rate),
    ("cache.model_fingerprint_ms", "ms", "lower", _SERVE,
     _per_op_ms("cache.model_fingerprint")),
    ("cache.model_fingerprint_calls", "count", "lower", _SERVE,
     _calls_per_op("cache.model_fingerprint")),
    ("cache.feature_fingerprint_ms", "ms", "lower", _SERVE,
     _per_op_ms("cache.feature_fingerprint")),
    ("cache.features_ms", "ms", "lower", _SERVE,
     _per_op_ms("cache.features")),
    ("cache.hidden_ms", "ms", "lower", _SERVE, _per_op_ms("cache.hidden")),
    ("model.serialize_ms", "ms", "lower", _ALL,
     _per_op_ms("model.serialize")),
    ("model.features_ms", "ms", "lower", _ALL, _per_op_ms("model.features")),
    ("model.embed_ms", "ms", "lower", _ALL, _per_op_ms("model.embed")),
    ("model.forward_ms", "ms", "lower", _ALL, _per_op_ms("model.forward")),
    *[(f"model.encoder.layers.{index}.{part}_ms", "ms", "lower", _ALL,
       _per_op_ms(f"model.encoder.layers.{index}.{part}"))
      for index in range(ENCODER_LAYERS) for part in ("attention", "ffn")],
    *[(f"head.{task}_ms", "ms", "lower", _SERVE, _per_call_ms(f"head.{task}"))
      for task in ("qa", "nli", "imputation", "coltype", "retrieval",
                   "text2sql")],
    ("pretrain.batch_ms", "ms", "lower", ("pretrain",),
     _sum_per_op_ms("model.batch")),
    ("pretrain.mask_ms", "ms", "lower", ("pretrain",),
     _sum_per_op_ms("pretrain.mask")),
    ("pretrain.forward_ms", "ms", "lower", ("pretrain",),
     _sum_per_op_ms("model.forward")),
    ("pretrain.loss_ms", "ms", "lower", ("pretrain",),
     _sum_per_op_ms("pretrain.head", "pretrain.loss")),
    ("pretrain.backward_ms", "ms", "lower", ("pretrain",),
     _sum_per_op_ms("nn.backward")),
    ("pretrain.clip_ms", "ms", "lower", ("pretrain",),
     _sum_per_op_ms("pretrain.clip")),
    ("pretrain.optimizer_ms", "ms", "lower", ("pretrain",),
     _sum_per_op_ms("nn.optimizer")),
    ("pretrain.snapshot_ms", "ms", "lower", ("pretrain",),
     _sum_per_op_ms("pretrain.snapshot")),
    ("pretrain.other_ms", "ms", "lower", ("pretrain",),
     _per_op_ms("pretrain.step")),
    ("parallel.step_ms", "ms", "lower", ("finetune",),
     _sum_per_op_ms("parallel.step")),
    ("parallel.shard_ms", "ms", "lower", ("finetune",), _shard_ms),
    ("parallel.reduce_ms", "ms", "lower", ("finetune",), _reduce_ms),
    ("parallel.imbalance", "ratio", "lower", ("finetune",), _imbalance),
    ("parallel.overhead_ms", "ms", "lower", ("finetune",),
     _parallel_overhead_ms),
    ("parallel.sync_bytes_per_step", "B", "lower", ("finetune",),
     _measured("sync_bytes")),
    ("finetune.loss_ms", "ms", "lower", ("finetune",),
     _sum_per_op_ms("finetune.loss")),
    ("finetune.clip_ms", "ms", "lower", ("finetune",),
     _sum_per_op_ms("finetune.clip")),
    ("finetune.optimizer_ms", "ms", "lower", ("finetune",),
     _sum_per_op_ms("nn.optimizer")),
    ("runtime.emit_per_op", "count", "lower", _ALL,
     _calls_per_op("runtime.emit")),
    ("trace_overhead", "ratio", "lower", _ALL, _measured("trace_overhead")),
]


def layer_metrics(summary: dict, context: LayerContext) -> dict[str, dict]:
    """Every per-layer metric as ``{name: {"value", "unit"}}``."""
    if context.ops < 1:
        raise ValueError("no operations completed inside the traced window")
    return {name: {"value": float(compute(summary, context))
                   if context.family in families else 0.0,
                   "unit": unit}
            for name, unit, _better, families, compute in LAYER_METRICS}
