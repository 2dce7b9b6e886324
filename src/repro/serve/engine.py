"""The inference engine: synchronous task dispatch over cached encoders.

:class:`InferenceEngine` is the request-oriented core every entry point
(``repro serve``, ``repro predict`` and the replicated
:class:`~repro.serve.frontend.ReplicatedFrontend`) shares.
:meth:`InferenceEngine.process` answers ``(task, example)`` submissions
in order, each through its task's :class:`~repro.tasks.TaskPredictor`
``predict``.  A single :class:`~repro.serve.cache.EncodingCache` is
installed on every predictor's encoder, so repeated tables skip the
transformer entirely.  The engine holds no queue: waiting, deadlines
and load shedding belong to the front-end's
:class:`~repro.serve.frontend.AdmissionQueue`.

**Determinism contract.**  Predictions are a pure function of the model
weights and the request — *never* of which requests shared a call,
arrival order, or which process answered.  Padded-batch forwards are
not bitwise padding-invariant (numpy's reductions associate differently
as the padded length changes), so the engine runs every request as its
own batch of one: each answer is byte-identical whether the request was
processed alone, inside a client batch, or by any replica of
:class:`~repro.serve.frontend` at any fleet size.  The padded-batch
throughput this trades away is empirically a wash on this stack
(``bench_serve``: BLAS already saturates one matmul and padding wastes
flops); the caching + replication wins remain.

Telemetry (all through the global :class:`~repro.runtime.MetricsRegistry`):

- ``serve.requests`` counter;
- ``serve.latency_seconds`` timer (one request's predict call);
- one ``kind="serve_request"`` trace event per answered request.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from .cache import EncodingCache
from ..nn import Module
from ..runtime import get_registry
from ..tasks import Prediction

__all__ = ["ServeConfig", "PredictResponse", "InferenceEngine"]


@dataclass(frozen=True)
class ServeConfig:
    """Engine knobs shared by the HTTP server and the batch CLI."""

    cache_entries: int = 128

    def __post_init__(self) -> None:
        if self.cache_entries < 1:
            raise ValueError("cache_entries must be positive")


@dataclass(frozen=True)
class PredictResponse:
    """One answered request."""

    request_id: int
    task: str
    prediction: Prediction
    latency_seconds: float

    def to_dict(self) -> dict[str, Any]:
        from .requests import json_safe_label

        return {
            "id": self.request_id,
            "task": self.task,
            "label": json_safe_label(self.prediction.label),
            "score": self.prediction.score,
            "latency_seconds": self.latency_seconds,
        }


class InferenceEngine:
    """Synchronous dispatcher over a set of task predictors.

    Parameters
    ----------
    predictors:
        ``task_name -> TaskPredictor``.  Each predictor's encoder gets
        the engine's shared :class:`EncodingCache` installed, and each
        predictor is switched to eval once, here: every request's
        ``inference()`` scope then finds its tree in eval in the current
        mode epoch and walks nothing.
    config:
        Cache budget.
    """

    def __init__(self, predictors: dict[str, Any],
                 config: ServeConfig | None = None) -> None:
        if not predictors:
            raise ValueError("at least one task predictor is required")
        self.config = config or ServeConfig()
        self.predictors = dict(predictors)
        self.cache = EncodingCache(max_entries=self.config.cache_entries)
        self._next_id = 0
        for predictor in self.predictors.values():
            encoder = getattr(predictor, "encoder", None)
            if encoder is not None and hasattr(encoder, "set_encoding_cache"):
                encoder.set_encoding_cache(self.cache)
            if isinstance(predictor, Module):
                predictor.eval()

    def process(self, submissions: list[tuple[str, Any]]
                ) -> list[PredictResponse]:
        """Answer every ``(task, example)`` submission, in order.

        Each request runs as its own ``predict([example], batch_size=1)``
        (the determinism contract above); repeats still dedup through
        the encoding cache — the first occurrence misses and stores, the
        rest hit.  An unknown task raises ``KeyError`` before any work.
        """
        for task, _ in submissions:
            if task not in self.predictors:
                raise KeyError(f"no predictor for task {task!r}; serving "
                               f"{sorted(self.predictors)}")
        registry = get_registry()
        responses = []
        for task, example in submissions:
            started = time.monotonic()
            prediction = self.predictors[task].predict([example],
                                                       batch_size=1)[0]
            latency = time.monotonic() - started
            response = PredictResponse(self._next_id, task, prediction,
                                       latency)
            self._next_id += 1
            registry.counter("serve.requests").inc()
            registry.timer("serve.latency_seconds").observe(latency)
            registry.emit({
                "kind": "serve_request",
                "id": response.request_id,
                "task": task,
                "latency_seconds": latency,
                "score": prediction.score,
            })
            responses.append(response)
        return responses
