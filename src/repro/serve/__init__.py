"""repro.serve — the request-oriented inference engine.

Training amortizes the transformer across epochs; serving answers one
request at a time, so the engine wins its throughput back with two
mechanisms (each usable on its own):

- :class:`~repro.nn.inference_mode` forwards that allocate no autograd
  tape (see ``repro.nn``);
- :class:`EncodingCache` — a content-addressed LRU of encoder hidden
  states, so repeated tables skip the transformer entirely.

:class:`InferenceEngine` composes both behind one synchronous
``process``.  At scale, :class:`ReplicatedFrontend` puts N forked
replicas of the engine behind a bounded admission queue — the serving
tier's only queue — with per-request deadlines and load shedding, and
:func:`run_server` (driven by :class:`ServerConfig`) exposes the
versioned ``/v1`` HTTP surface on top — ``repro serve`` and
``repro predict`` are thin shells around these.  Throughput, hit-rate
and shed/deadline telemetry flow through the global
:class:`~repro.runtime.MetricsRegistry` under ``serve.*``.
"""

from .cache import (EncodingCache, feature_fingerprint,
                    model_fingerprint, table_fingerprint)
from .engine import InferenceEngine, PredictResponse, ServeConfig
from .frontend import (
    AdmissionQueue,
    FrontendConfig,
    ReplicatedFrontend,
    ServeTicket,
)
from .requests import (
    SERVED_TASKS,
    RequestError,
    affinity_key,
    build_example,
    build_predictor,
    json_safe_label,
    parse_table,
)
from .server import ServerConfig, make_http_server, run_server

__all__ = [
    "EncodingCache", "feature_fingerprint", "model_fingerprint",
    "table_fingerprint",
    "InferenceEngine", "PredictResponse", "ServeConfig",
    "AdmissionQueue", "FrontendConfig", "ReplicatedFrontend", "ServeTicket",
    "SERVED_TASKS", "RequestError", "affinity_key", "build_example",
    "build_predictor", "json_safe_label", "parse_table",
    "ServerConfig", "make_http_server", "run_server",
]
