"""Neural network substrate: autograd, layers, transformers, optimizers.

This package replaces the paper's PyTorch/HuggingFace dependency with a
self-contained, gradient-checked numpy implementation (see DESIGN.md,
substitution table).

This ``__init__`` is the canonical public surface.  Two layers are
re-exported here and stable:

- the eager API (:class:`Tensor`, :class:`Module`, layers, optimizers);
- the backend protocol (:class:`Backend`, :class:`NumpyBackend`,
  :func:`get_backend` / :func:`set_backend`, ``DEFAULT_DTYPE``) — every
  op's forward/vjp pair lives in the backend registry, and every tensor
  op dispatches through it.

Every op dispatches through ``Tensor._apply`` into the backend registry;
raw ``.data`` arithmetic is an implementation detail of the backend seam
and is flagged anywhere else in ``nn/`` (lint rule REPRO006).
"""

from .attention import MultiHeadAttention, causal_mask, padding_mask
from .backend import (
    DEFAULT_DTYPE,
    Backend,
    NumpyBackend,
    OpDef,
    get_backend,
    set_backend,
)
from .functional import (
    binary_cross_entropy_with_logits,
    cosine_similarity,
    cross_entropy,
    in_batch_contrastive_loss,
    mse_loss,
)
from .io import (
    CheckpointError,
    latest_valid_checkpoint,
    load_checkpoint,
    read_npz_verified,
    save_checkpoint,
    verify_checkpoint,
    write_npz_atomic,
)
from .layers import Dropout, Embedding, LayerNorm, Linear
from .module import InitMetadata, Module, ModuleList, Parameter
from .optim import (
    SGD,
    Adam,
    ConstantSchedule,
    CosineSchedule,
    LinearWarmupSchedule,
    clip_gradients,
)
from .tensor import (
    Tensor,
    get_tape_hook,
    inference_mode,
    is_grad_enabled,
    is_inference_mode,
    no_grad,
    set_tape_hook,
)
from .transformer import Decoder, DecoderLayer, Encoder, EncoderLayer, FeedForward

__all__ = [
    "Tensor", "no_grad", "inference_mode", "is_grad_enabled",
    "is_inference_mode", "set_tape_hook", "get_tape_hook",
    "Backend", "NumpyBackend", "OpDef", "get_backend", "set_backend",
    "DEFAULT_DTYPE",
    "Module", "ModuleList", "Parameter", "InitMetadata",
    "Linear", "Embedding", "LayerNorm", "Dropout",
    "MultiHeadAttention", "causal_mask", "padding_mask",
    "FeedForward", "EncoderLayer", "Encoder", "DecoderLayer", "Decoder",
    "SGD", "Adam", "clip_gradients",
    "ConstantSchedule", "LinearWarmupSchedule", "CosineSchedule",
    "cross_entropy", "binary_cross_entropy_with_logits", "mse_loss",
    "cosine_similarity", "in_batch_contrastive_loss",
    "save_checkpoint", "load_checkpoint", "CheckpointError",
    "write_npz_atomic", "read_npz_verified", "verify_checkpoint",
    "latest_valid_checkpoint",
]
