"""Neural network substrate: autograd, layers, transformers, optimizers.

This package replaces the paper's PyTorch/HuggingFace dependency with a
self-contained, gradient-checked numpy implementation (see DESIGN.md,
substitution table).

This ``__init__`` is the canonical public surface: the eager API
(:class:`Tensor`, :class:`Module`, layers, optimizers), the one tape-off
mode (:class:`inference_mode`), the op hook (:func:`set_tape_hook`) and
``DEFAULT_DTYPE``.

Every op runs through ``Tensor._apply``, which looks its forward/vjp
pair (:class:`OpDef`) up in the one op table of :mod:`repro.nn.backend`,
whose kernels call numpy directly.  Raw ``.data`` arithmetic is an
implementation detail of that seam and is flagged anywhere else in
``nn/`` (lint rule REPRO006): op math outside the table is neither
taped nor observed.
"""

from .attention import MultiHeadAttention, causal_mask, padding_mask
from .backend import DEFAULT_DTYPE, OpDef
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
from .module import InitMetadata, Module, ModuleList, Parameter, weight_epoch
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
    is_inference_mode,
    set_tape_hook,
)
from .transformer import Decoder, DecoderLayer, Encoder, EncoderLayer, FeedForward

__all__ = [
    "Tensor", "inference_mode", "is_inference_mode",
    "set_tape_hook", "get_tape_hook", "OpDef", "DEFAULT_DTYPE",
    "Module", "ModuleList", "Parameter", "InitMetadata", "weight_epoch",
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
