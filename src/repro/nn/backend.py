"""The pluggable numeric backend behind every ``Tensor`` op.

This module is the seam between the autograd bookkeeping in
:mod:`repro.nn.tensor` and the arithmetic that actually runs.  Every
operation the library performs — eagerly through ``Tensor`` methods or
replayed through :class:`repro.nn.compile.TapeExecutor` — is expressed as
an :class:`OpDef`: a pure ``forward`` function producing the result array
plus a context tuple, and a pure ``vjp`` function mapping an output
gradient back onto the inputs.  Both directions receive the active
:class:`Backend`, so swapping numpy for a BLAS-threaded or array-API
implementation means registering a different op table — no caller
changes.

Bit-identity contract
---------------------
The forward/vjp pairs here reproduce, float-op for float-op, the inline
numpy the pre-backend ``Tensor`` closures executed.  The compiled
executor replays exactly these functions, which is what makes compiled
training byte-identical to eager training (see DESIGN.md, "Compiled
execution & backend seam").  The fused kernels (``bias_gelu``,
``masked_softmax``, ``layernorm``, ``cross_entropy``) run the same
elementary float sequence as the op chains they replace; their speedup
comes from eliminating per-op dispatch and node bookkeeping, never from
reassociating arithmetic.

``DEFAULT_DTYPE`` is the single source of truth for the library's
accumulation dtype; the tape sanitizer's dtype-creep check and the loss
functions both read it from here.

Importing this module also tells glibc's allocator to keep freed memory
in the heap (:func:`_retain_freed_memory`), so a training step does not
page its tape back in after every backward pass.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = [
    "DEFAULT_DTYPE",
    "Backend",
    "NumpyBackend",
    "OpDef",
    "get_backend",
    "set_backend",
    "active_ops",
]

# The accumulation dtype of the whole library: parameters, gradients and
# loss arithmetic.  Integer/bool inputs are promoted to this on Tensor
# construction; the tape sanitizer flags anything that silently narrows.
DEFAULT_DTYPE = np.float64

# glibc ``mallopt`` parameters (<malloc.h>).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20


def _retain_freed_memory() -> None:
    """Keep freed array memory in the heap instead of returning it.

    A training step allocates its whole tape of activations and gradient
    buffers and frees it after the backward pass.  By default glibc trims
    the top of the heap back to the kernel at that point, so the next step
    faults every page in again: thousands of minor faults per step.
    Setting the trim threshold to -1 never trims.  It must be set together
    with the mmap threshold: setting either one turns off glibc's dynamic
    mmap threshold, and left at its 128 KiB default every larger array
    would be mmapped, and faulted in, afresh on each allocation.  32 MiB is
    the ceiling glibc's dynamic rule reaches on 64-bit.  The settings are
    process-wide and forked workers inherit them; where ``mallopt`` does
    not exist this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, -1)


_retain_freed_memory()


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after a broadcast forward op.

    Broadcasting can prepend dimensions and stretch size-1 axes; the adjoint
    of broadcasting is summation over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _canon(x: np.ndarray) -> np.ndarray:
    """Replicate ``0.0 + x`` — the tape's per-node gradient-buffer write.

    Fused kernels collapse chains of tape nodes; at every interior node
    boundary the eager tape writes the first contribution into a fresh
    buffer as ``0.0 + x`` (``Tensor._accumulate``), which canonicalizes
    ``-0.0`` to ``+0.0``.  Adding ``0.0`` here performs the identical float
    op, keeping fused backward passes bitwise equal to their unfused
    counterparts.
    """
    return x + 0.0


@dataclass(frozen=True)
class OpDef:
    """One differentiable operation: a forward kernel and its VJP.

    ``forward(backend, datas, params) -> (out, ctx)`` consumes raw input
    arrays (no Tensor objects) and returns the result plus whatever the
    backward pass needs.  ``vjp(backend, grad, ctx, needs) -> grads``
    returns one gradient per input (``None`` where ``needs`` is False).

    ``accumulating`` marks fused kernels whose backward must interleave
    several contributions into one input buffer in tape order; their vjp
    signature is ``vjp(backend, grad, ctx, needs, accumulate)`` where
    ``accumulate(input_index, contribution)`` mirrors
    ``Tensor._accumulate``.
    """

    name: str
    forward: Callable[..., tuple[np.ndarray, tuple]]
    vjp: Callable[..., tuple] | None = None
    accumulating: bool = False
    supports_out: bool = False


class Backend:
    """Protocol for a numeric backend: primitives plus the op table.

    The primitive methods (``matmul``, ``exp`` …) are the compute-heavy
    entry points an alternative backend overrides wholesale; the op table
    (``op(name)``) carries the full forward/VJP definitions the eager
    layer and the compiled executor both dispatch through.  Shape/view
    glue (``reshape``, ``broadcast_to``) is numpy-array semantics by
    definition and not part of the protocol.
    """

    name = "abstract"
    default_dtype = DEFAULT_DTYPE

    def __init__(self) -> None:
        self._ops: dict[str, OpDef] = {}

    # -- op table ------------------------------------------------------
    def op(self, name: str) -> OpDef:
        return self._ops[name]

    def register(self, opdef: OpDef) -> None:
        """Install (or override) one op definition."""
        self._ops[opdef.name] = opdef

    def ops(self) -> dict[str, OpDef]:
        return dict(self._ops)

    # -- primitives (the minimal swap surface) -------------------------
    def matmul(self, a, b, out=None):
        raise NotImplementedError

    def add(self, a, b, out=None):
        raise NotImplementedError

    def multiply(self, a, b, out=None):
        raise NotImplementedError

    def exp(self, a, out=None):
        raise NotImplementedError

    def tanh(self, a, out=None):
        raise NotImplementedError


class NumpyBackend(Backend):
    """The default backend: plain numpy, float64 accumulation."""

    name = "numpy"

    def __init__(self) -> None:
        super().__init__()
        for opdef in _NUMPY_OPS.values():
            self.register(opdef)

    def matmul(self, a, b, out=None):
        return np.matmul(a, b, out=out) if out is not None else a @ b

    def add(self, a, b, out=None):
        return np.add(a, b, out=out)

    def multiply(self, a, b, out=None):
        return np.multiply(a, b, out=out)

    def exp(self, a, out=None):
        return np.exp(a, out=out)

    def tanh(self, a, out=None):
        return np.tanh(a, out=out)


# ----------------------------------------------------------------------
# Elementary ops.  Each forward/vjp pair replicates the numpy sequence of
# the original Tensor closure exactly — do not "simplify" the arithmetic.
# ----------------------------------------------------------------------

def _fw_add(b, datas, params, out=None):
    x, y = datas
    return b.add(x, y, out=out), (x.shape, y.shape)


def _bw_add(b, grad, ctx, needs):
    xs, ys = ctx
    return (_unbroadcast(grad, xs) if needs[0] else None,
            _unbroadcast(grad, ys) if needs[1] else None)


def _fw_neg(b, datas, params, out=None):
    return np.negative(datas[0], out=out), ()


def _bw_neg(b, grad, ctx, needs):
    return (-grad,)


def _fw_mul(b, datas, params, out=None):
    x, y = datas
    return b.multiply(x, y, out=out), (x, y)


def _bw_mul(b, grad, ctx, needs):
    x, y = ctx
    return (_unbroadcast(grad * y, x.shape) if needs[0] else None,
            _unbroadcast(grad * x, y.shape) if needs[1] else None)


def _fw_div(b, datas, params, out=None):
    x, y = datas
    return np.divide(x, y, out=out), (x, y)


def _bw_div(b, grad, ctx, needs):
    x, y = ctx
    return (_unbroadcast(grad / y, x.shape) if needs[0] else None,
            _unbroadcast(-grad * x / (y**2), y.shape) if needs[1] else None)


def _fw_pow(b, datas, params, out=None):
    (x,) = datas
    e = params["exponent"]
    return np.power(x, e, out=out), (x, e)


def _bw_pow(b, grad, ctx, needs):
    x, e = ctx
    return (grad * e * x ** (e - 1),)


def _fw_exp(b, datas, params, out=None):
    out_data = b.exp(datas[0], out=out)
    return out_data, (out_data,)


def _bw_exp(b, grad, ctx, needs):
    (out_data,) = ctx
    return (grad * out_data,)


def _fw_log(b, datas, params, out=None):
    (x,) = datas
    return np.log(x, out=out), (x,)


def _bw_log(b, grad, ctx, needs):
    (x,) = ctx
    return (grad / x,)


def _fw_tanh(b, datas, params, out=None):
    out_data = b.tanh(datas[0], out=out)
    return out_data, (out_data,)


def _bw_tanh(b, grad, ctx, needs):
    (out_data,) = ctx
    return (grad * (1.0 - out_data**2),)


def _fw_relu(b, datas, params, out=None):
    (x,) = datas
    mask = x > 0
    return np.where(mask, x, 0.0), (mask,)


def _bw_relu(b, grad, ctx, needs):
    (mask,) = ctx
    return (grad * mask,)


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_tanh(b, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``0.5 * x * (1 + t)`` and ``t = tanh(C * (x + 0.044715 * x**3))``.

    The one GELU forward both ``gelu`` and the fused ``bias_gelu`` run.
    The cube is ``(x * x) * x``: NumPy has no fast path for a scalar power
    of 3, so ``x**3`` would call libm ``pow`` once per element, which costs
    several times the rest of the kernel.  The polynomial then reuses its
    temporary in place, keeping the float order ``*0.044715``, ``+x``,
    ``*C``.
    """
    # An explicit ``out`` keeps ``inner`` an array even for 0-d ``x``,
    # so the in-place steps below always have a buffer to write.
    inner = np.multiply(x, x, out=np.empty_like(x))
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= _GELU_C
    t = b.tanh(inner, out=inner)
    out_data = 0.5 * x
    out_data *= 1.0 + t
    return out_data, t


def _fw_gelu(b, datas, params, out=None):
    (x,) = datas
    out_data, t = _gelu_tanh(b, x)
    return out_data, (x, t)


def _bw_gelu(b, grad, ctx, needs):
    x, t = ctx
    d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
    local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * d_inner
    return (grad * local,)


def _fw_sigmoid(b, datas, params, out=None):
    out_data = 1.0 / (1.0 + b.exp(-datas[0]))
    return out_data, (out_data,)


def _bw_sigmoid(b, grad, ctx, needs):
    (out_data,) = ctx
    return (grad * out_data * (1.0 - out_data),)


def _fw_matmul(b, datas, params, out=None):
    x, y = datas
    return b.matmul(x, y, out=out), (x, y)


def _bw_matmul(b, grad, ctx, needs):
    x, y = ctx
    gx = gy = None
    if needs[0]:
        gx = _unbroadcast(b.matmul(grad, np.swapaxes(y, -1, -2)), x.shape)
    if needs[1]:
        gy = _unbroadcast(b.matmul(np.swapaxes(x, -1, -2), grad), y.shape)
    return (gx, gy)


def _fw_sum(b, datas, params, out=None):
    (x,) = datas
    axis = params["axis"]
    keepdims = params["keepdims"]
    return x.sum(axis=axis, keepdims=keepdims), (x.shape, axis, keepdims)


def _bw_sum(b, grad, ctx, needs):
    shape, axis, keepdims = ctx
    g = grad
    if axis is not None and not keepdims:
        axes = (axis,) if isinstance(axis, int) else axis
        ndim = len(shape)
        for ax in sorted(a % ndim for a in axes):
            g = np.expand_dims(g, ax)
    return (np.broadcast_to(g, shape).copy(),)


def _fw_max(b, datas, params, out=None):
    (x,) = datas
    axis = params["axis"]
    keepdims = params["keepdims"]
    data = x.max(axis=axis, keepdims=keepdims)
    return data, (x, data, axis, keepdims)


def _bw_max(b, grad, ctx, needs):
    x, out_data, axis, keepdims = ctx
    expanded = out_data if keepdims else np.expand_dims(out_data, axis)
    mask = x == expanded
    # Split gradient equally among ties to keep the check well defined.
    counts = mask.sum(axis=axis, keepdims=True)
    g = grad if keepdims else np.expand_dims(grad, axis)
    return (mask * g / counts,)


def _fw_reshape(b, datas, params, out=None):
    (x,) = datas
    return x.reshape(params["shape"]), (x.shape,)


def _bw_reshape(b, grad, ctx, needs):
    (original,) = ctx
    return (grad.reshape(original),)


def _fw_transpose(b, datas, params, out=None):
    (x,) = datas
    axes = params["axes"]
    return x.transpose(axes), (np.argsort(axes),)


def _bw_transpose(b, grad, ctx, needs):
    (inverse,) = ctx
    return (grad.transpose(inverse),)


def _fw_getitem(b, datas, params, out=None):
    (x,) = datas
    return x[params["index"]], (x, params["index"])


def _bw_getitem(b, grad, ctx, needs):
    x, index = ctx
    full = np.zeros_like(x, dtype=DEFAULT_DTYPE)
    np.add.at(full, index, grad)
    return (full,)


def _fw_take_rows(b, datas, params, out=None):
    (x,) = datas
    idx = params["indices"]
    return x[idx], (x, idx)


def _bw_take_rows(b, grad, ctx, needs):
    x, idx = ctx
    full = np.zeros_like(x, dtype=DEFAULT_DTYPE)
    np.add.at(full, idx.reshape(-1), grad.reshape(-1, x.shape[1]))
    return (full,)


def _fw_softmax(b, datas, params, out=None):
    (x,) = datas
    axis = params["axis"]
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = b.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)
    return out_data, (out_data, axis)


def _bw_softmax(b, grad, ctx, needs):
    out_data, axis = ctx
    dot = (grad * out_data).sum(axis=axis, keepdims=True)
    return (out_data * (grad - dot),)


def _fw_log_softmax(b, datas, params, out=None):
    (x,) = datas
    axis = params["axis"]
    shifted = x - x.max(axis=axis, keepdims=True)
    log_z = np.log(b.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    probs = b.exp(out_data)
    return out_data, (probs, axis)


def _bw_log_softmax(b, grad, ctx, needs):
    probs, axis = ctx
    total = grad.sum(axis=axis, keepdims=True)
    return (grad - probs * total,)


def _fw_masked_fill(b, datas, params, out=None):
    (x,) = datas
    mask = params["mask"]
    return np.where(mask, params["value"], x), (mask, x.shape)


def _bw_masked_fill(b, grad, ctx, needs):
    mask, shape = ctx
    return (_unbroadcast(np.where(mask, 0.0, grad), shape),)


def _fw_concatenate(b, datas, params, out=None):
    axis = params["axis"]
    out_data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)
    return out_data, (axis, offsets)


def _bw_concatenate(b, grad, ctx, needs):
    axis, offsets = ctx
    grads = []
    for i, (start, stop) in enumerate(zip(offsets[:-1], offsets[1:])):
        if not needs[i]:
            grads.append(None)
            continue
        slicer = [slice(None)] * grad.ndim
        slicer[axis] = slice(start, stop)
        grads.append(grad[tuple(slicer)])
    return tuple(grads)


def _fw_stack(b, datas, params, out=None):
    return np.stack(datas, axis=params["axis"]), (params["axis"],)


def _bw_stack(b, grad, ctx, needs):
    (axis,) = ctx
    slices = np.moveaxis(grad, axis, 0)
    return tuple(piece if need else None
                 for piece, need in zip(slices, needs))


# ----------------------------------------------------------------------
# Fused kernels.  Same elementary float sequence as the op chains they
# replace; ``_canon`` marks every interior tape-node boundary.
# ----------------------------------------------------------------------

def _fw_cross_entropy(b, datas, params, out=None):
    """Mean NLL over non-ignored targets, fused with log-softmax.

    Replaces the five-op chain ``log_softmax → getitem → mul → sum →
    neg`` the functional layer used to build, keeping the keep-mask /
    weight arithmetic inside the op so replay recomputes it per batch.
    """
    (flat,) = datas
    targets = params["targets"]
    ignore_index = params["ignore_index"]
    shifted = flat - flat.max(axis=-1, keepdims=True)
    log_z = np.log(b.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_z
    probs = b.exp(log_probs)
    if ignore_index is not None:
        keep = targets != ignore_index
        safe = np.where(keep, targets, 0)
    else:
        keep = np.ones_like(targets, dtype=bool)
        safe = targets
    rows = np.arange(targets.shape[0])
    picked = log_probs[rows, safe]
    weights = keep.astype(DEFAULT_DTYPE) / keep.sum()
    out_data = -(picked * weights).sum()
    return out_data, (probs, weights, rows, safe, picked.shape, flat.shape)


def _bw_cross_entropy(b, grad, ctx, needs):
    probs, weights, rows, safe, picked_shape, flat_shape = ctx
    g1 = _canon(-grad)
    g2 = np.broadcast_to(g1, picked_shape)
    g3 = _canon(g2 * weights)
    full = np.zeros(flat_shape, dtype=DEFAULT_DTYPE)
    np.add.at(full, (rows, safe), g3)
    total = full.sum(axis=-1, keepdims=True)
    return (full - probs * total,)


def _fw_bias_gelu(b, datas, params, out=None):
    """``gelu(x + bias)`` — the feed-forward expand activation."""
    x, y = datas
    t_in = b.add(x, y)
    out_data, t = _gelu_tanh(b, t_in)
    return out_data, (x.shape, y.shape, t_in, t)


def _bw_bias_gelu(b, grad, ctx, needs):
    xs, ys, t_in, t = ctx
    d_inner = _GELU_C * (1.0 + 3 * 0.044715 * t_in**2)
    local = 0.5 * (1.0 + t) + 0.5 * t_in * (1.0 - t**2) * d_inner
    g_t = _canon(grad * local)
    return (_unbroadcast(g_t, xs) if needs[0] else None,
            _unbroadcast(g_t, ys) if needs[1] else None)


def _fw_masked_softmax(b, datas, params, out=None):
    """``softmax(masked_fill(scores, mask, value))`` — attention core."""
    (scores,) = datas
    mask = params["mask"]
    axis = params["axis"]
    masked = np.where(mask, params["value"], scores)
    shifted = masked - masked.max(axis=axis, keepdims=True)
    exp = b.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)
    return out_data, (mask, out_data, axis, scores.shape)


def _bw_masked_softmax(b, grad, ctx, needs):
    mask, out_data, axis, shape = ctx
    dot = (grad * out_data).sum(axis=axis, keepdims=True)
    g_masked = _canon(out_data * (grad - dot))
    return (_unbroadcast(np.where(mask, 0.0, g_masked), shape),)


def _fw_layernorm(b, datas, params, out=None):
    """The 16-node layer-norm cluster as one kernel.

    The eager graph computes the feature mean twice (directly and inside
    ``var``); the values are bitwise equal, so the kernel computes them
    once.  ``inv_d`` must equal the recorded ``1.0 / dim`` constant.
    """
    x, gain, bias = datas
    inv_d = params["inv_d"]
    eps = params["eps"]
    s1 = x.sum(axis=-1, keepdims=True)
    mu = s1 * inv_d
    cent = x + np.negative(mu)
    sq = cent * cent
    s3 = sq.sum(axis=-1, keepdims=True)
    var = s3 * inv_d
    veps = var + eps
    inv = veps ** -0.5
    normed = cent * inv
    o1 = normed * gain
    out_data = o1 + bias
    return out_data, (x.shape, gain, bias.shape, cent, inv, veps, normed,
                      mu.shape, inv_d)


def _bw_layernorm(b, grad, ctx, needs, accumulate):
    """Backward in the exact node order of the eager DFS sweep.

    Input 0 (``x``) receives four contributions — residual path, direct
    mean, centered square, variance mean — interleaved at the tape
    positions the eager sweep used, hence the accumulating protocol.
    """
    (x_shape, gain, bias_shape, cent, inv, veps, normed,
     mu_shape, inv_d) = ctx
    g = grad
    # out = o1 + bias
    g_o1 = g
    accumulate(2, _unbroadcast(g, bias_shape))
    # o1 = normed * gain
    g_normed = _canon(g_o1 * gain)
    accumulate(1, _unbroadcast(g_o1 * normed, gain.shape))
    # normed = num * inv  (num is bitwise cent)
    g_num = _canon(g_normed * inv)
    g_inv = _canon(_unbroadcast(g_normed * cent, inv.shape))
    # num = x + (-mu): x contribution #1
    accumulate(0, g_num)
    g_nmu = _canon(_unbroadcast(g_num, mu_shape))
    g_mu = _canon(-g_nmu)
    g_s1 = _canon(g_mu * inv_d)
    # s1 = x.sum(-1): x contribution #2
    accumulate(0, np.broadcast_to(g_s1, x_shape))
    # inv = veps ** -0.5
    g_veps = _canon(g_inv * -0.5 * veps ** -1.5)
    g_var = _canon(g_veps)
    g_s3 = _canon(g_var * inv_d)
    g_sq = _canon(np.broadcast_to(g_s3, x_shape))
    # sq = cent * cent: two adds of the same product, in tape order
    t = g_sq * cent
    g_cent = _canon(t)
    g_cent = g_cent + t
    # cent = x + (-mu2): x contribution #3
    accumulate(0, g_cent)
    g_nmu2 = _canon(_unbroadcast(g_cent, mu_shape))
    g_mu2 = _canon(-g_nmu2)
    g_s2 = _canon(g_mu2 * inv_d)
    # s2 = x.sum(-1): x contribution #4
    accumulate(0, np.broadcast_to(g_s2, x_shape))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_NUMPY_OPS: dict[str, OpDef] = {}


def _register(name: str, forward, vjp, **kwargs: Any) -> None:
    _NUMPY_OPS[name] = OpDef(name=name, forward=forward, vjp=vjp, **kwargs)


_register("add", _fw_add, _bw_add, supports_out=True)
_register("neg", _fw_neg, _bw_neg, supports_out=True)
_register("mul", _fw_mul, _bw_mul, supports_out=True)
_register("div", _fw_div, _bw_div, supports_out=True)
_register("pow", _fw_pow, _bw_pow, supports_out=True)
_register("exp", _fw_exp, _bw_exp, supports_out=True)
_register("log", _fw_log, _bw_log, supports_out=True)
_register("tanh", _fw_tanh, _bw_tanh, supports_out=True)
_register("relu", _fw_relu, _bw_relu)
_register("gelu", _fw_gelu, _bw_gelu)
_register("sigmoid", _fw_sigmoid, _bw_sigmoid)
_register("matmul", _fw_matmul, _bw_matmul, supports_out=True)
_register("sum", _fw_sum, _bw_sum)
_register("max", _fw_max, _bw_max)
_register("reshape", _fw_reshape, _bw_reshape)
_register("transpose", _fw_transpose, _bw_transpose)
_register("getitem", _fw_getitem, _bw_getitem)
_register("take_rows", _fw_take_rows, _bw_take_rows)
_register("softmax", _fw_softmax, _bw_softmax)
_register("log_softmax", _fw_log_softmax, _bw_log_softmax)
_register("masked_fill", _fw_masked_fill, _bw_masked_fill)
_register("concatenate", _fw_concatenate, _bw_concatenate)
_register("stack", _fw_stack, _bw_stack)
_register("cross_entropy", _fw_cross_entropy, _bw_cross_entropy)
_register("bias_gelu", _fw_bias_gelu, _bw_bias_gelu)
_register("masked_softmax", _fw_masked_softmax, _bw_masked_softmax)
_register("layernorm", _fw_layernorm, _bw_layernorm, accumulating=True)


_BACKEND: Backend = NumpyBackend()
_ACTIVE_OPS: dict[str, OpDef] = _BACKEND.ops()


def get_backend() -> Backend:
    """The backend every op currently dispatches through."""
    return _BACKEND


def set_backend(backend: Backend) -> Backend:
    """Swap the active backend; returns the previous one.

    The eager layer and any executor built afterwards pick up the new op
    table immediately; executors already built keep the table they were
    compiled against.
    """
    global _BACKEND, _ACTIVE_OPS
    previous = _BACKEND
    _BACKEND = backend
    _ACTIVE_OPS = backend.ops()
    return previous


def active_ops() -> dict[str, OpDef]:
    """The live op table (shared reference; treat as read-only)."""
    return _ACTIVE_OPS
