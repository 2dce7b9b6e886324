"""The op table behind every ``Tensor`` op.

This module is the seam between the autograd bookkeeping in
:mod:`repro.nn.tensor` and the arithmetic that actually runs.  Every
operation the library performs through ``Tensor`` methods is one
:class:`OpDef` in :data:`OPS`: a pure ``forward`` function producing the
result array plus a context tuple, and a pure ``vjp`` function mapping
an output gradient back onto the inputs.  The kernels call numpy
directly.

Bit-identity contract
---------------------
The forward/vjp pairs here reproduce, float-op for float-op, the inline
numpy the original ``Tensor`` closures executed (see DESIGN.md,
"Op table").  The fused kernels (``cross_entropy``, ``linear``,
``attention_softmax`` and ``layer_norm``) run the same elementary float
sequence in their forward as the op chain each replaces; their speedup
comes from eliminating per-op dispatch, node bookkeeping and the
chain's retained intermediates, never from reassociating arithmetic.
Only ``layer_norm``'s backward is analytic rather than the chain's.

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
from typing import Callable

import numpy as np

__all__ = ["DEFAULT_DTYPE", "NEG_INF", "OPS", "OpDef"]

# The accumulation dtype of the whole library: parameters, gradients and
# loss arithmetic.  Integer/bool inputs are promoted to this on Tensor
# construction; the tape sanitizer flags anything that silently narrows.
DEFAULT_DTYPE = np.float64

# The score a masked attention position gets before the softmax.
NEG_INF = -1e9

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
    # The sums already have ``shape``; a reshape would only turn them
    # into views, which the tape copies instead of adopting.
    return grad


@dataclass(frozen=True)
class OpDef:
    """One differentiable operation: a forward kernel and its VJP.

    ``forward(datas, params) -> (out, ctx)`` consumes raw input arrays
    (no Tensor objects) and returns the result plus whatever the
    backward pass needs.  ``vjp(grad, ctx, needs) -> grads`` returns one
    gradient per input (``None`` where ``needs`` is False).
    """

    name: str
    forward: Callable[..., tuple[np.ndarray, tuple]]
    vjp: Callable[..., tuple]


# ----------------------------------------------------------------------
# Elementary ops.  Each forward/vjp pair replicates the numpy sequence of
# the original Tensor closure exactly — do not "simplify" the arithmetic.
# ----------------------------------------------------------------------

def _fw_add(datas, params):
    x, y = datas
    return np.add(x, y), (x.shape, y.shape)


def _bw_add(grad, ctx, needs):
    xs, ys = ctx
    return (_unbroadcast(grad, xs) if needs[0] else None,
            _unbroadcast(grad, ys) if needs[1] else None)


def _fw_neg(datas, params):
    return np.negative(datas[0]), ()


def _bw_neg(grad, ctx, needs):
    return (-grad,)


def _fw_mul(datas, params):
    x, y = datas
    return np.multiply(x, y), (x, y)


def _bw_mul(grad, ctx, needs):
    x, y = ctx
    return (_unbroadcast(grad * y, x.shape) if needs[0] else None,
            _unbroadcast(grad * x, y.shape) if needs[1] else None)


def _fw_div(datas, params):
    x, y = datas
    return np.divide(x, y), (x, y)


def _bw_div(grad, ctx, needs):
    x, y = ctx
    return (_unbroadcast(grad / y, x.shape) if needs[0] else None,
            _unbroadcast(-grad * x / (y**2), y.shape) if needs[1] else None)


def _fw_pow(datas, params):
    (x,) = datas
    e = params["exponent"]
    return np.power(x, e), (x, e)


def _bw_pow(grad, ctx, needs):
    x, e = ctx
    return (grad * e * x ** (e - 1),)


def _fw_exp(datas, params):
    out_data = np.exp(datas[0])
    return out_data, (out_data,)


def _bw_exp(grad, ctx, needs):
    (out_data,) = ctx
    return (grad * out_data,)


def _fw_log(datas, params):
    (x,) = datas
    return np.log(x), (x,)


def _bw_log(grad, ctx, needs):
    (x,) = ctx
    return (grad / x,)


def _fw_tanh(datas, params):
    out_data = np.tanh(datas[0])
    return out_data, (out_data,)


def _bw_tanh(grad, ctx, needs):
    (out_data,) = ctx
    return (grad * (1.0 - out_data**2),)


def _fw_relu(datas, params):
    (x,) = datas
    mask = x > 0
    return np.where(mask, x, 0.0), (mask,)


def _bw_relu(grad, ctx, needs):
    (mask,) = ctx
    return (grad * mask,)


_GELU_C = math.sqrt(2.0 / math.pi)


def _fw_gelu(datas, params):
    """``0.5 * x * (1 + t)`` and ``t = tanh(C * (x + 0.044715 * x**3))``.

    The cube is ``(x * x) * x``: NumPy has no fast path for a scalar power
    of 3, so ``x**3`` would call libm ``pow`` once per element, which costs
    several times the rest of the kernel.  The polynomial then reuses its
    temporary in place, keeping the float order ``*0.044715``, ``+x``,
    ``*C``.
    """
    (x,) = datas
    # An explicit ``out`` keeps ``inner`` an array even for 0-d ``x``,
    # so the in-place steps below always have a buffer to write.
    inner = np.multiply(x, x, out=np.empty_like(x))
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= _GELU_C
    t = np.tanh(inner, out=inner)
    out_data = 0.5 * x
    out_data *= 1.0 + t
    return out_data, (x, t)


def _bw_gelu(grad, ctx, needs):
    x, t = ctx
    d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
    local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * d_inner
    return (grad * local,)


def _fw_sigmoid(datas, params):
    out_data = 1.0 / (1.0 + np.exp(-datas[0]))
    return out_data, (out_data,)


def _bw_sigmoid(grad, ctx, needs):
    (out_data,) = ctx
    return (grad * out_data * (1.0 - out_data),)


def _fw_matmul(datas, params):
    x, y = datas
    return x @ y, (x, y)


def _bw_matmul(grad, ctx, needs):
    x, y = ctx
    gx = gy = None
    if needs[0]:
        gx = _unbroadcast(grad @ np.swapaxes(y, -1, -2), x.shape)
    if needs[1]:
        gy = _unbroadcast(np.swapaxes(x, -1, -2) @ grad, y.shape)
    return (gx, gy)


def _fw_sum(datas, params):
    (x,) = datas
    axis = params["axis"]
    keepdims = params["keepdims"]
    return x.sum(axis=axis, keepdims=keepdims), (x.shape, axis, keepdims)


def _bw_sum(grad, ctx, needs):
    shape, axis, keepdims = ctx
    g = grad
    if axis is not None and not keepdims:
        axes = (axis,) if isinstance(axis, int) else axis
        ndim = len(shape)
        for ax in sorted(a % ndim for a in axes):
            g = np.expand_dims(g, ax)
    return (np.broadcast_to(g, shape).copy(),)


def _fw_max(datas, params):
    (x,) = datas
    axis = params["axis"]
    keepdims = params["keepdims"]
    data = x.max(axis=axis, keepdims=keepdims)
    return data, (x, data, axis, keepdims)


def _bw_max(grad, ctx, needs):
    x, out_data, axis, keepdims = ctx
    expanded = out_data if keepdims else np.expand_dims(out_data, axis)
    mask = x == expanded
    # Split gradient equally among ties to keep the check well defined.
    counts = mask.sum(axis=axis, keepdims=True)
    g = grad if keepdims else np.expand_dims(grad, axis)
    return (mask * g / counts,)


def _fw_reshape(datas, params):
    (x,) = datas
    return x.reshape(params["shape"]), (x.shape,)


def _bw_reshape(grad, ctx, needs):
    (original,) = ctx
    return (grad.reshape(original),)


def _fw_transpose(datas, params):
    (x,) = datas
    axes = params["axes"]
    return x.transpose(axes), (np.argsort(axes),)


def _bw_transpose(grad, ctx, needs):
    (inverse,) = ctx
    return (grad.transpose(inverse),)


def _fw_getitem(datas, params):
    (x,) = datas
    return x[params["index"]], (x, params["index"])


def _bw_getitem(grad, ctx, needs):
    x, index = ctx
    full = np.zeros_like(x, dtype=DEFAULT_DTYPE)
    np.add.at(full, index, grad)
    return (full,)


def _fw_take_rows(datas, params):
    (x,) = datas
    idx = params["indices"]
    return x[idx], (x.shape, idx)


def _bw_take_rows(grad, ctx, needs):
    """Scatter-add the rows back with one ``np.bincount``.

    Key ``row * dim + column`` names one cell of the table.  ``bincount``
    adds each cell's contributions from 0.0 in input order, as
    ``np.add.at`` does, so the sums are bitwise the same.  Negative
    indices are wrapped into range first: the forward accepts them and
    ``bincount`` does not.  (An empty batch makes ``bincount`` count in
    integers, hence the cast.)
    """
    (rows, dim), idx = ctx
    keys = (idx.reshape(-1) % rows)[:, np.newaxis] * dim + np.arange(dim)
    full = np.bincount(keys.reshape(-1), weights=grad.reshape(-1),
                       minlength=rows * dim)
    return (full.astype(DEFAULT_DTYPE, copy=False).reshape(rows, dim),)


def _fw_softmax(datas, params):
    (x,) = datas
    axis = params["axis"]
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)
    return out_data, (out_data, axis)


def _bw_softmax(grad, ctx, needs):
    out_data, axis = ctx
    dot = (grad * out_data).sum(axis=axis, keepdims=True)
    return (out_data * (grad - dot),)


def _fw_log_softmax(datas, params):
    (x,) = datas
    axis = params["axis"]
    shifted = x - x.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    probs = np.exp(out_data)
    return out_data, (probs, axis)


def _bw_log_softmax(grad, ctx, needs):
    probs, axis = ctx
    total = grad.sum(axis=axis, keepdims=True)
    return (grad - probs * total,)


def _fw_masked_fill(datas, params):
    (x,) = datas
    mask = params["mask"]
    return np.where(mask, params["value"], x), (mask, x.shape)


def _bw_masked_fill(grad, ctx, needs):
    mask, shape = ctx
    return (_unbroadcast(np.where(mask, 0.0, grad), shape),)


def _fw_concatenate(datas, params):
    axis = params["axis"]
    out_data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)
    return out_data, (axis, offsets)


def _bw_concatenate(grad, ctx, needs):
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


def _fw_stack(datas, params):
    return np.stack(datas, axis=params["axis"]), (params["axis"],)


def _bw_stack(grad, ctx, needs):
    (axis,) = ctx
    slices = np.moveaxis(grad, axis, 0)
    return tuple(piece if need else None
                 for piece, need in zip(slices, needs))


# ----------------------------------------------------------------------
# Fused kernels.  Each forward runs the elementary float sequence of the
# op chain it replaces, in the chain's order, and keeps only what its
# backward reads.
# ----------------------------------------------------------------------

def _fw_cross_entropy(datas, params):
    """Mean NLL over non-ignored targets, fused with log-softmax.

    Replaces the five-op chain ``log_softmax → getitem → mul → sum →
    neg`` the functional layer used to build, keeping the keep-mask /
    weight arithmetic inside the op.
    """
    (flat,) = datas
    targets = params["targets"]
    ignore_index = params["ignore_index"]
    shifted = flat - flat.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_z
    probs = np.exp(log_probs)
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


def _bw_cross_entropy(grad, ctx, needs):
    probs, weights, rows, safe, picked_shape, flat_shape = ctx
    g = np.broadcast_to(-grad, picked_shape) * weights
    full = np.zeros(flat_shape, dtype=DEFAULT_DTYPE)
    np.add.at(full, (rows, safe), g)
    total = full.sum(axis=-1, keepdims=True)
    return (full - probs * total,)


def _fw_linear(datas, params):
    """``x @ W`` then ``+= b``: the ``matmul → add`` chain of a biased
    ``Linear``, without keeping the pre-bias product alive."""
    x, w, b = datas
    out = x @ w
    out += b
    return out, (x, w, b.shape)


def _bw_linear(grad, ctx, needs):
    x, w, bias_shape = ctx
    gx, gw = _bw_matmul(grad, (x, w), needs[:2])
    return (gx, gw, _unbroadcast(grad, bias_shape) if needs[2] else None)


def _fw_attention_softmax(datas, params):
    """Attention probabilities of raw ``q @ k^T`` scores.

    The chain ``* scale → + bias → masked_fill(mask, NEG_INF) → softmax``
    in one buffer: every step runs in place, in the chain's order, so
    the scaled, biased and filled scores are never kept.  ``bias`` and
    ``mask`` are optional and broadcast to the scores' shape.
    """
    (scores,) = datas
    mask = params["mask"]
    probs = scores * params["scale"]
    if params["bias"] is not None:
        probs += params["bias"]
    if mask is not None:
        np.copyto(probs, NEG_INF, where=mask)
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs, (probs, params["scale"], mask)


def _bw_attention_softmax(grad, ctx, needs):
    """The softmax, masked_fill and scale VJPs, in the chain's order."""
    probs, scale, mask = ctx
    g = grad * probs
    dot = g.sum(axis=-1, keepdims=True)
    np.subtract(grad, dot, out=g)
    g *= probs
    if mask is not None:
        np.copyto(g, 0.0, where=mask)
    g *= scale
    return (g,)


def _fw_layer_norm(datas, params):
    """Layer normalization over the last axis with gain and bias.

    The composed chain's floats in its order: ``sum · (1/D)``,
    ``x + (−μ)``, the sum of squares ``· (1/D)``, ``np.power(var + eps,
    −0.5)``, ``· gain`` and ``+ bias``.  The normalized input is the one
    full-size array kept for the backward.
    """
    x, gain, bias = datas
    inv_dim = 1.0 / x.shape[-1]
    centered = x + -(x.sum(axis=-1, keepdims=True) * inv_dim)
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_dim
    rstd = np.power(var + params["eps"], -0.5)
    normed = np.multiply(centered, rstd, out=centered)
    out = normed * gain
    out += bias
    return out, (normed, rstd, gain, bias.shape)


def _bw_layer_norm(grad, ctx, needs):
    """Analytic VJP: ``rstd · (g − mean(g) − n · mean(g · n))``, ``g = grad · gain``.

    The chain spread this over a dozen tape nodes and added four
    contributions into the input's gradient; summing them in one
    expression moves the input gradient's last bits.  The gain and bias
    gradients are the chain's mul and add VJPs, bit for bit.
    """
    normed, rstd, gain, bias_shape = ctx
    gx = ggain = gbias = None
    if needs[0]:
        inv_dim = 1.0 / normed.shape[-1]
        g = grad * gain
        gx = g - g.sum(axis=-1, keepdims=True) * inv_dim
        g *= normed
        gx -= normed * (g.sum(axis=-1, keepdims=True) * inv_dim)
        gx *= rstd
    if needs[1]:
        ggain = _unbroadcast(grad * normed, gain.shape)
    if needs[2]:
        gbias = _unbroadcast(grad, bias_shape)
    return (gx, ggain, gbias)


# ----------------------------------------------------------------------
# The op table: ``Tensor._apply`` looks every op up here by name.
# ----------------------------------------------------------------------

OPS: dict[str, OpDef] = {op.name: op for op in (
    OpDef("add", _fw_add, _bw_add),
    OpDef("neg", _fw_neg, _bw_neg),
    OpDef("mul", _fw_mul, _bw_mul),
    OpDef("div", _fw_div, _bw_div),
    OpDef("pow", _fw_pow, _bw_pow),
    OpDef("exp", _fw_exp, _bw_exp),
    OpDef("log", _fw_log, _bw_log),
    OpDef("tanh", _fw_tanh, _bw_tanh),
    OpDef("relu", _fw_relu, _bw_relu),
    OpDef("gelu", _fw_gelu, _bw_gelu),
    OpDef("sigmoid", _fw_sigmoid, _bw_sigmoid),
    OpDef("matmul", _fw_matmul, _bw_matmul),
    OpDef("sum", _fw_sum, _bw_sum),
    OpDef("max", _fw_max, _bw_max),
    OpDef("reshape", _fw_reshape, _bw_reshape),
    OpDef("transpose", _fw_transpose, _bw_transpose),
    OpDef("getitem", _fw_getitem, _bw_getitem),
    OpDef("take_rows", _fw_take_rows, _bw_take_rows),
    OpDef("softmax", _fw_softmax, _bw_softmax),
    OpDef("log_softmax", _fw_log_softmax, _bw_log_softmax),
    OpDef("masked_fill", _fw_masked_fill, _bw_masked_fill),
    OpDef("concatenate", _fw_concatenate, _bw_concatenate),
    OpDef("stack", _fw_stack, _bw_stack),
    OpDef("cross_entropy", _fw_cross_entropy, _bw_cross_entropy),
    OpDef("linear", _fw_linear, _bw_linear),
    OpDef("attention_softmax", _fw_attention_softmax, _bw_attention_softmax),
    OpDef("layer_norm", _fw_layer_norm, _bw_layer_norm),
)}
