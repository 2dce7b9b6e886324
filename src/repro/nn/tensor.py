"""Reverse-mode automatic differentiation on top of the op table.

This module is the computational foundation of the library.  It implements a
small, well-tested :class:`Tensor` type supporting the operations the
transformer stack needs: broadcasting arithmetic, matrix multiplication,
reductions, indexing, shape manipulation and the usual nonlinearities.

The design mirrors the classic tape-based approach: every operation records
its parents and a closure computing the local vector-Jacobian product.
Calling :meth:`Tensor.backward` on a scalar walks the tape in reverse
topological order and accumulates gradients into every tensor created with
``requires_grad=True``.

The arithmetic itself does not live here: every op is looked up in
:mod:`repro.nn.backend`'s :data:`~repro.nn.backend.OPS` table (forward
kernel + vector-Jacobian product), and this module only does the tape
bookkeeping around it.  :meth:`Tensor._apply` is the one place an op
runs, so it is also the one place an op is observed (:func:`set_tape_hook`).

All gradients are checked against central finite differences in the test
suite (``tests/nn/test_tensor.py``).
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Sequence

import numpy as np

from .backend import DEFAULT_DTYPE, OPS, _unbroadcast

__all__ = ["Tensor", "inference_mode", "is_inference_mode",
           "set_tape_hook", "get_tape_hook"]

_INFERENCE_MODE = False

# Optional op hook (see repro.runtime.profiler and repro.analysis.tape).
# When installed it receives ``on_forward(op, nbytes, seconds)`` for every
# op run, in grad and inference mode alike, and ``on_backward(op,
# seconds)`` for every vector-Jacobian product.  A hook may additionally
# define ``on_node(tensor)`` to observe every *tracked* result tensor as
# it joins the tape (see repro.analysis.tape); the bound method is cached
# here so the disabled path stays a single ``is None`` check per op.
_TAPE_HOOK = None
_TAPE_ON_NODE = None


def set_tape_hook(hook) -> object | None:
    """Install the op hook; returns the previously installed one.

    Pass ``None`` to uninstall.  Used by :func:`repro.runtime.profile`,
    :func:`repro.analysis.trace_tape` and ``repro check``'s
    :class:`~repro.analysis.OpCounter`.
    """
    global _TAPE_HOOK, _TAPE_ON_NODE
    previous = _TAPE_HOOK
    _TAPE_HOOK = hook
    _TAPE_ON_NODE = getattr(hook, "on_node", None)
    return previous


def get_tape_hook() -> object | None:
    """The currently installed tape hook, if any."""
    return _TAPE_HOOK


class inference_mode:
    """Context manager turning the autograd tape off.

    The library's one tape-off mode.  Inside the block no tensor
    requires grad, and every op result is built through a slim
    constructor that retains no parents and no backward closure and
    bypasses ``Tensor.__init__``'s dtype coercion — the tape simply does
    not exist for the duration of the block.  An installed op hook still
    sees every op.  Numerics are untouched: forward values are
    bit-identical to grad mode.

    Used by the serving layer (:mod:`repro.serve`) and by
    :meth:`Module.inference`.
    """

    def __enter__(self) -> "inference_mode":
        global _INFERENCE_MODE
        self._previous = _INFERENCE_MODE
        _INFERENCE_MODE = True
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _INFERENCE_MODE
        _INFERENCE_MODE = self._previous


def is_inference_mode() -> bool:
    """Return whether the tape is off (inside :class:`inference_mode`)."""
    return _INFERENCE_MODE


class Tensor:
    """A numpy array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float`` ndarray if needed.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(
        self,
        data: np.ndarray | float | int | Sequence,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        _op: str = "leaf",
    ) -> None:
        arr = np.asarray(data)
        if arr.dtype.kind in "iub":
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad) and not _INFERENCE_MODE
        self.grad: np.ndarray | None = None
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward = _backward
        self._op = _op

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op!r}{grad_note})"

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Tape machinery
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(value: "Tensor | np.ndarray | float | int") -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _apply(self, name: str, inputs: tuple["Tensor", ...],
               params: dict | None = None) -> "Tensor":
        """Run one op from the op table and tape it.

        Runs the op's ``forward`` kernel (timed and reported to the op
        hook when one is installed, in every mode), wraps the result in
        a ``Tensor`` (slim in inference mode) and attaches a generic
        backward closure invoking the op's ``vjp``.  It is the only way
        a tape node is built: op math that bypasses it gets no gradient
        and is invisible to the op hook.
        """
        if params is None:
            params = {}
        opdef = OPS[name]
        datas = tuple(t.data for t in inputs)
        hook = _TAPE_HOOK
        if hook is None:
            out_data, ctx = opdef.forward(datas, params)
        else:
            start = time.perf_counter()
            out_data, ctx = opdef.forward(datas, params)
            hook.on_forward(name, out_data.nbytes,
                            time.perf_counter() - start)

        if _INFERENCE_MODE:
            out = Tensor.__new__(Tensor)
            out.data = out_data
            out.requires_grad = False
            out.grad = None
            out._parents = ()
            out._backward = None
            out._op = name
            return out

        if not any(p.requires_grad for p in inputs):
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            needs = tuple(p.requires_grad for p in inputs)
            grads = opdef.vjp(grad, ctx, needs)
            # A VJP result may be adopted as a parent's buffer unless it
            # is the incoming ``grad`` or went to an earlier parent.
            handed = [grad]
            for parent, g in zip(inputs, grads):
                if g is not None and parent.requires_grad:
                    parent._accumulate(
                        g, adopt=all(g is not h for h in handed))
                    handed.append(g)

        out = Tensor(out_data, requires_grad=True, _parents=inputs,
                     _backward=backward, _op=name)
        if _TAPE_ON_NODE is not None:
            _TAPE_ON_NODE(out)
        return out

    def _accumulate(self, grad: np.ndarray, adopt: bool = False) -> None:
        """Add one gradient contribution into ``self.grad``.

        The first write adopts ``grad`` itself when the caller may give
        it away (``adopt``) and it is a fresh, writeable float64 array
        of this tensor's shape that views no other memory.  Any other
        first write (the seed, a pass-through, a view, a numpy scalar)
        is ``0.0 + grad`` into an unfilled buffer: the float op of a
        zero fill and ``+=``, in one pass, which turns -0.0 into +0.0.
        """
        if self.grad is not None:
            self.grad += grad
        elif (adopt and type(grad) is np.ndarray and grad.base is None
              and grad.dtype == DEFAULT_DTYPE
              and grad.shape == self.data.shape and grad.flags.writeable):
            self.grad = grad
        else:
            self.grad = np.add(grad, 0.0, out=np.empty_like(
                self.data, dtype=DEFAULT_DTYPE))

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient; defaults to 1 for scalar outputs.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed requires a scalar tensor")
            grad = np.ones_like(self.data, dtype=DEFAULT_DTYPE)
        else:
            grad = np.asarray(grad, dtype=DEFAULT_DTYPE)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"seed gradient shape {grad.shape} != tensor shape {self.data.shape}"
                )

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        self._accumulate(grad)
        hook = _TAPE_HOOK
        if hook is None:
            for node in reversed(order):
                if node._backward is None or node.grad is None:
                    continue
                node._backward(node.grad)
        else:
            for node in reversed(order):
                if node._backward is None or node.grad is None:
                    continue
                start = time.perf_counter()
                node._backward(node.grad)
                hook.on_backward(node._op, time.perf_counter() - start)

    def zero_grad(self) -> None:
        """Drop any accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "Tensor | float | np.ndarray") -> "Tensor":
        other = self._coerce(other)
        return self._apply("add", (self, other))

    def __radd__(self, other: "float | np.ndarray") -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        return self._apply("neg", (self,))

    def __sub__(self, other: "Tensor | float | np.ndarray") -> "Tensor":
        return self.__add__(-self._coerce(other))

    def __rsub__(self, other: "float | np.ndarray") -> "Tensor":
        return self._coerce(other).__add__(-self)

    def __mul__(self, other: "Tensor | float | np.ndarray") -> "Tensor":
        other = self._coerce(other)
        return self._apply("mul", (self, other))

    def __rmul__(self, other: "float | np.ndarray") -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: "Tensor | float | np.ndarray") -> "Tensor":
        other = self._coerce(other)
        return self._apply("div", (self, other))

    def __rtruediv__(self, other: "float | np.ndarray") -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        return self._apply("pow", (self,), {"exponent": exponent})

    # ------------------------------------------------------------------
    # Nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        return self._apply("exp", (self,))

    def log(self) -> "Tensor":
        return self._apply("log", (self,))

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        return self._apply("tanh", (self,))

    def relu(self) -> "Tensor":
        return self._apply("relu", (self,))

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation, as in BERT)."""
        return self._apply("gelu", (self,))

    def sigmoid(self) -> "Tensor":
        return self._apply("sigmoid", (self,))

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        return self._apply("matmul", (self, other))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    def linear(self, weight: "Tensor", bias: "Tensor") -> "Tensor":
        """Affine map ``self @ weight + bias`` as one op.

        Forward and gradients are bitwise those of the ``matmul → add``
        chain, up to the sign of a zero gradient entry; the pre-bias
        product is not kept on the tape.
        """
        return self._apply("linear", (self, weight, bias))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        return self._apply("sum", (self,), {"axis": axis, "keepdims": keepdims})

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = 1
            for ax in axes:
                count *= self.shape[ax % self.ndim]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        return self._apply("max", (self,), {"axis": axis, "keepdims": keepdims})

    def var(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Population variance along ``axis``."""
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return self._apply("reshape", (self,), {"shape": shape})

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        return self._apply("transpose", (self,), {"axes": axes})

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, index) -> "Tensor":
        return self._apply("getitem", (self,), {"index": index})

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Gather rows of a 2-D tensor — the embedding-lookup primitive.

        ``indices`` may have any shape; the result has shape
        ``indices.shape + (self.shape[1],)``.
        """
        if self.ndim != 2:
            raise ValueError("take_rows expects a 2-D tensor (a lookup table)")
        idx = np.asarray(indices, dtype=np.int64)
        return self._apply("take_rows", (self,), {"indices": idx})

    # ------------------------------------------------------------------
    # Composite ops used throughout the transformer stack
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        return self._apply("softmax", (self,), {"axis": axis})

    def log_softmax(self, axis: int = -1) -> "Tensor":
        return self._apply("log_softmax", (self,), {"axis": axis})

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Replace entries where ``mask`` is true with ``value``.

        Attention masks its scores inside :meth:`attention_softmax`, not
        through this op.
        """
        mask = np.asarray(mask, dtype=bool)
        return self._apply("masked_fill", (self,), {"mask": mask, "value": value})

    def attention_softmax(self, scale: float, bias: np.ndarray | None = None,
                          mask: np.ndarray | None = None) -> "Tensor":
        """Attention probabilities of raw ``(…, q_len, k_len)`` scores.

        One op for ``(self * scale + bias).masked_fill(mask, NEG_INF)
        .softmax(axis=-1)``; ``bias`` (additive) and ``mask`` (``True``
        blocks) are optional and broadcast to the scores.  Forward and
        gradients are bitwise those of that chain, up to the sign of a
        zero gradient entry.
        """
        if bias is not None:
            bias = np.asarray(bias, dtype=DEFAULT_DTYPE)
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
        return self._apply("attention_softmax", (self,),
                           {"scale": scale, "bias": bias, "mask": mask})

    def layer_norm(self, gain: "Tensor", bias: "Tensor",
                   eps: float) -> "Tensor":
        """Normalize the last axis, then ``· gain + bias``, as one op.

        The forward is bitwise the composed chain's (mean, centring,
        variance, ``(var + eps) ** -0.5``); the input gradient is the
        analytic one and agrees with the chain's to rounding.
        """
        return self._apply("layer_norm", (self, gain, bias), {"eps": eps})

    def cross_entropy(self, targets: np.ndarray,
                      ignore_index: int | None = None) -> "Tensor":
        """Mean NLL of a ``(n, classes)`` tensor against integer targets.

        One fused op replacing the ``log_softmax → getitem → mul
        → sum → neg`` chain; gradients are bit-identical to that chain.
        """
        targets = np.asarray(targets, dtype=np.int64)
        return self._apply("cross_entropy", (self,),
                           {"targets": targets, "ignore_index": ignore_index})

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._coerce(t) for t in tensors]
        ref = tensors[0]
        return ref._apply("concatenate", tuple(tensors), {"axis": axis})

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._coerce(t) for t in tensors]
        ref = tensors[0]
        return ref._apply("stack", tuple(tensors), {"axis": axis})
