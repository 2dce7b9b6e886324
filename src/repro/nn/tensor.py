"""Reverse-mode automatic differentiation on top of the backend op table.

This module is the computational foundation of the library.  It implements a
small, well-tested :class:`Tensor` type supporting the operations the
transformer stack needs: broadcasting arithmetic, matrix multiplication,
reductions, indexing, shape manipulation and the usual nonlinearities.

The design mirrors the classic tape-based approach: every operation records
its parents and a closure computing the local vector-Jacobian product.
Calling :meth:`Tensor.backward` on a scalar walks the tape in reverse
topological order and accumulates gradients into every tensor created with
``requires_grad=True``.

Since the backend redesign, the arithmetic itself no longer lives here:
every op dispatches through :mod:`repro.nn.backend`'s :class:`OpDef` table
(forward kernel + vector-Jacobian product), and this module only does the
tape bookkeeping around it.

All gradients are checked against central finite differences in the test
suite (``tests/nn/test_tensor.py``).
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Sequence

import numpy as np

from . import backend as _backend
from .backend import DEFAULT_DTYPE, _unbroadcast

__all__ = ["Tensor", "no_grad", "inference_mode", "is_grad_enabled",
           "is_inference_mode", "set_tape_hook", "get_tape_hook"]

_GRAD_ENABLED = True
_INFERENCE_MODE = False

# Optional profiling hook (see repro.runtime.profiler).  When installed it
# receives ``on_forward(op, nbytes)`` for every op creation and
# ``on_backward(op, seconds)`` for every vector-Jacobian product.  A hook
# may additionally define ``on_node(tensor)`` to observe every *tracked*
# result tensor as it joins the tape (see repro.analysis.tape); the bound
# method is cached here so the disabled path stays a single ``is None``
# check per op.
_TAPE_HOOK = None
_TAPE_ON_NODE = None


def set_tape_hook(hook) -> object | None:
    """Install a tape profiling hook; returns the previously installed one.

    Pass ``None`` to uninstall.  Used by :func:`repro.runtime.profile`.
    """
    global _TAPE_HOOK, _TAPE_ON_NODE
    previous = _TAPE_HOOK
    _TAPE_HOOK = hook
    _TAPE_ON_NODE = getattr(hook, "on_node", None)
    return previous


def get_tape_hook() -> object | None:
    """The currently installed tape hook, if any."""
    return _TAPE_HOOK


class no_grad:
    """Context manager disabling gradient tape recording.

    Used by inference paths (``model.encode``) and by optimizers when they
    update parameters in place.
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous


class inference_mode:
    """Context manager putting the op layer in its serving fast path.

    Strictly stronger than :class:`no_grad`: besides disabling gradient
    recording, every op result is built through a slim constructor that
    retains no parents and no backward closure, skips the profiling-hook
    check, and bypasses ``Tensor.__init__``'s dtype coercion — the tape
    simply does not exist for the duration of the block.  Numerics are
    untouched: forward values are bit-identical to grad mode.

    Used by the serving layer (:mod:`repro.serve`) and by
    :meth:`Module.inference`.
    """

    def __enter__(self) -> "inference_mode":
        global _GRAD_ENABLED, _INFERENCE_MODE
        self._previous = (_GRAD_ENABLED, _INFERENCE_MODE)
        _GRAD_ENABLED = False
        _INFERENCE_MODE = True
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _GRAD_ENABLED, _INFERENCE_MODE
        _GRAD_ENABLED, _INFERENCE_MODE = self._previous


def is_grad_enabled() -> bool:
    """Return whether operations are currently recorded on the tape."""
    return _GRAD_ENABLED


def is_inference_mode() -> bool:
    """Return whether the inference fast path is active."""
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
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
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
        """Dispatch one op through the active backend and tape it.

        Runs the backend ``forward`` kernel, wraps the result in a
        ``Tensor`` (slim in inference mode), attaches a generic backward
        closure invoking the backend ``vjp``, and notifies the profiling
        hook.  It is the only way a tape node is built: op math that
        bypasses it gets no gradient and is invisible to the tape hook.
        """
        if params is None:
            params = {}
        b = _backend._BACKEND
        opdef = _backend._ACTIVE_OPS[name]
        out_data, ctx = opdef.forward(b, tuple(t.data for t in inputs), params)

        if _INFERENCE_MODE:
            out = Tensor.__new__(Tensor)
            out.data = out_data
            out.requires_grad = False
            out.grad = None
            out._parents = ()
            out._backward = None
            out._op = name
            return out

        if _TAPE_HOOK is not None:
            _TAPE_HOOK.on_forward(name, out_data.nbytes)
        requires = _GRAD_ENABLED and any(p.requires_grad for p in inputs)
        if not requires:
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            needs = tuple(p.requires_grad for p in inputs)
            grads = opdef.vjp(b, grad, ctx, needs)
            for parent, g in zip(inputs, grads):
                if g is not None and parent.requires_grad:
                    parent._accumulate(g)

        out = Tensor(out_data, requires_grad=True, _parents=inputs,
                     _backward=backward, _op=name)
        if _TAPE_ON_NODE is not None:
            _TAPE_ON_NODE(out)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        # The first write is ``0.0 + grad`` into an unfilled buffer: the
        # float op of a zero fill and ``+=``, in one pass.  It turns -0.0
        # into +0.0, which ``_canon`` in the fused ``cross_entropy``
        # backward mirrors.
        if self.grad is None:
            self.grad = np.add(grad, 0.0, out=np.empty_like(
                self.data, dtype=DEFAULT_DTYPE))
        else:
            self.grad += grad

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
        """Population variance along ``axis`` (as used by layer norm)."""
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

        Used to implement attention masking: masked positions get a large
        negative score before softmax.
        """
        mask = np.asarray(mask, dtype=bool)
        return self._apply("masked_fill", (self,), {"mask": mask, "value": value})

    def cross_entropy(self, targets: np.ndarray,
                      ignore_index: int | None = None) -> "Tensor":
        """Mean NLL of a ``(n, classes)`` tensor against integer targets.

        One fused backend op replacing the ``log_softmax → getitem → mul
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
