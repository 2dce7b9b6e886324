"""Minimal module system: parameter registration, train/eval mode, state IO.

Modules mirror the familiar torch-style API at the scale this library needs:
attribute assignment auto-registers parameters and submodules, and
``state_dict``/``load_state_dict`` give flat name→array views used by the
checkpoint code in :mod:`repro.nn.io`.

Two process-wide epochs let per-request checks cost a comparison instead
of a pass over the weights or the module tree:

- the **weight epoch** (:func:`weight_epoch`) moves after every parameter
  write and every parameter or submodule registration.  Weights change
  only through those paths: rebinding ``Parameter.data`` (which the
  optimizers' ``p.data -= ...`` does), :meth:`Parameter.assign` (the one
  in-place store; ``load_state_dict`` and the data-parallel sync use
  it), ``Module.__setattr__`` and ``ModuleList.append``.  A memo of
  anything derived from weights stamps itself with the epoch it read
  *before* computing and is valid while the epoch has not moved;
- the **mode epoch** moves on every ``train()`` and every submodule
  registration, so ``eval()`` returns at once on a tree it already
  walked in the current mode epoch.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

import numpy as np

from .backend import DEFAULT_DTYPE
from .tensor import Tensor, inference_mode

__all__ = ["Parameter", "Module", "ModuleList", "InitMetadata",
           "weight_epoch"]

# Both epochs take their values from one counter, so no two bumps ever
# set the same value and a stale stamp can never match again.
_TICKS = itertools.count(1)
_weight_epoch = 0
_mode_epoch = 0


def weight_epoch() -> int:
    """The current weight epoch (see the module docstring)."""
    return _weight_epoch


def _weights_changed() -> None:
    global _weight_epoch
    _weight_epoch = next(_TICKS)


def _modes_changed() -> None:
    global _mode_epoch
    _mode_epoch = next(_TICKS)


@dataclass(frozen=True)
class InitMetadata:
    """How a module was constructed — what a bundle needs to rebuild it.

    Factories (see :func:`repro.core.create_model`) stamp this on the
    models they build via :attr:`Module.init_metadata`; ``save_pretrained``
    serializes it so ``load_pretrained`` can re-invoke the constructor
    with the same seed and extra keyword arguments.
    """

    seed: int = 0
    kwargs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"seed": self.seed, "kwargs": dict(self.kwargs)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "InitMetadata":
        return cls(seed=int(payload.get("seed", 0)),
                   kwargs=dict(payload.get("kwargs", {})))


#: The slot ``Tensor`` keeps its array in; ``Parameter.data`` wraps it.
_DATA_SLOT = Tensor.data


class Parameter(Tensor):
    """A tensor registered as a trainable parameter of a module.

    ``data`` is a property: rebinding it (including the optimizers'
    augmented ``p.data -= ...``) moves the weight epoch after the store.
    """

    def __init__(self, data: np.ndarray) -> None:
        super().__init__(np.asarray(data, dtype=DEFAULT_DTYPE),
                         requires_grad=True)

    def _set_data(self, value: np.ndarray) -> None:
        _DATA_SLOT.__set__(self, value)
        _weights_changed()

    data = property(_DATA_SLOT.__get__, _set_data)

    def assign(self, value: np.ndarray) -> None:
        """Store ``value`` into the parameter's array in place.

        The one in-place weight store: it writes, then moves the weight
        epoch, so no memo can stamp the old bytes with the new epoch.
        """
        self.data[...] = value
        _weights_changed()


class Module:
    """Base class for all neural network components."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)
        # The mode epoch in which eval() last walked this module.
        object.__setattr__(self, "_eval_epoch", None)

    def __setattr__(self, name: str, value: object) -> None:
        # Only registrations move an epoch: a forward that stores its
        # attention weights on the module must not invalidate anything.
        object.__setattr__(self, name, value)
        if isinstance(value, Parameter):
            self._parameters[name] = value
            _weights_changed()
        elif isinstance(value, Module):
            self._modules[name] = value
            _weights_changed()
            _modes_changed()

    # ------------------------------------------------------------------
    # Construction metadata
    # ------------------------------------------------------------------
    @property
    def init_metadata(self) -> InitMetadata:
        """Construction metadata for bundle IO (empty unless stamped)."""
        stamped = getattr(self, "_init_metadata", None)
        return stamped if stamped is not None else InitMetadata()

    @init_metadata.setter
    def init_metadata(self, value: InitMetadata) -> None:
        if not isinstance(value, InitMetadata):
            raise TypeError(
                f"init_metadata must be an InitMetadata, got {type(value).__name__}")
        object.__setattr__(self, "_init_metadata", value)

    # ------------------------------------------------------------------
    # Parameter iteration
    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield every trainable parameter exactly once."""
        seen: set[int] = set()
        for _, param in self.named_parameters():
            if id(param) not in seen:
                seen.add(id(param))
                yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs in registration order."""
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Gradient / mode management
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self) -> "Module":
        """Switch to training mode (enables dropout)."""
        for module in self.modules():
            object.__setattr__(module, "training", True)
        _modes_changed()
        return self

    def eval(self) -> "Module":
        """Switch to inference mode (disables dropout).

        Free on a tree this call already walked in the current mode
        epoch: no ``train()`` and no registration happened since, so
        every module in it is still in eval.
        """
        epoch = _mode_epoch
        if self._eval_epoch == epoch:
            return self
        for module in self.modules():
            object.__setattr__(module, "training", False)
            object.__setattr__(module, "_eval_epoch", epoch)
        return self

    @contextmanager
    def inference(self) -> Iterator["Module"]:
        """Run a block in serving mode: eval + tape-free fast path.

        Switches the module to eval (dropout off), enters
        :class:`~repro.nn.tensor.inference_mode` so forward passes build
        no autograd tape, and restores the previous training mode on
        exit.  The standard wrapper around every ``predict`` path.
        """
        was_training = self.training
        self.eval()
        try:
            with inference_mode():
                yield self
        finally:
            if was_training:
                self.train()

    # ------------------------------------------------------------------
    # State IO
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat mapping of parameter names to array copies."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load arrays produced by :meth:`state_dict` (strict matching)."""
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        unexpected = sorted(set(state) - set(own))
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={missing}, unexpected={unexpected}")
        for name, param in own.items():
            incoming = np.asarray(state[name], dtype=DEFAULT_DTYPE)
            if incoming.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name}: saved {incoming.shape}, model {param.shape}"
                )
            param.assign(incoming)

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """An indexable container that registers each child module."""

    def __init__(self, modules: list[Module] | None = None) -> None:
        super().__init__()
        self._items: list[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> None:
        self._modules[str(len(self._items))] = module
        self._items.append(module)
        _weights_changed()
        _modes_changed()

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]
