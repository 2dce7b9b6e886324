"""Optimizers and learning-rate schedules for pretraining and fine-tuning."""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .module import Parameter

__all__ = [
    "SGD",
    "Adam",
    "clip_gradients",
    "ConstantSchedule",
    "LinearWarmupSchedule",
    "CosineSchedule",
]


def clip_gradients(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (useful for logging training stability).
    """
    params = [p for p in parameters if p.grad is not None]
    total = math.sqrt(sum(float((p.grad**2).sum()) for p in params))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


class _Optimizer:
    """Shared bookkeeping for optimizers."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self.step_count = 0

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # State IO (trainer checkpointing)
    # ------------------------------------------------------------------
    def _slot_names(self) -> tuple[str, ...]:
        """Names of per-parameter state attributes (lists of arrays)."""
        return ()

    def state_dict(self) -> dict:
        """Everything needed to continue stepping bit-identically."""
        state: dict = {"lr": self.lr, "step_count": self.step_count}
        for name in self._slot_names():
            state[name] = [array.copy() for array in getattr(self, name)]
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (validates slot shapes)."""
        for name in self._slot_names():
            saved = state[name]
            own = getattr(self, name)
            if len(saved) != len(own):
                raise ValueError(
                    f"optimizer state {name!r} has {len(saved)} slots, "
                    f"expected {len(own)}")
            mismatched = [i for i, (s, o) in enumerate(zip(saved, own))
                          if np.asarray(s).shape != o.shape]
            if mismatched:
                raise ValueError(
                    f"optimizer state {name!r} shape mismatch at "
                    f"slots {mismatched}")
        self.lr = float(state["lr"])
        self.step_count = int(state["step_count"])
        for name in self._slot_names():
            for own, saved in zip(getattr(self, name), state[name]):
                own[...] = saved


class SGD(_Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters: Iterable[Parameter], lr: float,
                 momentum: float = 0.0) -> None:
        super().__init__(parameters, lr)
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def _slot_names(self) -> tuple[str, ...]:
        return ("_velocity",)

    def step(self) -> None:
        self.step_count += 1
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v += p.grad
            p.data -= self.lr * v


class Adam(_Optimizer):
    """Adam with decoupled weight decay (AdamW), the BERT-family default."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(parameters, lr)
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def _slot_names(self) -> tuple[str, ...]:
        return ("_m", "_v")

    def step(self) -> None:
        self.step_count += 1
        beta1, beta2 = self.betas
        bias1 = 1.0 - beta1**self.step_count
        bias2 = 1.0 - beta2**self.step_count
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class ConstantSchedule:
    """Fixed learning rate."""

    def __init__(self, lr: float) -> None:
        self.lr = lr

    def __call__(self, step: int) -> float:
        return self.lr


class LinearWarmupSchedule:
    """Linear warmup to ``lr`` then linear decay to zero at ``total_steps``."""

    def __init__(self, lr: float, warmup_steps: int, total_steps: int) -> None:
        if total_steps <= warmup_steps:
            raise ValueError("total_steps must exceed warmup_steps")
        self.lr = lr
        self.warmup_steps = max(1, warmup_steps)
        self.total_steps = total_steps

    def __call__(self, step: int) -> float:
        if step < self.warmup_steps:
            return self.lr * (step + 1) / self.warmup_steps
        remaining = max(0, self.total_steps - step)
        return self.lr * remaining / (self.total_steps - self.warmup_steps)


class CosineSchedule:
    """Cosine decay from ``lr`` to ``min_lr`` over ``total_steps``."""

    def __init__(self, lr: float, total_steps: int, min_lr: float = 0.0) -> None:
        self.lr = lr
        self.total_steps = max(1, total_steps)
        self.min_lr = min_lr

    def __call__(self, step: int) -> float:
        progress = min(1.0, step / self.total_steps)
        cosine = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.min_lr + (self.lr - self.min_lr) * cosine
