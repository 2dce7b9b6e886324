"""Autograd-tape profiler: per-op forward/backward cost accounting.

:func:`profile` installs the op hook of :mod:`repro.nn.tensor` for the
duration of a ``with`` block:

- ``Tensor._apply`` counts every op (name + output array bytes) and
  wall-times its forward kernel, in grad and inference mode alike;
- :meth:`Tensor.backward` times every node's vector-Jacobian product.

Outside a ``profile`` block the only residual cost is a single
module-level ``is None`` check per op — the no-op fast path the
``bench_runtime_overhead`` benchmark measures.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from .registry import MetricsRegistry, get_registry
from .sinks import render_table
from ..nn.tensor import set_tape_hook

__all__ = ["OpStat", "TapeProfile", "profile"]


@dataclass
class OpStat:
    """Aggregate cost of one tape op kind inside a profile region."""

    op: str
    calls: int = 0
    forward_seconds: float = 0.0
    backward_calls: int = 0
    backward_seconds: float = 0.0
    bytes: int = 0

    def to_event(self) -> dict[str, Any]:
        return {"kind": "profile_op", "op": self.op, "calls": self.calls,
                "forward_seconds": self.forward_seconds,
                "backward_calls": self.backward_calls,
                "backward_seconds": self.backward_seconds,
                "bytes": self.bytes}


@dataclass
class TapeProfile:
    """Collected per-op statistics; returned by :func:`profile`."""

    stats: dict[str, OpStat] = field(default_factory=dict)

    # -- op hook protocol (called from repro.nn.tensor) ------------------
    def on_forward(self, op: str, nbytes: int, seconds: float) -> None:
        stat = self.stats.get(op)
        if stat is None:
            stat = self.stats[op] = OpStat(op)
        stat.calls += 1
        stat.bytes += nbytes
        stat.forward_seconds += seconds

    def on_backward(self, op: str, seconds: float) -> None:
        stat = self.stats.get(op)
        if stat is None:
            stat = self.stats[op] = OpStat(op)
        stat.backward_calls += 1
        stat.backward_seconds += seconds

    # -- aggregate views -------------------------------------------------
    @property
    def total_calls(self) -> int:
        return sum(s.calls for s in self.stats.values())

    @property
    def total_forward_seconds(self) -> float:
        return sum(s.forward_seconds for s in self.stats.values())

    @property
    def total_backward_seconds(self) -> float:
        return sum(s.backward_seconds for s in self.stats.values())

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes for s in self.stats.values())

    def sorted_stats(self) -> list[OpStat]:
        """Ops ordered by combined forward+backward cost, heaviest first."""
        return sorted(
            self.stats.values(),
            key=lambda s: s.forward_seconds + s.backward_seconds,
            reverse=True)

    def table(self) -> str:
        """The human-readable per-op cost table."""
        rows = [[s.op, s.calls, f"{s.forward_seconds:.4f}",
                 s.backward_calls, f"{s.backward_seconds:.4f}",
                 f"{s.bytes / 1e6:.2f}"] for s in self.sorted_stats()]
        rows.append(["TOTAL", self.total_calls,
                     f"{self.total_forward_seconds:.4f}",
                     sum(s.backward_calls for s in self.stats.values()),
                     f"{self.total_backward_seconds:.4f}",
                     f"{self.total_bytes / 1e6:.2f}"])
        return render_table(
            "tape profile (per-op)",
            ["op", "calls", "fwd s", "bwd calls", "bwd s", "MB"], rows)

    def to_events(self) -> list[dict[str, Any]]:
        return [s.to_event() for s in self.sorted_stats()]


_ACTIVE: TapeProfile | None = None


@contextmanager
def profile(registry: MetricsRegistry | None = None,
            emit: bool = True) -> Iterator[TapeProfile]:
    """Profile every op executed inside the ``with`` block, in any mode.

    Parameters
    ----------
    registry:
        Where ``profile_op`` events go on exit (default: the global
        registry; events only materialize if it has sinks attached).
    emit:
        Set ``False`` to skip event emission and just inspect the
        returned :class:`TapeProfile`.

    Does not nest: profiling an already-profiled region raises.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("profile() regions do not nest")
    profile_obj = TapeProfile()
    _ACTIVE = profile_obj
    previous_hook = set_tape_hook(profile_obj)
    try:
        yield profile_obj
    finally:
        set_tape_hook(previous_hook)
        _ACTIVE = None
        if emit:
            target = registry or get_registry()
            for event in profile_obj.to_events():
                target.emit(event)
