"""Post-hoc sanitization of the autograd tape.

:func:`sanitize_tape` inspects a recorded loss graph *after* the forward
pass and reports wiring problems that numerics alone hide:

- **dead parameters** — ``requires_grad`` parameters unreachable from the
  loss (a head that was constructed but never wired in trains to noise);
- **untouched ops** — traced tensors whose value was computed but whose
  output never feeds the loss, so they burn flops and receive no
  gradient;
- **dtype promotions** — narrow float arrays silently widened to the
  library's accumulation dtype (``backend.DEFAULT_DTYPE``, float64) by a
  mixed-precision operand; this "float64 creep" doubles memory traffic;
- **non-finite values** — NaN/Inf already present in the forward values;
- **fan-out risk** — outputs of numerically touchy ops (``exp``, ``log``,
  ``pow``, ``div``) consumed by many downstream nodes, the classic NaN
  amplification pattern.

Use :func:`trace_tape` around the forward pass when untouched-op and
fan-out findings are wanted; dead-parameter / dtype / non-finite checks
need only the loss tensor.  :class:`OpCounter` is the cheap op hook the
zero-forward-pass assertion of ``repro check`` relies on; it counts ops
in grad and inference mode alike.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from ..nn import DEFAULT_DTYPE, Module, Tensor
from ..nn.tensor import set_tape_hook
from ..runtime import MetricsRegistry, get_registry

__all__ = [
    "Finding", "TapeReport", "OpCounter", "TapeTracer",
    "trace_tape", "sanitize_tape", "reachable_from",
]

#: Ops whose outputs explode fastest when reused widely downstream.
RISKY_OPS = frozenset({"exp", "log", "pow", "div"})


class OpCounter:
    """Minimal op hook counting ops run — nothing else.

    ``repro check`` installs one while it instantiates and symbolically
    walks every model × task pair, then asserts ``forward_ops == 0``:
    static validation must never run an actual forward pass, with the
    tape on or off.
    """

    def __init__(self) -> None:
        self.forward_ops = 0
        self.backward_ops = 0

    def on_forward(self, op: str, nbytes: int, seconds: float) -> None:
        self.forward_ops += 1

    def on_backward(self, op: str, seconds: float) -> None:
        self.backward_ops += 1


class TapeTracer(OpCounter):
    """Op hook retaining every tracked tensor created while installed."""

    def __init__(self) -> None:
        super().__init__()
        self.nodes: list[Tensor] = []

    def on_node(self, tensor: Tensor) -> None:
        self.nodes.append(tensor)


@contextmanager
def trace_tape() -> Iterator[TapeTracer]:
    """Record every tracked tensor built inside the block.

    Nests with :func:`repro.runtime.profile`: the previously installed
    hook is restored on exit.
    """
    tracer = TapeTracer()
    previous = set_tape_hook(tracer)
    try:
        yield tracer
    finally:
        set_tape_hook(previous)


@dataclass(frozen=True)
class Finding:
    """One sanitizer diagnosis."""

    kind: str          # dead-parameter | untouched-op | dtype-promotion |
                       # non-finite | fanout-risk
    subject: str       # parameter name or op label
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.subject}: {self.message}"


@dataclass
class TapeReport:
    """Everything :func:`sanitize_tape` learned about one loss graph."""

    findings: list[Finding] = field(default_factory=list)
    reachable_nodes: int = 0
    traced_nodes: int = 0
    checked_parameters: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def by_kind(self, kind: str) -> list[Finding]:
        return [f for f in self.findings if f.kind == kind]

    def render(self) -> str:
        head = (f"tape sanitizer: {self.reachable_nodes} reachable nodes, "
                f"{self.checked_parameters} parameters checked")
        if self.ok:
            return head + " — clean"
        lines = [head] + [f"  {finding}" for finding in self.findings]
        return "\n".join(lines)

    def emit(self, registry: MetricsRegistry | None = None) -> None:
        """Report through the runtime metrics machinery."""
        registry = registry if registry is not None else get_registry()
        registry.counter("sanitize.runs").inc()
        registry.counter("sanitize.findings").inc(len(self.findings))
        for finding in self.findings:
            registry.emit({
                "kind": "sanitize",
                "finding": finding.kind,
                "subject": finding.subject,
                "message": finding.message,
            })


def reachable_from(loss: Tensor) -> dict[int, Tensor]:
    """All tape nodes reachable from ``loss`` by parent edges (incl. loss)."""
    reachable: dict[int, Tensor] = {}
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in reachable:
            continue
        reachable[id(node)] = node
        stack.extend(node._parents)
    return reachable


def _label(tensor: Tensor) -> str:
    return f"{tensor._op}{tensor.shape}"


def sanitize_tape(
    loss: Tensor,
    parameters: Module | Iterable[tuple[str, Tensor]] | None = None,
    traced: Iterable[Tensor] | None = None,
    fanout_threshold: int = 3,
) -> TapeReport:
    """Analyze the graph below ``loss`` and report wiring/dtype problems.

    Parameters
    ----------
    loss:
        The scalar (or any) tensor whose ancestor graph is analyzed.
    parameters:
        What to check for reachability: a :class:`Module` (its
        ``named_parameters()`` are used) or explicit ``(name, tensor)``
        pairs.  Omitted → no dead-parameter findings.
    traced:
        Tensors captured by :func:`trace_tape` around the forward pass.
        Omitted → no untouched-op findings, and fan-out is computed from
        the reachable graph only.
    fanout_threshold:
        Minimum number of consumers before a risky op is flagged.
    """
    report = TapeReport()
    reachable = reachable_from(loss)
    report.reachable_nodes = len(reachable)

    named: list[tuple[str, Tensor]] = []
    if isinstance(parameters, Module):
        named = list(parameters.named_parameters())
    elif parameters is not None:
        named = [(name, tensor) for name, tensor in parameters]
    report.checked_parameters = len(named)
    for name, parameter in named:
        if parameter.requires_grad and id(parameter) not in reachable:
            report.findings.append(Finding(
                "dead-parameter", name,
                f"never reached by the loss; shape {parameter.shape} "
                f"trains to noise"))

    traced_list = list(traced) if traced is not None else []
    report.traced_nodes = len(traced_list)
    for node in traced_list:
        if id(node) not in reachable:
            report.findings.append(Finding(
                "untouched-op", _label(node),
                "computed on the tape but its output never feeds the loss"))

    consumers: dict[int, int] = {}
    population = traced_list if traced_list else list(reachable.values())
    for node in population:
        for parent in node._parents:
            consumers[id(parent)] = consumers.get(id(parent), 0) + 1

    # The creep check is defined against the library's accumulation
    # dtype, not a hard-coded float64, so it and the loss functions
    # agree on one source of truth (``backend.DEFAULT_DTYPE``).
    wide = np.dtype(DEFAULT_DTYPE)
    for node in reachable.values():
        data = node.data
        if data.dtype == wide and any(
                p.data.dtype.kind == "f"
                and p.data.dtype.itemsize < wide.itemsize
                for p in node._parents):
            report.findings.append(Finding(
                "dtype-promotion", _label(node),
                f"narrow float operand silently promoted to {wide.name} "
                "(doubles memory traffic)"))
        if data.dtype.kind == "f" and not np.all(np.isfinite(data)):
            report.findings.append(Finding(
                "non-finite", _label(node),
                "forward value already contains NaN/Inf"))
        if (node._op in RISKY_OPS
                and consumers.get(id(node), 0) >= fanout_threshold):
            report.findings.append(Finding(
                "fanout-risk", _label(node),
                f"output of {node._op!r} consumed by "
                f"{consumers[id(node)]} nodes — NaN amplification risk"))
    return report
