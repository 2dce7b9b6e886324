"""Tape recording and compiled replay of training/inference steps.

Python dispatch — one ``Tensor`` object, one parent tuple and one backward
closure per op — dominates step time for the small encoders this library
trains.  This module removes it from the steady state:

1. :func:`record_program` runs one ordinary eager step with a passive
   recorder installed (:func:`repro.nn.tensor.set_recorder`) and captures
   every backend op into a flat :class:`Program` — an op list plus a slot
   table classifying every array the step touched as a parameter, a bound
   input (varies per batch), a baked constant, or an op result.
2. Fusion passes collapse the three hottest elementwise chains —
   ``add→gelu`` (bias+gelu), ``masked_fill→softmax`` and the 16-op
   layer-norm cluster — into single fused backend ops.  Fusion only ever
   touches single-consumer chains, which a tape DFS visits contiguously,
   so the fused backward reproduces the eager accumulation order exactly.
3. :class:`TapeExecutor` replays the program on fresh bindings without
   constructing any Tensor or node objects, writing into persistent
   ``out=`` buffers, and runs a precomputed backward sweep that replicates
   the eager DFS postorder — making replayed steps bit-identical to eager
   steps (asserted against the golden fixtures in ``tests/compile``).

Buffer reuse
------------
Training executors keep one persistent forward buffer per op slot (reuse
across steps; within a step every intermediate stays live because the
backward pass consumes it).  Forward-only executors additionally share
buffers *across* slots via :func:`plan_buffers` — a lifetime-interval
analysis where a slot is live from the instruction defining it to its last
consumer (or forever, for program outputs), view chains extend the
lifetime of their base, and two slots may share a buffer only when their
intervals do not overlap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import backend as _backend
from .backend import DEFAULT_DTYPE, Backend, OpDef, get_backend
from .module import Parameter
from .tensor import Tensor, set_recorder

__all__ = [
    "BoundRef",
    "Slot",
    "Instr",
    "Program",
    "Recorder",
    "TapeExecutor",
    "ProgramCache",
    "record_program",
    "binding_signature",
    "plan_buffers",
]

# Ops whose output aliases their input's storage: they recompute views on
# replay instead of writing buffers, and they extend their base slot's
# lifetime in the buffer plan.
_VIEW_OPS = frozenset({"reshape", "transpose", "getitem"})


@dataclass(frozen=True)
class BoundRef:
    """A per-replay input: ``bindings[name]``, reshaped if recorded so.

    ``shape`` is ``None`` when the recorded array *was* the binding;
    otherwise the recorded array was a reshape-view of it (verified
    element-for-element at record time) and replay re-derives it.
    """

    name: str
    shape: tuple[int, ...] | None = None

    def resolve(self, bindings: dict[str, np.ndarray]) -> np.ndarray:
        arr = bindings[self.name]
        return arr if self.shape is None else arr.reshape(self.shape)


@dataclass
class Slot:
    """One array-valued location in the program.

    ``kind`` is ``"param"`` (live :class:`Parameter`; ``.data`` fetched
    every replay so optimizer updates are seen), ``"bound"`` (resolved
    from the replay bindings), ``"const"`` (baked at record time) or
    ``"op"`` (produced by an instruction).
    """

    index: int
    kind: str
    shape: tuple[int, ...]
    dtype: np.dtype
    param: Parameter | None = None
    ref: BoundRef | None = None
    value: np.ndarray | None = None
    requires: bool = False


@dataclass
class Instr:
    """One recorded op: input slots, static params, and per-replay params.

    ``bound`` lists ``(param_key, BoundRef)`` pairs overriding ``params``
    at every replay — e.g. an attention mask or the MLM target vector.
    """

    name: str
    inputs: tuple[int, ...]
    params: dict[str, Any]
    out: int
    bound: tuple[tuple[str, BoundRef], ...] = ()


@dataclass
class Program:
    """A recorded, fused, replayable step.

    ``outputs`` names the slots a caller reads back after each replay;
    ``loss`` names the output the backward sweep seeds (``None`` for
    forward-only programs).  ``backward_order`` lists instruction indices
    in the exact order the eager DFS sweep would process them.
    """

    slots: list[Slot]
    instrs: list[Instr]
    outputs: dict[str, int]
    loss: str | None = None
    backward_order: list[int] = field(default_factory=list)
    # (where, shape) pairs for every non-scalar array baked as a constant
    # — anything batch-dependent showing up here indicates a missing
    # binding and therefore stale replays.
    baked_arrays: list[tuple[str, tuple[int, ...]]] = field(
        default_factory=list)

    def param_slots(self) -> list[Slot]:
        return [s for s in self.slots if s.kind == "param"]


class Recorder:
    """Passive observer turning one eager step into a :class:`Program`.

    Installed via :func:`repro.nn.tensor.set_recorder`; receives every
    backend op as it executes.  Leaf tensors and array-valued op params
    are classified against ``bindings`` by identity (walking numpy view
    ``.base`` chains, verifying reshape-views element-for-element), so
    anything batch-dependent must be present in ``bindings`` — arrays
    that are not are baked as constants and listed in ``baked_arrays``
    for inspection.
    """

    def __init__(self, bindings: dict[str, np.ndarray]):
        self.bindings = bindings
        self._by_id = {id(arr): name for name, arr in bindings.items()}
        self.slots: list[Slot] = []
        self.instrs: list[Instr] = []
        self._tensor_slot: dict[int, int] = {}
        self._keepalive: list[Tensor] = []
        self.baked_arrays: list[tuple[str, tuple[int, ...]]] = []

    # -- slot construction ---------------------------------------------
    def _new_slot(self, kind: str, shape, dtype, **attrs) -> int:
        slot = Slot(index=len(self.slots), kind=kind, shape=tuple(shape),
                    dtype=np.dtype(dtype), **attrs)
        self.slots.append(slot)
        return slot.index

    def _match(self, arr: np.ndarray) -> BoundRef | None:
        candidate = arr
        for _ in range(8):
            if candidate is None:
                return None
            name = self._by_id.get(id(candidate))
            if name is not None:
                target = self.bindings[name]
                if candidate is arr:
                    return BoundRef(name)
                if target.size == arr.size and np.array_equal(
                        target.reshape(arr.shape), arr):
                    return BoundRef(name, arr.shape)
                return None
            candidate = getattr(candidate, "base", None)
        return None

    def _slot_for_input(self, t: Tensor) -> int:
        sid = self._tensor_slot.get(id(t))
        if sid is not None:
            return sid
        if isinstance(t, Parameter):
            sid = self._new_slot("param", t.data.shape, t.data.dtype, param=t)
        else:
            ref = self._match(t.data)
            if ref is not None:
                sid = self._new_slot("bound", t.data.shape, t.data.dtype,
                                     ref=ref)
            else:
                if t.data.ndim > 0:
                    self.baked_arrays.append(("leaf", t.data.shape))
                sid = self._new_slot("const", t.data.shape, t.data.dtype,
                                     value=t.data)
        self._tensor_slot[id(t)] = sid
        self._keepalive.append(t)
        return sid

    def _process_params(self, params: dict) -> tuple[dict, tuple]:
        bound = []
        for key, value in params.items():
            if isinstance(value, np.ndarray) and value.dtype != object:
                ref = self._match(value)
                if ref is not None:
                    bound.append((key, ref))
                elif value.ndim > 0:
                    self.baked_arrays.append((key, value.shape))
        return dict(params), tuple(bound)

    # -- the hook tensor.py calls --------------------------------------
    def record(self, name: str, inputs: tuple[Tensor, ...], params: dict,
               out: Tensor) -> None:
        in_slots = tuple(self._slot_for_input(t) for t in inputs)
        rparams, bound = self._process_params(params)
        out_slot = self._new_slot("op", out.data.shape, out.data.dtype)
        self.instrs.append(Instr(name=name, inputs=in_slots, params=rparams,
                                 out=out_slot, bound=bound))
        self._tensor_slot[id(out)] = out_slot
        self._keepalive.append(out)

    def slot_of(self, t: Tensor) -> int:
        return self._tensor_slot[id(t)]

    def finish(self, outputs: dict[str, Tensor],
               loss: str | None = None) -> Program:
        out_slots = {name: self.slot_of(t) for name, t in outputs.items()}
        program = Program(slots=self.slots, instrs=self.instrs,
                          outputs=out_slots, loss=loss,
                          baked_arrays=list(self.baked_arrays))
        _fuse(program)
        _annotate_requires(program)
        if loss is not None:
            program.backward_order = _backward_order(
                program, program.outputs[loss])
        self._keepalive.clear()
        self._tensor_slot.clear()
        return program


def record_program(step: Callable[[], dict[str, Tensor]],
                   bindings: dict[str, np.ndarray],
                   loss: str | None = None,
                   ) -> tuple[Program, dict[str, Tensor]]:
    """Run ``step`` once eagerly while recording it into a Program.

    ``step`` must return a name→Tensor mapping of the values a replay
    should surface; ``loss`` names the (scalar) entry the compiled
    backward pass will seed.  The eager step itself is untouched — its
    tensors, gradients and RNG consumption are exactly those of an
    unrecorded step, so the recording step *is* a regular step.
    """
    recorder = Recorder(bindings)
    previous = set_recorder(recorder)
    try:
        outputs = step()
    finally:
        set_recorder(previous)
    program = recorder.finish(outputs, loss=loss)
    return program, outputs


def binding_signature(bindings: dict[str, np.ndarray],
                      flags: tuple = ()) -> tuple:
    """Cache key for a recorded program: binding shapes/dtypes + flags.

    Two steps with the same signature replay the same program; a new
    padded sequence length or a batch lacking MER targets records afresh.
    """
    return (tuple(flags),
            tuple((name, arr.shape, str(arr.dtype))
                  for name, arr in sorted(bindings.items())))


# ----------------------------------------------------------------------
# Fusion passes
# ----------------------------------------------------------------------

# Creation-order op shape of LayerNorm.forward: mean, var (which re-derives
# the mean), normalization, then gain/bias.  See _match_layernorm for the
# wiring that must hold around it.
_LN_PATTERN = ("sum", "mul", "sum", "mul", "neg", "add", "mul", "sum",
               "mul", "neg", "add", "add", "pow", "mul", "mul", "add")


def _consumer_counts(program: Program) -> dict[int, int]:
    counts: dict[int, int] = {}
    for instr in program.instrs:
        for sid in instr.inputs:
            counts[sid] = counts.get(sid, 0) + 1
    for sid in program.outputs.values():
        counts[sid] = counts.get(sid, 0) + 1
    return counts


def _scalar_const(program: Program, sid: int) -> float | None:
    slot = program.slots[sid]
    if slot.kind != "const" or slot.value is None or slot.value.ndim != 0:
        return None
    return float(slot.value)


def _match_layernorm(program: Program, window: list[Instr],
                     counts: dict[int, int]) -> Instr | None:
    (s1, m1, s2, m2, n1, a2, m3, s3, m4, n2, a3, a4, p1, m5, m6, a5) = window
    x = s1.inputs[0]
    dim = program.slots[x].shape[-1] if program.slots[x].shape else 0
    if dim == 0:
        return None
    inv_d = _scalar_const(program, m1.inputs[1])
    eps = _scalar_const(program, a4.inputs[1])
    if inv_d is None or eps is None or inv_d != 1.0 / dim:
        return None
    for red in (s1, s2, s3):
        if red.params.get("axis") != -1 or not red.params.get("keepdims"):
            return None
    if p1.params.get("exponent") != -0.5:
        return None
    wiring = (
        m1.inputs[0] == s1.out
        and s2.inputs == (x,)
        and m2.inputs[0] == s2.out
        and _scalar_const(program, m2.inputs[1]) == inv_d
        and n1.inputs == (m2.out,)
        and a2.inputs == (x, n1.out)
        and m3.inputs == (a2.out, a2.out)
        and s3.inputs == (m3.out,)
        and m4.inputs[0] == s3.out
        and _scalar_const(program, m4.inputs[1]) == inv_d
        and n2.inputs == (m1.out,)
        and a3.inputs == (x, n2.out)
        and a4.inputs[0] == m4.out
        and p1.inputs == (a4.out,)
        and m5.inputs == (a3.out, p1.out)
        and m6.inputs[0] == m5.out
        and a5.inputs[0] == m6.out
    )
    if not wiring:
        return None
    # Every interior result must be consumed only inside the cluster
    # (``cent`` legitimately has two uses — both by ``sq = cent*cent``) —
    # otherwise the eager sweep interleaves external gradient
    # contributions and the cluster cannot collapse.
    internal: dict[int, int] = {}
    for instr in window:
        for sid in instr.inputs:
            internal[sid] = internal.get(sid, 0) + 1
    for interior in window[:-1]:
        if counts.get(interior.out, 0) != internal.get(interior.out, 0):
            return None
    gain, bias = m6.inputs[1], a5.inputs[1]
    return Instr(name="layernorm", inputs=(x, gain, bias),
                 params={"inv_d": inv_d, "eps": eps}, out=a5.out)


def _fuse_layernorm(program: Program) -> None:
    counts = _consumer_counts(program)
    instrs = program.instrs
    result: list[Instr] = []
    i = 0
    while i < len(instrs):
        window = instrs[i:i + len(_LN_PATTERN)]
        if tuple(w.name for w in window) == _LN_PATTERN:
            fused = _match_layernorm(program, window, counts)
            if fused is not None:
                result.append(fused)
                i += len(_LN_PATTERN)
                continue
        result.append(instrs[i])
        i += 1
    program.instrs = result


def _fuse_pairs(program: Program, consumer: str, producer: str,
                build: Callable[[Instr, Instr], Instr]) -> None:
    """Collapse single-consumer ``producer→consumer`` chains.

    A unary chain whose head is consumed only by its tail occupies
    adjacent positions in the eager DFS postorder, so fusing it cannot
    reorder any gradient accumulation.
    """
    counts = _consumer_counts(program)
    producers = {instr.out: instr for instr in program.instrs}
    position = {id(instr): k for k, instr in enumerate(program.instrs)}
    out: list[Instr | None] = list(program.instrs)
    for k, instr in enumerate(program.instrs):
        if instr.name != consumer:
            continue
        head = producers.get(instr.inputs[0])
        if head is None or head.name != producer:
            continue
        if counts.get(head.out, 0) != 1:
            continue
        out[position[id(head)]] = None
        out[k] = build(head, instr)
    program.instrs = [instr for instr in out if instr is not None]


def _build_bias_gelu(head: Instr, tail: Instr) -> Instr:
    return Instr(name="bias_gelu", inputs=head.inputs, params={},
                 out=tail.out)


def _build_masked_softmax(head: Instr, tail: Instr) -> Instr:
    params = {"mask": head.params["mask"], "value": head.params["value"],
              "axis": tail.params["axis"]}
    return Instr(name="masked_softmax", inputs=head.inputs, params=params,
                 out=tail.out, bound=head.bound)


def _fuse(program: Program) -> None:
    _fuse_layernorm(program)
    _fuse_pairs(program, "gelu", "add", _build_bias_gelu)
    _fuse_pairs(program, "softmax", "masked_fill", _build_masked_softmax)


def _annotate_requires(program: Program) -> None:
    for slot in program.slots:
        slot.requires = slot.kind == "param"
    for instr in program.instrs:
        if any(program.slots[s].requires for s in instr.inputs):
            program.slots[instr.out].requires = True


def _backward_order(program: Program, root: int) -> list[int]:
    """Instruction order of the eager DFS backward sweep, statically.

    This is ``Tensor.backward``'s traversal verbatim — iterative DFS with
    parents pushed in input order, postorder reversed — run over slots
    instead of tensors.  Replays accumulate gradients in exactly the
    sequence the recording (eager) step did, which is what makes the
    float results bitwise equal.
    """
    producer = {instr.out: k for k, instr in enumerate(program.instrs)}
    requires = [slot.requires for slot in program.slots]
    order: list[int] = []
    seen: set[int] = set()
    stack: list[tuple[int, bool]] = [(root, False)]
    while stack:
        sid, processed = stack.pop()
        if processed:
            order.append(sid)
            continue
        if sid in seen:
            continue
        seen.add(sid)
        stack.append((sid, True))
        k = producer.get(sid)
        if k is None:
            continue
        for parent in program.instrs[k].inputs:
            if requires[parent] and parent not in seen:
                stack.append((parent, False))
    return [producer[sid] for sid in reversed(order) if sid in producer]


# ----------------------------------------------------------------------
# Buffer planning (forward-only replay)
# ----------------------------------------------------------------------

def plan_buffers(intervals: list[tuple[int, int, Any]]) -> list[int]:
    """Assign a buffer id to each live interval; reuse where lifetimes allow.

    ``intervals`` holds ``(start, end, key)`` triples in program order
    (``start`` non-decreasing); only intervals with equal ``key`` (shape +
    dtype) may share a buffer, and two intervals sharing a buffer must not
    overlap — an interval is live on ``[start, end]`` inclusive, so a
    buffer freed at ``end`` is reusable from ``end + 1`` on.  The
    hypothesis suite (``tests/compile/test_buffer_plan.py``) checks the
    no-aliasing invariant on random interval sets.
    """
    assignment: list[int] = []
    free: dict[Any, list[tuple[int, int]]] = {}
    next_id = 0
    for start, end, key in intervals:
        heap = free.setdefault(key, [])
        if heap and heap[0][0] < start:
            _, buffer_id = heapq.heappop(heap)
        else:
            buffer_id = next_id
            next_id += 1
        assignment.append(buffer_id)
        heapq.heappush(heap, (end, buffer_id))
    return assignment


def _forward_lifetimes(program: Program) -> dict[int, tuple[int, int]]:
    """Live interval per op slot, with view chains charged to their base.

    A view op's output shares storage with its input, so the base slot
    stays live as long as any view over it; program outputs are live past
    the end of the program (modelled as ``end = len(instrs)``).
    """
    infinity = len(program.instrs)
    base: dict[int, int] = {}

    def find(sid: int) -> int:
        while sid in base:
            sid = base[sid]
        return sid

    defined: dict[int, int] = {}
    last_use: dict[int, int] = {}
    for k, instr in enumerate(program.instrs):
        for sid in instr.inputs:
            if program.slots[sid].kind == "op":
                last_use[find(sid)] = k
        if instr.name in _VIEW_OPS and \
                program.slots[instr.inputs[0]].kind == "op":
            base[instr.out] = instr.inputs[0]
        defined.setdefault(find(instr.out), k)
    for sid in program.outputs.values():
        if program.slots[sid].kind == "op":
            last_use[find(sid)] = infinity
    return {sid: (start, last_use.get(sid, start))
            for sid, start in defined.items()}


class TapeExecutor:
    """Replays a recorded :class:`Program` without tape bookkeeping.

    ``run(bindings)`` re-executes the forward instruction list against
    fresh per-batch bindings; ``backward()`` runs the precomputed DFS
    sweep, assigning each parameter's gradient buffer to ``param.grad``
    (compatible with ``clip_gradients``'s in-place scaling and the
    optimizers' ``zero_grad``).

    Training executors (``program.loss`` set) keep one persistent forward
    buffer per fusible op slot — every intermediate must survive to the
    backward pass, so only step-over-step reuse is safe.  Forward-only
    executors also share buffers across slots according to
    :func:`plan_buffers`.
    """

    def __init__(self, program: Program, backend: Backend | None = None):
        self.program = program
        self.backend = backend or get_backend()
        self._ops: list[OpDef] = [self.backend.op(instr.name)
                                  for instr in program.instrs]
        self._values: list[np.ndarray | None] = [None] * len(program.slots)
        self._ctxs: list[tuple | None] = [None] * len(program.instrs)
        self._needs = [tuple(program.slots[s].requires for s in instr.inputs)
                       for instr in program.instrs]
        self._fwd_buffers = self._plan_forward_buffers()
        self._grad_pool: dict[tuple, list[np.ndarray]] = {}
        self._param_buffers: dict[int, np.ndarray] = {}
        self._last_outputs: dict[str, np.ndarray] = {}

    # -- forward -------------------------------------------------------
    def _plan_forward_buffers(self) -> dict[int, np.ndarray]:
        buffers: dict[int, np.ndarray] = {}
        candidates = [
            (k, instr) for k, instr in enumerate(self.program.instrs)
            if self._ops[k].supports_out
        ]
        if self.program.loss is not None:
            for _, instr in candidates:
                slot = self.program.slots[instr.out]
                buffers[instr.out] = np.empty(slot.shape, dtype=slot.dtype)
            return buffers
        lifetimes = _forward_lifetimes(self.program)
        intervals = []
        slots = []
        for k, instr in candidates:
            if instr.out not in lifetimes:
                continue
            start, end = lifetimes[instr.out]
            slot = self.program.slots[instr.out]
            intervals.append((start, end, (slot.shape, str(slot.dtype))))
            slots.append(instr.out)
        assignment = plan_buffers(intervals)
        shared: dict[int, np.ndarray] = {}
        for sid, buffer_id in zip(slots, assignment):
            slot = self.program.slots[sid]
            if buffer_id not in shared:
                shared[buffer_id] = np.empty(slot.shape, dtype=slot.dtype)
            buffers[sid] = shared[buffer_id]
        return buffers

    def run(self, bindings: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Replay the forward program; returns the named output arrays."""
        values = self._values
        backend = self.backend
        for slot in self.program.slots:
            if slot.kind == "param":
                values[slot.index] = slot.param.data
            elif slot.kind == "bound":
                values[slot.index] = slot.ref.resolve(bindings)
            elif slot.kind == "const":
                values[slot.index] = slot.value
        buffers = self._fwd_buffers
        for k, instr in enumerate(self.program.instrs):
            datas = tuple(values[s] for s in instr.inputs)
            params = instr.params
            if instr.bound:
                params = dict(params)
                for key, ref in instr.bound:
                    params[key] = ref.resolve(bindings)
            out_data, ctx = self._ops[k].forward(
                backend, datas, params, out=buffers.get(instr.out))
            values[instr.out] = out_data
            self._ctxs[k] = ctx
        self._last_outputs = {name: values[sid]
                              for name, sid in self.program.outputs.items()}
        return self._last_outputs

    # -- backward ------------------------------------------------------
    def _acquire(self, shape: tuple[int, ...]) -> np.ndarray:
        pool = self._grad_pool.get(shape)
        if pool:
            return pool.pop()
        return np.empty(shape, dtype=DEFAULT_DTYPE)

    def backward(self) -> None:
        """Run the recorded DFS sweep; leaves gradients on ``param.grad``.

        Accumulation replicates ``Tensor._accumulate`` — a float64 buffer
        whose first write is ``0.0 + contribution`` and which then receives
        ``+=`` contributions in eager order — so the resulting gradients
        are bitwise those of the eager step.
        """
        program = self.program
        if program.loss is None:
            raise RuntimeError("forward-only program has no backward pass")
        slots = program.slots
        grads: dict[int, np.ndarray] = {}
        root = program.outputs[program.loss]
        seed = self._acquire(slots[root].shape)
        seed.fill(1.0)
        grads[root] = seed

        def accumulate(sid: int, contribution: np.ndarray) -> None:
            buffer = grads.get(sid)
            if buffer is None:
                if slots[sid].kind == "param":
                    buffer = self._param_buffers.get(sid)
                    if buffer is None:
                        buffer = np.empty(slots[sid].shape,
                                          dtype=DEFAULT_DTYPE)
                        self._param_buffers[sid] = buffer
                else:
                    buffer = self._acquire(slots[sid].shape)
                grads[sid] = np.add(contribution, 0.0, out=buffer)
            else:
                np.add(buffer, contribution, out=buffer)

        backend = self.backend
        for k in program.backward_order:
            instr = program.instrs[k]
            grad = grads.get(instr.out)
            if grad is None:
                continue
            opdef = self._ops[k]
            needs = self._needs[k]
            if opdef.accumulating:
                def fused_accumulate(i: int, contribution: np.ndarray,
                                     _instr=instr, _needs=needs) -> None:
                    if _needs[i]:
                        accumulate(_instr.inputs[i], contribution)
                opdef.vjp(backend, grad, self._ctxs[k], needs,
                          fused_accumulate)
            else:
                results = opdef.vjp(backend, grad, self._ctxs[k], needs)
                for sid, contribution in zip(instr.inputs, results):
                    if contribution is not None and slots[sid].requires:
                        accumulate(sid, contribution)
            del grads[instr.out]
            self._grad_pool.setdefault(slots[instr.out].shape, []).append(grad)
        for slot in program.param_slots():
            slot.param.grad = grads.get(slot.index)


class ProgramCache:
    """Signature-keyed cache of compiled executors.

    One entry per distinct :func:`binding_signature` — e.g. per padded
    sequence length and per objective-flag combination.  ``get`` returns
    ``None`` on a miss; the caller records the step eagerly and ``put``s
    the resulting executor.
    """

    def __init__(self) -> None:
        self._executors: dict[tuple, TapeExecutor] = {}

    def get(self, signature: tuple) -> TapeExecutor | None:
        return self._executors.get(signature)

    def put(self, signature: tuple, executor: TapeExecutor) -> None:
        self._executors[signature] = executor

    def __len__(self) -> int:
        return len(self._executors)
