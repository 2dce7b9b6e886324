"""Tape sanitizer: planted wiring bugs must be diagnosed by name."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.analysis import (
    OpCounter,
    TapeTracer,
    reachable_from,
    sanitize_tape,
    trace_tape,
)
from repro.nn import Linear, Tensor, inference_mode
from repro.nn.tensor import set_tape_hook
from repro.runtime import MetricsRegistry

RNG = np.random.default_rng(0)


def _loss_with_dead_branch():
    """A two-layer graph where one Linear never feeds the loss."""
    live = Linear(4, 2, RNG)
    dead = Linear(4, 2, RNG)
    x = Tensor(RNG.normal(size=(3, 4)))
    loss = live(x).sum()
    names = [(f"live.{n}", p) for n, p in live.named_parameters()]
    names += [(f"dead.{n}", p) for n, p in dead.named_parameters()]
    return loss, names


def test_planted_dead_parameter_is_found():
    loss, names = _loss_with_dead_branch()
    report = sanitize_tape(loss, parameters=names)
    dead = report.by_kind("dead-parameter")
    assert {finding.subject for finding in dead} == \
        {"dead.weight", "dead.bias"}
    assert "trains to noise" in dead[0].message
    assert not report.ok
    assert report.checked_parameters == 4


def test_clean_graph_reports_clean():
    live = Linear(4, 2, RNG)
    loss = live(Tensor(RNG.normal(size=(3, 4)))).sum()
    report = sanitize_tape(loss, parameters=live)
    assert report.ok
    assert "clean" in report.render()


def test_planted_float64_leak_is_found():
    x = Tensor(np.asarray(RNG.normal(size=(3, 4)), dtype=np.float32),
               requires_grad=True)
    # Multiplying by a float64 array silently promotes the product.
    leaked = x * np.ones((3, 4), dtype=np.float64)
    loss = leaked.sum()
    report = sanitize_tape(loss)
    promotions = report.by_kind("dtype-promotion")
    assert promotions, report.render()
    assert "float64" in promotions[0].message


def test_untouched_op_needs_a_trace():
    with trace_tape() as tracer:
        x = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
        wasted = (x * 3.0).sum()       # computed, never used
        loss = (x + 1.0).sum()
    report = sanitize_tape(loss, traced=tracer.nodes)
    untouched = report.by_kind("untouched-op")
    assert untouched
    assert "never feeds the loss" in untouched[0].message
    # Without the trace the same graph looks clean.
    assert sanitize_tape(loss).by_kind("untouched-op") == []
    del wasted


def test_fanout_risk_on_reused_exp():
    x = Tensor(RNG.normal(size=(4,)), requires_grad=True)
    e = x.exp()
    loss = (e + e * 2.0 + e * 3.0).sum()
    report = sanitize_tape(loss)
    fanout = report.by_kind("fanout-risk")
    assert fanout and fanout[0].subject.startswith("exp")
    assert "NaN amplification" in fanout[0].message


def test_non_finite_forward_value():
    x = Tensor(np.array([1.0, np.inf]), requires_grad=True)
    report = sanitize_tape((x * 2.0).sum())
    assert report.by_kind("non-finite")


def test_reachable_from_walks_parents():
    x = Tensor(RNG.normal(size=(2,)), requires_grad=True)
    loss = ((x * 2.0) + 1.0).sum()
    reachable = reachable_from(loss)
    assert id(x) in reachable and id(loss) in reachable
    # x, the two wrapped constants, mul, add, sum
    assert len(reachable) == 6


def test_trace_tape_restores_previous_hook():
    outer = OpCounter()
    previous = set_tape_hook(outer)
    try:
        with trace_tape() as tracer:
            (Tensor(np.ones(2), requires_grad=True) * 2.0).sum()
        assert tracer.forward_ops == 2
        assert len(tracer.nodes) == 2
        # The outer hook is live again and keeps counting.
        (Tensor(np.ones(2), requires_grad=True) * 2.0).sum()
        assert outer.forward_ops == 2
    finally:
        set_tape_hook(previous)


def test_op_counter_sees_inference_mode_forwards():
    """repro check's zero-forward guard also sees tape-free forwards."""
    layer = Linear(4, 2, RNG)
    x = Tensor(RNG.normal(size=(3, 4)))
    counts = []
    for mode in (nullcontext, inference_mode):
        counter = OpCounter()
        previous = set_tape_hook(counter)
        try:
            with mode():
                layer(x)
        finally:
            set_tape_hook(previous)
        counts.append(counter.forward_ops)
    assert counts[1] > 0
    assert counts[1] == counts[0]


def test_emit_routes_through_metrics_registry():
    registry = MetricsRegistry()
    loss, names = _loss_with_dead_branch()
    report = sanitize_tape(loss, parameters=names)
    report.emit(registry)
    assert registry.counter("sanitize.runs").value == 1
    assert registry.counter("sanitize.findings").value == len(report.findings)


def test_tracer_is_an_op_counter():
    tracer = TapeTracer()
    assert isinstance(tracer, OpCounter)
    assert tracer.forward_ops == 0 and tracer.nodes == []
