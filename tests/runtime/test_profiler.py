"""Tests for the autograd-tape profiler."""

import time

import numpy as np
import pytest

from repro.corpus import NLIExample
from repro.nn import (
    Encoder,
    Tensor,
    cross_entropy,
    get_tape_hook,
    inference_mode,
)
from repro.runtime import InMemorySink, MetricsRegistry, profile
from repro.serve import InferenceEngine
from repro.tasks import NliClassifier


def small_workload():
    a = Tensor(np.ones((4, 8)), requires_grad=True)
    b = Tensor(np.ones((8, 4)), requires_grad=True)
    out = (a @ b).relu().sum()
    out.backward()
    return a, b


class TestProfileCollection:
    def test_counts_and_bytes(self):
        with profile(emit=False) as prof:
            small_workload()
        assert prof.stats["matmul"].calls == 1
        assert prof.stats["relu"].calls == 1
        assert prof.stats["sum"].calls == 1
        # (4, 4) float64 output arrays
        assert prof.stats["matmul"].bytes == 4 * 4 * 8
        assert prof.total_calls >= 3

    def test_forward_and_backward_timed(self):
        with profile(emit=False) as prof:
            small_workload()
        matmul = prof.stats["matmul"]
        assert matmul.forward_seconds > 0
        assert matmul.backward_calls == 1
        assert matmul.backward_seconds > 0

    def test_nothing_recorded_outside_region(self):
        with profile(emit=False) as prof:
            pass
        small_workload()
        assert prof.stats == {}

    def test_table_lists_every_op(self):
        with profile(emit=False) as prof:
            small_workload()
        table = prof.table()
        for op in ("matmul", "relu", "sum", "TOTAL"):
            assert op in table

    def test_events_emitted_to_registry(self):
        registry = MetricsRegistry()
        sink = registry.add_sink(InMemorySink())
        with profile(registry=registry):
            small_workload()
        ops = {event["op"] for event in sink.of_kind("profile_op")}
        assert {"matmul", "relu", "sum"} <= ops

    def test_encoder_forward_profiles_attention(self):
        rng = np.random.default_rng(0)
        encoder = Encoder(dim=8, num_heads=2, hidden_dim=16, num_layers=1,
                          rng=rng)
        x = Tensor(rng.normal(size=(2, 6, 8)))
        with profile(emit=False) as prof:
            encoder(x)
        assert prof.stats["attention_softmax"].calls >= 1
        assert prof.stats["linear"].calls >= 3  # qkv projections
        assert prof.stats["matmul"].calls >= 1  # scores

    def test_cross_entropy_forward_timed(self):
        # The fused loss kernel is pretraining's heaviest forward op.
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(16, 32)), requires_grad=True)
        with profile(emit=False) as prof:
            cross_entropy(logits, rng.integers(0, 32, size=16))
        stat = prof.stats["cross_entropy"]
        assert stat.calls == 1
        assert stat.forward_seconds > 0


def assert_rows_consistent(prof):
    """Every timed row counts the calls and bytes it timed."""
    assert prof.stats
    for stat in prof.stats.values():
        if stat.forward_seconds > 0:
            assert stat.calls > 0 and stat.bytes > 0, stat


class TestInferenceMode:
    """The tape is off, but the op hook still sees every op."""

    def test_matmul_counted(self):
        a = Tensor(np.random.default_rng(0).normal(size=(64, 64)))
        with profile(emit=False) as prof:
            with inference_mode():
                a @ a
        stat = prof.stats["matmul"]
        assert (stat.calls, stat.bytes) == (1, 64 * 64 * 8)
        assert stat.forward_seconds > 0
        assert_rows_consistent(prof)

    def test_one_engine_request(self, bert, wiki_tables):
        engine = InferenceEngine(
            {"nli": NliClassifier(bert, np.random.default_rng(0))})
        example = NLIExample(wiki_tables[0], "a statement", 0)
        with profile(emit=False) as prof:
            engine.process([("nli", example)])
        assert prof.stats["linear"].calls >= 3  # qkv projections
        assert prof.stats["matmul"].calls >= 1  # scores
        assert prof.stats["attention_softmax"].calls >= 1
        assert_rows_consistent(prof)


class TestProfileHygiene:
    def test_hook_and_methods_restored(self):
        # The hook is the only thing profile() installs: no Tensor
        # method is replaced, even inside the region.
        original_add = Tensor.__dict__["__add__"]
        with profile(emit=False) as prof:
            assert get_tape_hook() is prof
            assert Tensor.__dict__["__add__"] is original_add
        assert get_tape_hook() is None

    def test_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with profile(emit=False):
                raise RuntimeError("boom")
        assert get_tape_hook() is None

    def test_nested_profile_rejected(self):
        with profile(emit=False):
            with pytest.raises(RuntimeError):
                with profile(emit=False):
                    pass
        assert get_tape_hook() is None


class TestDisabledOverhead:
    def test_disabled_path_not_slower_than_profiled(self):
        """The no-op fast path must stay within 5% of the profiled path.

        By construction the disabled path does strictly less work per op
        than the profiled one, so this bound only fails if the hook check
        leaks cost into the common case.
        """
        rng = np.random.default_rng(0)
        encoder = Encoder(dim=16, num_heads=2, hidden_dim=32, num_layers=1,
                          rng=rng)
        x = Tensor(rng.normal(size=(2, 16, 16)))

        def forward():
            encoder(x)

        forward()  # warm up
        assert get_tape_hook() is None
        disabled_samples, profiled_samples = [], []
        for _ in range(9):  # interleave A/B so clock drift cancels
            start = time.perf_counter()
            forward()
            disabled_samples.append(time.perf_counter() - start)
            with profile(emit=False):
                start = time.perf_counter()
                forward()
                profiled_samples.append(time.perf_counter() - start)
        disabled = float(np.median(disabled_samples))
        profiled = float(np.median(profiled_samples))
        # Strictly-less-work bound, with margin only for scheduler noise.
        assert disabled <= profiled * 1.25
