"""The fused ops equal the op chains they replace.

``layer_norm``, ``linear`` and ``attention_softmax`` each collapse a chain
of tape ops, and ``take_rows``' gradient moved from ``np.add.at`` to
``np.bincount``.  The chains are kept in ``tests/nn/composed_reference.py``;
every forward here is byte-equal to its chain, and so is every backward
except LayerNorm's analytic input gradient, which agrees to rounding.
"""

import numpy as np
import pytest

from repro.nn import Tensor, causal_mask, padding_mask
from repro.nn.backend import OPS

from tests.gradcheck import check_gradient
from tests.nn.composed_reference import (
    reference_attention_softmax,
    reference_layer_norm,
    reference_linear,
    reference_take_rows_vjp,
)

B, H, T = 3, 4, 9


def same_bytes(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def run(op, arrays, upstream, **kwargs):
    """Forward ``op`` on fresh leaves, backward ``upstream``; the arrays."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*leaves, **kwargs)
    out.backward(upstream)
    return out.data, [leaf.grad for leaf in leaves]


def mask_forms(rng):
    """Every mask layout the model zoo hands attention."""
    return {
        "none": None,
        "padding": padding_mask(np.array([T, 5, 1]), T),
        "structural": rng.random((B, 1, T, T)) < 0.4,
        "per_head": rng.random((B, H, T, T)) < 0.4,
        "causal": causal_mask(T),
    }


MASKS = ["none", "padding", "structural", "per_head", "causal"]


class TestAttentionSoftmax:
    @pytest.mark.parametrize("with_bias", [False, True],
                             ids=["no_bias", "tuta_bias"])
    @pytest.mark.parametrize("mask_name", MASKS)
    def test_equals_chain(self, mask_name, with_bias):
        rng = np.random.default_rng(0)
        mask = mask_forms(rng)[mask_name]
        bias = -rng.integers(0, 3, size=(B, 1, T, T)).astype(float) \
            if with_bias else None
        scores = rng.normal(size=(B, H, T, T)) * 3.0
        upstream = rng.normal(size=scores.shape)
        params = dict(scale=0.35, bias=bias, mask=mask)

        fused_out, (fused_grad,) = run(
            Tensor.attention_softmax, [scores], upstream, **params)
        ref_out, (ref_grad,) = run(
            reference_attention_softmax, [scores], upstream, **params)
        assert same_bytes(fused_out, ref_out)
        assert same_bytes(fused_grad, ref_grad)
        if mask is not None:
            assert (np.broadcast_to(mask, fused_grad.shape)
                    <= (fused_grad == 0)).all()

    def test_fully_masked_row_matches_chain(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=(1, 2, 3, 3))
        mask = np.ones((1, 1, 3, 3), dtype=bool)
        mask[..., 0, 0] = False
        fused = Tensor(scores).attention_softmax(0.5, mask=mask)
        reference = reference_attention_softmax(Tensor(scores), 0.5,
                                                mask=mask)
        assert same_bytes(fused.data, reference.data)
        np.testing.assert_allclose(fused.data[0, 0, 1], 1.0 / 3.0)

    @pytest.mark.parametrize("mask_name", ["none", "padding", "per_head"])
    def test_gradient(self, mask_name):
        rng = np.random.default_rng(2)
        mask = mask_forms(rng)[mask_name]
        bias = rng.normal(size=(B, 1, T, T))
        # Probabilities sum to 1 per row, so weight them before summing.
        weight = Tensor(rng.normal(size=(B, H, T, T)))
        check_gradient(
            lambda s: s.attention_softmax(0.5, bias=bias, mask=mask) * weight,
            rng.normal(size=(B, H, T, T)))


class TestLinear:
    @pytest.mark.parametrize("shape", [(B, T, 6), (T, 6)],
                             ids=["batched", "flat"])
    def test_equals_chain(self, shape):
        rng = np.random.default_rng(3)
        arrays = [rng.normal(size=shape), rng.normal(size=(6, 5)),
                  rng.normal(size=5)]
        upstream = rng.normal(size=shape[:-1] + (5,))
        fused_out, fused_grads = run(Tensor.linear, arrays, upstream)
        ref_out, ref_grads = run(reference_linear, arrays, upstream)
        assert same_bytes(fused_out, ref_out)
        for fused, ref in zip(fused_grads, ref_grads):
            assert same_bytes(fused, ref)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        weight = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        bias = Tensor(rng.normal(size=3), requires_grad=True)
        check_gradient(lambda x: x.linear(weight, bias),
                       rng.normal(size=(2, 5, 4)))
        x = Tensor(rng.normal(size=(2, 5, 4)))
        check_gradient(lambda w: x.linear(w, bias), weight.data)
        check_gradient(lambda b: x.linear(weight, b), bias.data)


def assert_input_gradients_agree(gx, ref_gx):
    """LayerNorm's analytic input gradient against the chain's: rtol 1e-12.

    An entry is a sum of O(1) terms, and where they cancel to near zero
    both sides carry an absolute error of a few ulps of those terms, so
    such entries are held to 1e-14 of the gradient's largest entry.
    """
    np.testing.assert_allclose(gx, ref_gx, rtol=1e-12,
                               atol=1e-14 * np.abs(ref_gx).max())


class TestLayerNorm:
    SHAPES = [(8, 110, 48), (B, T, 16), (7, 48), (2, 3, 4, 8)]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_equals_chain(self, shape):
        rng = np.random.default_rng(5)
        dim = shape[-1]
        arrays = [rng.normal(size=shape) * 3.0 + 1.0,
                  rng.normal(size=dim), rng.normal(size=dim)]
        upstream = rng.normal(size=shape)
        fused_out, (gx, ggain, gbias) = run(
            Tensor.layer_norm, arrays, upstream, eps=1e-5)
        ref_out, (ref_gx, ref_gain, ref_bias) = run(
            reference_layer_norm, arrays, upstream, eps=1e-5)
        assert same_bytes(fused_out, ref_out)
        assert same_bytes(ggain, ref_gain)
        assert same_bytes(gbias, ref_bias)
        assert_input_gradients_agree(gx, ref_gx)

    def test_input_gradient_with_a_residual_path(self):
        # ``x`` also feeds the residual, whose gradient the chain's tape
        # interleaves with LayerNorm's four contributions.
        rng = np.random.default_rng(6)
        arrays = [rng.normal(size=(8, 110, 48)), rng.normal(size=48),
                  rng.normal(size=48)]
        upstream = rng.normal(size=(8, 110, 48))

        def block(norm):
            return lambda x, gain, bias: norm(x, gain, bias, 1e-5) * x + x

        _, (gx, _, _) = run(block(Tensor.layer_norm), arrays, upstream)
        _, (ref_gx, _, _) = run(block(reference_layer_norm), arrays,
                                upstream)
        assert_input_gradients_agree(gx, ref_gx)

    def test_gradient(self):
        rng = np.random.default_rng(7)
        gain = Tensor(rng.normal(size=6), requires_grad=True)
        bias = Tensor(rng.normal(size=6), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 3, 6)))
        # LayerNorm's output sums to Σ bias per row, so weight it first.
        weight = Tensor(rng.normal(size=(2, 3, 6)))
        check_gradient(lambda t: t.layer_norm(gain, bias, 1e-5) * weight,
                       x.data)
        check_gradient(lambda g: x.layer_norm(g, bias, 1e-5) * weight,
                       gain.data)
        check_gradient(lambda b: x.layer_norm(gain, b, 1e-5) * weight,
                       bias.data)


class TestEmbeddingGradient:
    # The six embedding tables of a TURL model at the default config:
    # tokens, positions, rows, columns, roles and entities.
    TABLES = [(1000, 48), (256, 48), (25, 48), (13, 48), (4, 48), (241, 48)]

    @pytest.mark.parametrize("table", TABLES, ids=str)
    def test_bincount_equals_add_at(self, table):
        rng = np.random.default_rng(8)
        rows, dim = table
        # Few distinct ids, so every row repeats many times.
        idx = rng.integers(0, min(rows, 7), size=(8, 110))
        grad = rng.normal(size=(8, 110, dim))
        ctx = (table, idx)
        (fused,) = OPS["take_rows"].vjp(grad, ctx, (True,))
        (reference,) = reference_take_rows_vjp(grad, ctx, (True,))
        assert same_bytes(fused, reference)

    def test_negative_indices_wrap(self):
        rng = np.random.default_rng(9)
        weights = rng.normal(size=(6, 4))
        idx = np.array([[0, -1, 5, -6], [-1, -1, 2, 3]])
        upstream = rng.normal(size=(2, 4, 4))
        fused_out, (fused,) = run(lambda w: w.take_rows(idx), [weights],
                                  upstream)
        ctx = (weights.shape, idx)
        (reference,) = reference_take_rows_vjp(upstream, ctx, (True,))
        assert same_bytes(fused_out, weights[idx])
        assert same_bytes(fused, reference)
        np.testing.assert_allclose(fused[5], upstream[0, 1] + upstream[1, 0]
                                   + upstream[1, 1] + upstream[0, 2])

    def test_empty_batch_gives_zero_gradient(self):
        (full,) = OPS["take_rows"].vjp(np.zeros((0, 3)), ((4, 3), np.zeros(
            0, dtype=np.int64)), (True,))
        assert same_bytes(full, np.zeros((4, 3)))
