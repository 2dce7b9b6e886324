"""Gradient checks and behaviour tests for the autograd Tensor."""

import math

import numpy as np
import pytest

from repro.nn import Tensor, inference_mode, is_inference_mode

from tests.gradcheck import check_gradient

RNG = np.random.default_rng(0)


def random(*shape):
    return RNG.normal(size=shape)


# GELU inputs: the range an activation can reach, signed zeros, the
# smallest subnormal and other values whose cube underflows.
_TINY = np.finfo(np.float64).smallest_subnormal
GELU_GRID = np.concatenate([np.linspace(-30.0, 30.0, 20_001),
                            [0.0, -0.0, _TINY, -_TINY, 1e-310, -1e-310,
                             1e-110, -1e-110]])


def gelu_reference(x):
    """BERT's tanh GELU written with ``x**3``."""
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


def same_bytes(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


class TestArithmetic:
    def test_add_gradient(self):
        other = Tensor(random(3, 4))
        check_gradient(lambda x: x + other, random(3, 4))

    def test_add_broadcast_gradient(self):
        other = Tensor(random(4))
        check_gradient(lambda x: x + other, random(3, 4))

    def test_add_broadcast_into_operand(self):
        other = Tensor(random(3, 4))
        check_gradient(lambda x: other + x, random(4))

    def test_sub_gradient(self):
        other = Tensor(random(2, 3))
        check_gradient(lambda x: x - other, random(2, 3))

    def test_rsub_gradient(self):
        check_gradient(lambda x: 2.0 - x, random(2, 3))

    def test_mul_gradient(self):
        other = Tensor(random(3, 4))
        check_gradient(lambda x: x * other, random(3, 4))

    def test_mul_broadcast_gradient(self):
        other = Tensor(random(3, 1))
        check_gradient(lambda x: x * other, random(3, 4))

    def test_div_gradient(self):
        other = Tensor(np.abs(random(3, 4)) + 1.0)
        check_gradient(lambda x: x / other, random(3, 4))

    def test_rdiv_gradient(self):
        check_gradient(lambda x: 1.0 / x, np.abs(random(3, 4)) + 1.0)

    def test_div_gradient_wrt_denominator(self):
        numerator = Tensor(random(3, 4))
        check_gradient(lambda x: numerator / x, np.abs(random(3, 4)) + 1.0)

    def test_pow_gradient(self):
        check_gradient(lambda x: x**3, random(3, 3))

    def test_pow_negative_exponent(self):
        check_gradient(lambda x: x**-0.5, np.abs(random(3, 3)) + 1.0)

    def test_neg_gradient(self):
        check_gradient(lambda x: -x, random(5))

    def test_both_operands_accumulate(self):
        a = Tensor(random(2, 2), requires_grad=True)
        out = (a * a).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, 2 * a.data)


class TestNonlinearities:
    def test_exp_gradient(self):
        check_gradient(lambda x: x.exp(), random(3, 3))

    def test_log_gradient(self):
        check_gradient(lambda x: x.log(), np.abs(random(3, 3)) + 0.5)

    def test_tanh_gradient(self):
        check_gradient(lambda x: x.tanh(), random(3, 3))

    def test_relu_gradient(self):
        # Keep values away from the kink at 0.
        x = random(4, 4)
        x[np.abs(x) < 0.1] = 0.5
        check_gradient(lambda t: t.relu(), x)

    def test_gelu_gradient(self):
        check_gradient(lambda x: x.gelu(), random(3, 3))

    def test_gelu_forwards_match_the_pow_formula(self):
        # The kernel cubes by multiplication, which may round the cube
        # differently from ``pow`` in its last bit.  GELU is x * Phi(x):
        # in the negative tail ``1 + tanh`` cancels, so the error is
        # bounded in ulps of x, not of the tiny output.
        expected = gelu_reference(GELU_GRID)
        tolerance = 4 * np.spacing(np.abs(GELU_GRID))
        eager = Tensor(GELU_GRID).gelu().data
        assert eager.dtype == np.float64
        assert np.all(np.abs(eager - expected) <= tolerance)

    def test_sigmoid_gradient(self):
        check_gradient(lambda x: x.sigmoid(), random(3, 3))

    def test_sqrt_gradient(self):
        check_gradient(lambda x: x.sqrt(), np.abs(random(3, 3)) + 0.5)


class TestLinearAlgebra:
    def test_matmul_gradient_left(self):
        other = Tensor(random(4, 5))
        check_gradient(lambda x: x @ other, random(3, 4))

    def test_matmul_gradient_right(self):
        other = Tensor(random(3, 4))
        check_gradient(lambda x: other @ x, random(4, 5))

    def test_batched_matmul_gradient(self):
        other = Tensor(random(2, 4, 5))
        check_gradient(lambda x: x @ other, random(2, 3, 4))

    def test_batched_matmul_broadcast(self):
        other = Tensor(random(4, 5))
        check_gradient(lambda x: x @ other, random(2, 3, 4))


class TestReductions:
    def test_sum_all(self):
        check_gradient(lambda x: x.sum(), random(3, 4))

    def test_sum_axis(self):
        check_gradient(lambda x: x.sum(axis=0), random(3, 4))

    def test_sum_axis_keepdims(self):
        check_gradient(lambda x: x.sum(axis=1, keepdims=True), random(3, 4))

    def test_sum_multiple_axes(self):
        check_gradient(lambda x: x.sum(axis=(0, 2)), random(2, 3, 4))

    def test_mean_gradient(self):
        check_gradient(lambda x: x.mean(axis=-1), random(3, 4))

    def test_mean_all(self):
        check_gradient(lambda x: x.mean(), random(3, 4))

    def test_max_gradient(self):
        x = np.arange(12, dtype=np.float64).reshape(3, 4)  # no ties
        check_gradient(lambda t: t.max(axis=1), x)

    def test_var_gradient(self):
        check_gradient(lambda x: x.var(axis=-1), random(3, 4))

    def test_var_matches_numpy(self):
        x = random(5, 7)
        np.testing.assert_allclose(Tensor(x).var(axis=-1).data, x.var(axis=-1))


class TestShapes:
    def test_reshape_gradient(self):
        check_gradient(lambda x: x.reshape(2, 6), random(3, 4))

    def test_reshape_infer(self):
        check_gradient(lambda x: x.reshape(-1, 2), random(3, 4))

    def test_transpose_gradient(self):
        check_gradient(lambda x: x.transpose(), random(3, 4))

    def test_transpose_axes_gradient(self):
        check_gradient(lambda x: x.transpose(1, 0, 2), random(2, 3, 4))

    def test_swapaxes_gradient(self):
        check_gradient(lambda x: x.swapaxes(0, 2), random(2, 3, 4))

    def test_getitem_slice_gradient(self):
        check_gradient(lambda x: x[1:, :2], random(3, 4))

    def test_getitem_fancy_gradient(self):
        rows = np.array([0, 2, 2])
        check_gradient(lambda x: x[rows], random(3, 4))

    def test_getitem_repeated_index_accumulates(self):
        x = Tensor(random(3, 2), requires_grad=True)
        picked = x[np.array([1, 1, 1])]
        picked.sum().backward()
        np.testing.assert_allclose(x.grad[1], [3.0, 3.0])
        np.testing.assert_allclose(x.grad[0], [0.0, 0.0])

    def test_take_rows_gradient(self):
        idx = np.array([[0, 1], [2, 0]])
        check_gradient(lambda x: x.take_rows(idx), random(3, 4))

    def test_take_rows_requires_2d(self):
        with pytest.raises(ValueError):
            Tensor(random(3)).take_rows(np.array([0]))

    def test_concatenate_gradient(self):
        other = Tensor(random(2, 4))
        check_gradient(lambda x: Tensor.concatenate([x, other], axis=0), random(3, 4))

    def test_concatenate_axis1(self):
        other = Tensor(random(3, 2))
        check_gradient(lambda x: Tensor.concatenate([other, x], axis=1), random(3, 4))

    def test_stack_gradient(self):
        other = Tensor(random(3, 4))
        check_gradient(lambda x: Tensor.stack([x, other], axis=0), random(3, 4))


class TestComposite:
    def test_softmax_gradient(self):
        check_gradient(lambda x: x.softmax(axis=-1), random(3, 5))

    def test_softmax_rows_sum_to_one(self):
        out = Tensor(random(4, 6)).softmax(axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4))

    def test_softmax_stability_large_values(self):
        out = Tensor(np.array([[1000.0, 1000.0]])).softmax(axis=-1)
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_log_softmax_gradient(self):
        check_gradient(lambda x: x.log_softmax(axis=-1), random(3, 5))

    def test_log_softmax_matches_log_of_softmax(self):
        x = random(3, 5)
        a = Tensor(x).log_softmax(axis=-1).data
        b = np.log(Tensor(x).softmax(axis=-1).data)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_masked_fill_gradient(self):
        mask = np.zeros((3, 4), dtype=bool)
        mask[0, 1] = True
        mask[2, 3] = True
        check_gradient(lambda x: x.masked_fill(mask, -1e9).softmax(axis=-1), random(3, 4))

    def test_masked_fill_blocks_gradient(self):
        mask = np.array([[True, False]])
        x = Tensor(random(1, 2), requires_grad=True)
        x.masked_fill(mask, 0.0).sum().backward()
        assert x.grad[0, 0] == 0.0
        assert x.grad[0, 1] == 1.0


class TestBackwardMechanics:
    def test_backward_requires_scalar_without_seed(self):
        x = Tensor(random(2, 2), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_backward_seed_shape_checked(self):
        x = Tensor(random(2, 2), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward(np.ones(3))

    def test_diamond_graph_accumulates_once(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3
        z = y + y  # y used twice
        z.backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_deep_chain(self):
        x = Tensor(np.array([0.5]), requires_grad=True)
        y = x
        for _ in range(50):
            y = y * 1.01
        y.backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [1.01**50], rtol=1e-10)

    def test_inference_mode_disables_tape(self):
        x = Tensor(random(2, 2), requires_grad=True)
        with inference_mode():
            assert is_inference_mode()
            y = x * 2
        assert not y.requires_grad
        assert not is_inference_mode()

    def test_detach_cuts_graph(self):
        x = Tensor(random(2, 2), requires_grad=True)
        y = (x * 2).detach()
        assert not y.requires_grad

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 2).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_gradients_accumulate_across_backwards(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 2).sum().backward()
        (x * 3).sum().backward()
        np.testing.assert_allclose(x.grad, [5.0, 5.0])


class TestFirstGradientWrite:
    """A gradient buffer's first write is bytewise ``zeros + g``."""

    CASES = {
        # -0.0 lands as +0.0: a write that is not adopted canonicalizes.
        "negative_zero": lambda rng: (rng.normal(size=3),
                                      np.array([-0.0, 1.5, -0.0])),
        "broadcast_row": lambda rng: (rng.normal(size=(4, 3)),
                                      rng.normal(size=(1, 3))),
        "float32": lambda rng: (rng.normal(size=(2, 3)),
                                rng.normal(size=(2, 3)).astype(np.float32)),
        "transposed_view": lambda rng: (rng.normal(size=(3, 4)).T,
                                        rng.normal(size=(4, 3))),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_zeros_plus_contribution(self, case):
        data, contribution = self.CASES[case](np.random.default_rng(0))
        expected = np.zeros_like(data, dtype=np.float64)
        expected += contribution

        tensor = Tensor(data, requires_grad=True)
        tensor._accumulate(contribution)
        assert same_bytes(tensor.grad, expected)
        assert tensor.grad.strides == expected.strides


def _graph(name, rng):
    """``(leaves, scalar loss)`` of one graph that hands gradients around."""
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    weight = Tensor(rng.normal(size=(2, 3, 4)))
    if name == "add_self":
        return [x], ((x + x) * weight).sum()
    if name == "mul_self":
        return [x], ((x * x) * weight).sum()
    if name == "broadcast_add":
        bias = Tensor(rng.normal(size=4), requires_grad=True)
        return [x, bias], ((x + bias) * weight).sum()
    if name == "reshape_transpose":
        round_trip = x.reshape(6, 4).transpose(1, 0).transpose(1, 0)
        return [x], (round_trip.reshape(2, 3, 4) * weight + x).sum()
    if name == "concatenate_twice":
        both = Tensor.concatenate([x, x], axis=1)
        return [x], (both * Tensor(rng.normal(size=(2, 6, 4)))).sum()
    if name == "stack_twice":
        both = Tensor.stack([x, x], axis=0)
        return [x], (both * Tensor(rng.normal(size=(2, 2, 3, 4)))).sum()
    if name == "zero_dim":
        s = Tensor(np.array(1.5), requires_grad=True)
        return [s], (s * s) * 3.0 + s
    raise KeyError(name)


def _tape(loss):
    """Every tensor of the graph behind ``loss``, each once."""
    seen, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


class TestAdoptedGradientBuffers:
    """A first write may adopt the VJP's own array, never a shared one."""

    GRAPHS = ["add_self", "mul_self", "broadcast_add", "reshape_transpose",
              "concatenate_twice", "stack_twice", "zero_dim"]

    @pytest.mark.parametrize("name", GRAPHS)
    def test_buffers_never_alias(self, name):
        _, loss = _graph(name, np.random.default_rng(0))
        loss.backward()
        grads = [t for t in _tape(loss) if t.grad is not None]
        for tensor in grads:
            assert type(tensor.grad) is np.ndarray
            assert tensor.grad.shape == tensor.shape
        for i, a in enumerate(grads):
            for b in grads[i + 1:]:
                assert not np.shares_memory(a.grad, b.grad), (a, b)

    @pytest.mark.parametrize("name", GRAPHS)
    def test_leaf_gradients_equal_always_copying(self, name, monkeypatch):
        leaves, loss = _graph(name, np.random.default_rng(0))
        loss.backward()
        adopted = [leaf.grad for leaf in leaves]

        copy = Tensor._accumulate
        monkeypatch.setattr(Tensor, "_accumulate",
                            lambda self, grad, adopt=False: copy(self, grad))
        leaves, loss = _graph(name, np.random.default_rng(0))
        loss.backward()
        for grad, leaf in zip(adopted, leaves):
            assert same_bytes(grad, leaf.grad)

    def test_fresh_vjp_result_is_adopted(self):
        x = Tensor(random(3, 4), requires_grad=True)
        y = x * 2.0
        (y * y).sum().backward()
        # ``mul``'s VJP result for ``x`` is fresh: adopted, no copy.
        assert x.grad.base is None and x.grad.flags.owndata

    def test_seed_is_copied(self):
        x = Tensor(random(3), requires_grad=True)
        seed = np.ones(3)
        x.backward(seed)
        assert not np.shares_memory(x.grad, seed)


class TestConstruction:
    def test_int_input_converted_to_float(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype.kind == "f"

    def test_zeros_and_ones(self):
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert Tensor.ones(4).data.sum() == 4.0

    def test_item(self):
        assert Tensor(np.array([[3.5]])).item() == 3.5

    def test_len_and_repr(self):
        t = Tensor(random(3, 2), requires_grad=True)
        assert len(t) == 3
        assert "requires_grad" in repr(t)
