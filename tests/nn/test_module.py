"""Tests for the module system: registration, modes, state IO."""

import numpy as np
import pytest

from repro.nn import Dropout, LayerNorm, Linear, Module, ModuleList, Parameter, Tensor


def rng():
    return np.random.default_rng(7)


class TinyModel(Module):
    def __init__(self):
        super().__init__()
        r = rng()
        self.first = Linear(4, 8, r)
        self.second = Linear(8, 2, r)
        self.norm = LayerNorm(2)

    def forward(self, x):
        return self.norm(self.second(self.first(x).relu()))


class TestRegistration:
    def test_named_parameters_dotted(self):
        model = TinyModel()
        names = dict(model.named_parameters())
        assert "first.weight" in names
        assert "second.bias" in names
        assert "norm.gain" in names

    def test_parameters_unique(self):
        model = TinyModel()
        shared = model.first
        model.alias = shared  # same module registered twice
        params = list(model.parameters())
        assert len(params) == len({id(p) for p in params})

    def test_num_parameters(self):
        model = TinyModel()
        assert model.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2 + 2 + 2

    def test_modules_traversal(self):
        model = TinyModel()
        kinds = [type(m).__name__ for m in model.modules()]
        assert kinds.count("Linear") == 2
        assert "LayerNorm" in kinds

    def test_module_list(self):
        layers = ModuleList([Linear(2, 2, rng()) for _ in range(3)])
        assert len(layers) == 3
        assert len(list(layers.named_parameters())) == 6
        assert layers[1] is list(iter(layers))[1]


class TestModes:
    def test_train_eval_propagate(self):
        model = TinyModel()
        model.dropout = Dropout(0.5, rng())
        model.eval()
        assert not model.dropout.training
        model.train()
        assert model.dropout.training

    def test_dropout_identity_in_eval(self):
        drop = Dropout(0.9, rng())
        drop.eval()
        x = Tensor(np.ones((4, 4)))
        np.testing.assert_array_equal(drop(x).data, x.data)

    def test_dropout_scales_in_train(self):
        drop = Dropout(0.5, rng())
        x = Tensor(np.ones((2000,)))
        out = drop(x).data
        # Inverted dropout keeps expectation ~1.
        assert abs(out.mean() - 1.0) < 0.1
        assert set(np.round(np.unique(out), 6)) <= {0.0, 2.0}

    def test_dropout_validates_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0, rng())


class DropoutStack(Module):
    """A linear layer followed by every dropout registered anywhere in it."""

    def __init__(self):
        super().__init__()
        self.linear = Linear(4, 4, rng())
        self.blocks = ModuleList([Dropout(0.5, rng())])

    def forward(self, x):
        x = self.linear(x)
        for module in self.modules():
            if isinstance(module, Dropout):
                x = module(x)
        return x


def _count_walks(monkeypatch):
    walks = {"n": 0}
    modules = Module.modules

    def counting(self):
        walks["n"] += 1
        return modules(self)

    monkeypatch.setattr(Module, "modules", counting)
    return walks


class TestModeEpoch:
    def test_eval_of_an_eval_tree_walks_nothing(self, monkeypatch):
        model = TinyModel()
        model.eval()
        walks = _count_walks(monkeypatch)
        model.eval()
        model.first.eval()
        with model.inference():
            pass
        assert walks["n"] == 0
        model.train()
        model.eval()
        assert walks["n"] > 0

    @pytest.mark.parametrize("change", [
        lambda model: model.blocks[0].train(),
        lambda model: model.blocks.append(Dropout(0.5, rng())),
        lambda model: setattr(model, "tail", Dropout(0.5, rng())),
    ], ids=["child_train", "module_list_append", "new_submodule"])
    @pytest.mark.parametrize("enter", ["eval", "inference"])
    def test_next_eval_reaches_a_changed_tree(self, change, enter):
        model = DropoutStack()
        model.eval()
        change(model)
        x = Tensor(rng().normal(size=(3, 4)))
        if enter == "eval":
            model.eval()
            out = model(x).data
        else:
            with model.inference():
                out = model(x).data
        assert not any(module.training for module in model.modules())
        np.testing.assert_array_equal(out, model.linear(x).data)


class TestStateIO:
    def test_state_dict_roundtrip(self):
        model_a, model_b = TinyModel(), TinyModel()
        model_b.first.weight.data[...] = 0.0
        model_b.load_state_dict(model_a.state_dict())
        np.testing.assert_array_equal(model_b.first.weight.data, model_a.first.weight.data)

    def test_state_dict_copies(self):
        model = TinyModel()
        state = model.state_dict()
        state["first.weight"][...] = 99.0
        assert not np.any(model.first.weight.data == 99.0)

    def test_load_rejects_missing(self):
        model = TinyModel()
        state = model.state_dict()
        del state["first.weight"]
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_load_rejects_unexpected(self):
        model = TinyModel()
        state = model.state_dict()
        state["ghost"] = np.zeros(1)
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_load_rejects_shape_mismatch(self):
        model = TinyModel()
        state = model.state_dict()
        state["first.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_zero_grad_clears_all(self):
        model = TinyModel()
        x = Tensor(np.ones((3, 4)))
        model(x).sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())


class TestParameter:
    def test_parameter_requires_grad(self):
        p = Parameter(np.zeros((2, 2)))
        assert p.requires_grad

    def test_parameter_dtype_float64(self):
        p = Parameter(np.zeros((2, 2), dtype=np.float32))
        assert p.dtype == np.float64
