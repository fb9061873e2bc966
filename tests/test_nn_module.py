"""Tests for Module bookkeeping: parameters, modes, flat views, state dicts."""

import numpy as np
import pytest

from repro.nn.layers import Dropout, Linear, ReLU, Sequential
from repro.nn.module import Module
from repro.nn.parameter import Parameter


@pytest.fixture
def net():
    return Sequential(Linear(4, 8, rng=0), ReLU(), Linear(8, 2, rng=1))


class TestParameterTraversal:
    def test_named_parameters_are_stable_and_dotted(self, net):
        names = [n for n, _ in net.named_parameters()]
        assert names == [
            "layer0.weight",
            "layer0.bias",
            "layer2.weight",
            "layer2.bias",
        ]

    def test_n_parameters(self, net):
        assert net.n_parameters == 4 * 8 + 8 + 8 * 2 + 2

    def test_nbytes(self, net):
        assert net.nbytes == net.n_parameters * 8  # float64

    def test_auto_registration_via_setattr(self):
        class M(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.zeros(3))
                self.child = Linear(2, 2, rng=0)

        m = M()
        names = [n for n, _ in m.named_parameters()]
        assert "w" in names
        assert "child.weight" in names


class TestModes:
    def test_train_eval_propagate(self, net):
        net.append(Dropout(0.5))
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())


class TestFlatViews:
    def test_roundtrip(self, net):
        flat = net.get_flat_params()
        net.set_flat_params(np.zeros_like(flat))
        assert not np.any(net.get_flat_params())
        net.set_flat_params(flat)
        assert np.array_equal(net.get_flat_params(), flat)

    def test_wrong_size_raises(self, net):
        with pytest.raises(ValueError):
            net.set_flat_params(np.zeros(3))

    def test_grad_roundtrip(self, net):
        g = np.arange(net.n_parameters, dtype=np.float64)
        net.set_flat_grads(g)
        assert np.array_equal(net.get_flat_grads(), g)

    def test_zero_grad(self, net):
        net.set_flat_grads(np.ones(net.n_parameters))
        net.zero_grad()
        assert not np.any(net.get_flat_grads())


class TestStateDict:
    def test_roundtrip(self, net):
        state = net.state_dict()
        net.set_flat_params(np.zeros(net.n_parameters))
        net.load_state_dict(state)
        assert np.array_equal(net.get_flat_params(), np.concatenate(
            [state[n].ravel() for n, _ in net.named_parameters()]
        ))

    def test_missing_key_raises(self, net):
        state = net.state_dict()
        state.pop("layer0.weight")
        with pytest.raises(KeyError, match="missing"):
            net.load_state_dict(state)

    def test_unexpected_key_raises(self, net):
        state = net.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError, match="unexpected"):
            net.load_state_dict(state)

    def test_shape_mismatch_raises(self, net):
        state = net.state_dict()
        state["layer0.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="shape mismatch"):
            net.load_state_dict(state)

    def test_state_dict_copies(self, net):
        state = net.state_dict()
        state["layer0.weight"][...] = 99.0
        assert not np.any(net.get_flat_params() == 99.0)


class TestParameterObject:
    def test_grad_shape_enforced(self):
        p = Parameter(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            p.accumulate_grad(np.zeros(5))

    def test_grad_accumulates(self):
        p = Parameter(np.zeros(3))
        p.accumulate_grad(np.ones(3))
        p.accumulate_grad(np.ones(3))
        assert np.array_equal(p.grad, [2, 2, 2])

    def test_requires_grad_false_skips(self):
        p = Parameter(np.zeros(3), requires_grad=False)
        p.accumulate_grad(np.ones(3))
        assert not np.any(p.grad)
