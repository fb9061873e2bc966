"""Tests for SGD and Adam."""

import numpy as np
import pytest

from repro.nn.layers import Linear
from repro.nn.losses import MSELoss
from repro.nn.models import build_model
from repro.optim import SGD, Adam

RNG = np.random.default_rng(0)


def quadratic_step(opt, model, target):
    """One optimization step on ||Wx - t||² with fixed x=1."""
    model.zero_grad()
    x = np.ones((1, model.in_features))
    loss = MSELoss()
    val = loss.forward(model.forward(x), target)
    model.backward(loss.backward())
    opt.step()
    return val


class TestSGD:
    def test_plain_sgd_matches_formula(self):
        m = Linear(2, 1, bias=False, rng=0)
        opt = SGD(m, lr=0.5)
        m.weight.grad[...] = np.array([[1.0, 2.0]])
        w0 = m.weight.data.copy()
        opt.step()
        assert np.allclose(m.weight.data, w0 - 0.5 * np.array([[1.0, 2.0]]))

    def test_weight_decay_shrinks_params(self):
        m = Linear(2, 1, bias=False, rng=0)
        m.weight.data[...] = 1.0
        opt = SGD(m, lr=0.1, weight_decay=0.5)
        m.weight.grad[...] = 0.0
        opt.step()
        assert np.allclose(m.weight.data, 1.0 - 0.1 * 0.5)

    def test_momentum_accelerates_constant_gradient(self):
        """With constant gradient, momentum's cumulative displacement after k
        steps exceeds plain SGD's."""
        def run(momentum):
            m = Linear(1, 1, bias=False, rng=0)
            m.weight.data[...] = 0.0
            opt = SGD(m, lr=0.1, momentum=momentum)
            for _ in range(5):
                m.weight.grad[...] = 1.0
                opt.step()
                m.zero_grad()
            return m.weight.data.item()

        assert run(0.9) < run(0.0) < 0.0

    def test_nesterov_requires_momentum(self):
        with pytest.raises(ValueError):
            SGD(build_model("mlp", rng=0), lr=0.1, nesterov=True)

    def test_nesterov_differs_from_heavy_ball(self):
        def run(nesterov):
            m = Linear(1, 1, bias=False, rng=0)
            m.weight.data[...] = 0.0
            opt = SGD(m, lr=0.1, momentum=0.9, nesterov=nesterov)
            for _ in range(3):
                m.weight.grad[...] = 1.0
                opt.step()
                m.zero_grad()
            return m.weight.data.item()

        assert run(True) != run(False)

    def test_invalid_hyperparams(self):
        m = build_model("mlp", rng=0)
        with pytest.raises(ValueError):
            SGD(m, lr=0.0)
        with pytest.raises(ValueError):
            SGD(m, lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD(m, lr=0.1, weight_decay=-1.0)

    def test_set_lr(self):
        opt = SGD(build_model("mlp", rng=0), lr=0.1)
        opt.set_lr(0.01)
        assert opt.lr == 0.01
        with pytest.raises(ValueError):
            opt.set_lr(-1.0)

    def test_reset_state_clears_momentum(self):
        m = Linear(1, 1, bias=False, rng=0)
        opt = SGD(m, lr=0.1, momentum=0.9)
        m.weight.grad[...] = 1.0
        opt.step()
        opt.reset_state()
        # After reset, next step behaves like the first (velocity = grad).
        w0 = m.weight.data.copy()
        m.weight.grad[...] = 1.0
        opt.step()
        assert np.allclose(m.weight.data, w0 - 0.1)

    def test_converges_on_quadratic(self):
        m = Linear(3, 2, rng=0)
        opt = SGD(m, lr=0.1, momentum=0.9)
        target = np.array([[1.0, -1.0]])
        losses = [quadratic_step(opt, m, target) for _ in range(200)]
        assert losses[-1] < 1e-6 < losses[0]


def whole_array_sgd(p, g, v, lr, momentum, decay, nesterov):
    """The flat update as whole-array expressions (what ``SGD.step`` ran
    before it walked the arena in panels): the reference for its bytes."""
    if decay:
        g = g + decay * p
    if momentum:
        v *= momentum
        v += g
        g = g + momentum * v if nesterov else v
    p -= lr * g


SGD_VARIANTS = {
    "plain": {},
    "momentum": {"momentum": 0.9},
    "momentum+decay": {"momentum": 0.9, "weight_decay": 5e-4},
    "nesterov": {"momentum": 0.9, "weight_decay": 5e-4, "nesterov": True},
    "decay": {"weight_decay": 5e-4},
}


class TestPanelledSGD:
    @pytest.mark.parametrize("d", [1, 16383, 16384, 16385, 111332])
    @pytest.mark.parametrize("variant", list(SGD_VARIANTS))
    def test_panels_match_whole_array_update_bitwise(self, d, variant):
        kw = SGD_VARIANTS[variant]
        rng = np.random.default_rng(d)
        model = Linear(d, 1, bias=False, rng=0)
        model.weight.data[...] = rng.normal(size=(1, d))
        opt = SGD(model, lr=0.05, **kw)
        p, v = model.get_flat_params(copy=True), np.zeros(d)
        for step in range(3):
            g = rng.normal(size=d)
            model.set_flat_grads(g)
            opt.set_lr(0.05 / (step + 1))
            opt.step()
            whole_array_sgd(
                p, g, v, opt.lr, opt.momentum, opt.weight_decay, opt.nesterov
            )
            assert model.get_flat_params().tobytes() == p.tobytes()
            assert model.get_flat_grads().tobytes() == g.tobytes()
        if opt.momentum:
            assert opt.state_dict()["flat_velocity"].tobytes() == v.tobytes()
        else:
            assert "flat_velocity" not in opt.state_dict()

    def test_state_dict_round_trip_continues_bitwise(self):
        rng = np.random.default_rng(7)
        grads = rng.normal(size=(4, 40000))

        def run(reload_at):
            model = Linear(40000, 1, bias=False, rng=0)
            opt = SGD(model, lr=0.1, momentum=0.9, weight_decay=1e-3)
            for i, g in enumerate(grads):
                if i == reload_at:
                    state = opt.state_dict()
                    opt = SGD(model, lr=0.5, momentum=0.9, weight_decay=1e-3)
                    opt.load_state_dict(state)
                model.set_flat_grads(g)
                opt.step()
            return model.get_flat_params(copy=True), opt.state_dict()

        (p_a, s_a), (p_b, s_b) = run(None), run(2)
        assert p_a.tobytes() == p_b.tobytes()
        assert s_a["lr"] == s_b["lr"] and s_a["state"] == s_b["state"]
        assert s_a["flat_velocity"].tobytes() == s_b["flat_velocity"].tobytes()


class TestAdam:
    def test_first_step_size_is_lr(self):
        """With bias correction, the first Adam step has magnitude ≈ lr."""
        m = Linear(1, 1, bias=False, rng=0)
        m.weight.data[...] = 0.0
        opt = Adam(m, lr=0.01)
        m.weight.grad[...] = 123.4  # any gradient scale
        opt.step()
        assert abs(m.weight.data.item()) == pytest.approx(0.01, rel=1e-4)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam(build_model("mlp", rng=0), betas=(1.0, 0.9))

    def test_converges_on_quadratic(self):
        m = Linear(3, 2, rng=0)
        opt = Adam(m, lr=0.05)
        target = np.array([[1.0, -1.0]])
        losses = [quadratic_step(opt, m, target) for _ in range(200)]
        assert losses[-1] < 1e-4 < losses[0]

    def test_weight_decay_applied(self):
        m = Linear(1, 1, bias=False, rng=0)
        m.weight.data[...] = 10.0
        opt = Adam(m, lr=0.1, weight_decay=1.0)
        m.weight.grad[...] = 0.0
        w0 = m.weight.data.item()
        opt.step()
        assert m.weight.data.item() < w0

    def test_reset_state_restarts_bias_correction(self):
        m = Linear(1, 1, bias=False, rng=0)
        opt = Adam(m, lr=0.01)
        for _ in range(5):
            m.weight.grad[...] = 1.0
            opt.step()
        opt.reset_state()
        m.weight.data[...] = 0.0
        m.weight.grad[...] = 55.0
        opt.step()
        assert abs(m.weight.data.item()) == pytest.approx(0.01, rel=1e-4)
