"""Gradients are written once, and nobody can tell.

``zero_grad()`` only marks every parameter *unwritten*; the first
``accumulate_*`` after it writes ``0 + g`` into the buffer and later ones
add. The tests poison ``grad_buf`` with NaN first, so any read path that
forgets to settle an unwritten parameter shows it. The reference for
"bitwise the eager fill" is the same model with every buffer settled
(zero-filled and marked written) straight after ``zero_grad()``: from there
each gradient goes through ``zeros; += g`` with a GEMM temporary, the path
this replaced.
"""

import copy

import numpy as np
import pytest

from repro.cluster.executor import make_executor
from repro.cluster.worker import build_worker_group
from repro.data import ArrayDataset, BatchLoader, selsync_partition
from repro.nn.arena import share_arena, unshare_arena
from repro.nn.layers import Linear
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MODELS, build_model
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.optim import SGD, Adam

pytestmark = pytest.mark.filterwarnings("error")

SMALL = {
    "mlp": dict(in_features=12, n_classes=5, hidden=(9, 7)),
    "smallvgg": dict(n_classes=5, image_size=8),
    "smallresnet": dict(n_classes=5, image_size=8, base=4),
    "smallalexnet": dict(n_classes=5, image_size=8),
    "tinytransformer": dict(vocab_size=11, dim=8, n_heads=2, n_layers=2, max_len=6, dropout=0.0),
}


def _batch(name, rng, n=4):
    if name == "mlp":
        return rng.normal(size=(n, 12)), rng.integers(0, 5, n)
    if name == "tinytransformer":
        return rng.integers(0, 11, (n, 6)), rng.integers(0, 11, (n, 6))
    return rng.normal(size=(n, 3, 8, 8)), rng.integers(0, 5, n)


def _poison(model):
    model._ensure_arena().grad_buf.fill(np.nan)


def _backward(model, batch):
    x, y = batch
    loss = CrossEntropyLoss()
    loss.forward(model.forward(x), y)
    model.backward(loss.backward())


def _eager_zero_grad(model):
    """What ``zero_grad()`` used to do: every buffer really zero, and written."""
    model.zero_grad()
    model.get_flat_grads()


def test_small_covers_the_registry():
    assert sorted(SMALL) == sorted(MODELS.names())


# -- (a) nothing stale is readable straight after zero_grad -------------------
@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_read_path_is_zero_after_zero_grad(name):
    model = build_model(name, rng=0, **SMALL[name])
    model.train()
    _backward(model, _batch(name, np.random.default_rng(1)))
    assert model.get_flat_grads().any()
    for read in (
        lambda: np.concatenate([p.grad.ravel() for p in model.parameters()]),
        lambda: model.get_flat_grads(),
        lambda: model.get_flat_grads(copy=True),
    ):
        _poison(model)
        model.zero_grad()
        got = read()
        assert got.shape == (model.n_parameters,)
        assert not got.any() and not np.signbit(got).any()


# -- (b) frozen and unused parameters ------------------------------------------
class _WithSpare(Module):
    """A Linear plus a parameter no forward ever touches."""

    def __init__(self):
        super().__init__()
        self.lin = Linear(6, 4, rng=0)
        self.spare = Parameter(np.full(3, 2.0))

    def forward(self, x):
        return self.lin.forward(x)

    def backward(self, g):
        return self.lin.backward(g)


@pytest.mark.parametrize("make_opt", [
    lambda m: SGD(m, lr=0.1, momentum=0.9),
    lambda m: Adam(m, lr=0.1),
], ids=["sgd", "adam"])
def test_frozen_and_unused_parameters_read_zero_and_do_not_move(make_opt):
    model = _WithSpare()
    model.lin.bias.requires_grad = False
    opt = make_opt(model)
    rng = np.random.default_rng(2)
    frozen, spare = model.lin.bias.data.copy(), model.spare.data.copy()
    for _ in range(3):
        _poison(model)
        opt.zero_grad()
        _backward(model, (rng.normal(size=(5, 6)), rng.integers(0, 4, 5)))
        opt.step()
        assert not model.lin.bias.grad.any() and not model.spare.grad.any()
        assert np.isfinite(model.get_flat_params()).all()
    assert np.array_equal(model.lin.bias.data, frozen)
    assert np.array_equal(model.spare.data, spare)
    assert np.isfinite(model.lin.weight.grad).all() and model.lin.weight.grad.any()


# -- (c) bitwise the eager fill ------------------------------------------------
@pytest.mark.parametrize("name", ["mlp", "smallvgg", "tinytransformer"])
def test_one_backward_equals_zeros_plus_g_bitwise(name):
    model = build_model(name, rng=0, **SMALL[name])
    ref = copy.deepcopy(model)
    model.train(), ref.train()
    rng = np.random.default_rng(3)
    for _ in range(2):
        batch = _batch(name, rng)
        _poison(model)
        model.zero_grad()
        _backward(model, batch)
        _eager_zero_grad(ref)
        _backward(ref, batch)
        assert model.get_flat_grads().tobytes() == ref.get_flat_grads().tobytes()


@pytest.mark.parametrize("name", ["mlp", "smallvgg", "tinytransformer"])
def test_two_backwards_without_a_zero_accumulate_bitwise(name):
    model = build_model(name, rng=0, **SMALL[name])
    ref = copy.deepcopy(model)  # same dropout streams as long as both do the same forwards
    model.train(), ref.train()
    rng = np.random.default_rng(4)
    b1, b2 = _batch(name, rng), _batch(name, rng)
    _poison(model)
    model.zero_grad()
    _eager_zero_grad(ref)
    for b in (b1, b2):
        _backward(model, b)
        _backward(ref, b)
    assert model.get_flat_grads().tobytes() == ref.get_flat_grads().tobytes()


def test_two_mlp_backwards_equal_zero_plus_g1_plus_g2():
    model = build_model("mlp", rng=0, **SMALL["mlp"])
    rng = np.random.default_rng(4)
    b1, b2 = _batch("mlp", rng), _batch("mlp", rng)
    singles = []
    for b in (b1, b2):
        _eager_zero_grad(model)
        _backward(model, b)
        singles.append(model.get_flat_grads(copy=True))
    _poison(model)
    model.zero_grad()
    _backward(model, b1)
    _backward(model, b2)
    expect = (0.0 + singles[0]) + singles[1]
    assert model.get_flat_grads().tobytes() == expect.tobytes()


def test_relu_zeroed_products_match_the_eager_path_bitwise():
    """Dead ReLU units make dW a sum of ``0 * negative = -0.0`` products; the
    direct GEMM write must land them as the ``zeros; +=`` path did."""
    lin = Linear(5, 3, rng=0)
    x = np.zeros((4, 5))
    g = -np.ones((4, 3))
    for zero in (lin.zero_grad, lambda: _eager_zero_grad(lin)):
        zero()
        lin.forward(x)
        lin.backward(g)
        assert not np.signbit(lin.weight.grad).any()


# -- (d) the sign of zero ------------------------------------------------------
def test_negative_zero_gradient_lands_as_positive_zero():
    p = Parameter(np.ones(4))
    p.grad[...] = np.nan
    p.zero_grad()
    p.accumulate_grad(np.array([-0.0, 0.0, -1.0, 2.0]))
    assert p.grad.tobytes() == np.array([0.0, 0.0, -1.0, 2.0]).tobytes()
    p.accumulate_grad(np.array([-0.0, -0.0, 1.0, 1.0]))  # now it adds
    assert p.grad.tobytes() == np.array([0.0, 0.0, 0.0, 3.0]).tobytes()


def test_shape_mismatch_still_raises_while_unwritten():
    p = Parameter(np.ones((2, 3)))
    p.zero_grad()
    with pytest.raises(ValueError, match="does not match parameter"):
        p.accumulate_grad(np.ones((3, 2)))
    with pytest.raises(ValueError):
        p.accumulate_matmul(np.ones((3, 1)), np.ones((1, 2)))


# -- (e) set_flat_grads after zero_grad ----------------------------------------
def test_set_flat_grads_after_zero_grad_is_what_step_applies():
    model = build_model("mlp", rng=0, **SMALL["mlp"])
    opt = SGD(model, lr=0.5)
    before = model.get_flat_params(copy=True)
    g = np.random.default_rng(5).normal(size=model.n_parameters)
    _poison(model)
    opt.zero_grad()
    model.set_flat_grads(g)
    assert model.get_flat_grads().tobytes() == g.tobytes()
    opt.step()
    assert model.get_flat_params().tobytes() == (before - 0.5 * g).tobytes()


# -- (f) serial and process executors -------------------------------------------
def _mlp_group(n=2):
    rng = np.random.default_rng(0)
    ds = ArrayDataset(rng.normal(size=(48, 12)), rng.integers(0, 5, 48))
    loaders = BatchLoader.for_workers(
        ds, selsync_partition(48, n, rng=1), batch_size=6, seed=2
    )
    return build_worker_group(
        n,
        lambda: build_model("mlp", rng=7, **SMALL["mlp"]),
        lambda m: SGD(m, lr=0.1, momentum=0.9),
        loaders,
    )


def test_three_steps_serial_and_process_are_bit_equal():
    """One bias is frozen: nothing writes its gradient, so a child that did
    not settle before returning would leave the parent reading the poison."""
    outcome = {}
    for kind in ("serial", "process"):
        workers = _mlp_group()
        with make_executor(kind, procs=2) as ex:
            ex.bind(workers)
            for w in workers:
                w.model.parameters()[1].requires_grad = False
                _poison(w.model)
            grads = []
            for _ in range(3):
                ex.compute_gradients(
                    workers, [w.loader.next_batch() for w in workers]
                )
                grads.append([w.get_grads(copy=True).tobytes() for w in workers])
                for w in workers:
                    w.local_step(0.1)
            outcome[kind] = (grads, [w.get_params().tobytes() for w in workers])
            assert all(np.isfinite(w.get_grads()).all() for w in workers)
    assert outcome["serial"] == outcome["process"]


# -- (g) the marks survive every way an arena changes hands ---------------------
def _unwritten_model():
    model = build_model("mlp", rng=0, **SMALL["mlp"])
    _backward(model, _batch("mlp", np.random.default_rng(6)))
    _poison(model)
    model.zero_grad()
    return model


def test_rebuild_after_late_registration_reads_zero():
    model = _unwritten_model()
    model.extra = Parameter(np.ones(3))
    flat = model.get_flat_grads()
    assert flat.size == model.n_parameters and not flat.any()


def test_share_and_unshare_read_zero_and_keep_accumulating():
    model = _unwritten_model()
    try:
        share_arena(model)
        assert not model.get_flat_grads().any()
        model.zero_grad()
        batch = _batch("mlp", np.random.default_rng(8))
        _backward(model, batch)
        shared = model.get_flat_grads(copy=True)
        assert shared.any()
    finally:
        unshare_arena(model)
    assert model.get_flat_grads().tobytes() == shared.tobytes()
    _poison(model)
    model.zero_grad()
    _backward(model, batch)
    assert model.get_flat_grads().tobytes() == shared.tobytes()


def test_deepcopy_of_an_unwritten_model_reads_zero_on_both_sides():
    model = _unwritten_model()
    twin = copy.deepcopy(model)
    assert not twin.get_flat_grads().any()
    assert all(not p.grad.any() for p in twin.parameters())
    assert not model.get_flat_grads().any()
    batch = _batch("mlp", np.random.default_rng(9))
    _backward(twin, batch)
    assert twin.get_flat_grads().any() and not model.get_flat_grads().any()
