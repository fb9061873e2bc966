"""A stride-1 ``Conv2d`` with ``fuse_relu`` is ``Conv2d`` followed by ``ReLU``,
bit for bit.

The fused layer clips its accumulator at zero in ``forward`` and multiplies
the gradient plane by ``acc > 0`` in ``backward`` (``nn.layers.conv``). Every
comparison here is on bytes: the output, ``dW``, ``db`` and ``dx`` of one
layer over kernel size, padding (both the gradient plane of its own and the
window of the ``dx`` plane), bias, input gradient and channel / batch
shapes, with inputs and gradients that hold NaN, ±inf and −0.0; an
evaluation forward under ``no_grad``; and SmallVGG / SmallAlexNet, whose
conv→ReLU pairs are fused, against the same models with explicit ReLU
modules — logits and gradients over three steps and a trainer's checkpoint.
"""

import itertools
import zipfile

import numpy as np
import pytest

from repro.experiments.runner import MethodSpec, run_method
from repro.experiments.workloads import get_workload
from repro.nn import no_grad, workspace
from repro.nn.layers import Conv2d, ReLU, Sequential
from repro.nn.layers.conv import _SlabGrad
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MODELS, build_model
from repro.optim import SGD
from repro.utils.serialization import settle_checkpoints


@pytest.fixture(autouse=True)
def fresh_pool(monkeypatch):
    monkeypatch.setattr(workspace, "POOL", workspace.WorkspacePool())


def pair(c, o, k, pad, bias, skip, seed=0):
    """(fused conv, plain conv + ReLU) with the same weights."""
    fused = Conv2d(c, o, k, padding=pad, bias=bias, rng=seed)
    plain = Conv2d(c, o, k, padding=pad, bias=bias, rng=seed)
    if bias:  # non-zero, so the ones channel's column is exercised
        b = np.random.default_rng(seed + 1).normal(size=o)
        fused.bias.data[...] = plain.bias.data[...] = b
    fused.fuse_relu = True
    fused.skip_input_grad = plain.skip_input_grad = skip
    return fused, Sequential(plain, ReLU())


def run(layer, x, g):
    """Private copies of (out, dx, dW, db) of one forward + backward."""
    conv = layer if isinstance(layer, Conv2d) else layer.layers[0]
    conv.zero_grad()
    out = np.array(layer.forward(x))
    dx = layer.backward(g)
    return (
        out,
        None if dx is None else np.array(dx),
        conv.weight.grad.copy(),
        None if conv.bias is None else conv.bias.grad.copy(),
    )


def assert_bytes_equal(got, ref):
    for name, a, r in zip(("out", "dx", "dW", "db"), got, ref):
        assert (a is None) == (r is None), name
        if a is not None:
            assert a.shape == r.shape and a.tobytes() == r.tobytes(), name


def specials(rng, shape, n):
    """Normal values with ``n`` each of NaN, +inf, -inf and -0.0 and some
    exact zeros, at random places."""
    a = rng.normal(size=shape)
    flat = a.reshape(-1)
    idx = rng.permutation(flat.size)
    for i, v in enumerate((np.nan, np.inf, -np.inf, -0.0, 0.0)):
        flat[idx[i * n : (i + 1) * n]] = v
    return a


GRID = list(itertools.product(
    [3, 5],                             # k
    [0, 1, 2],                          # pad
    [(1, 4, 2), (3, 8, 4), (6, 5, 3)],  # (C, O, N)
    [True, False],                      # bias
    [False, True],                      # skip_input_grad
))


@pytest.mark.parametrize("k, pad, shape, bias, skip", GRID)
def test_fused_conv_equals_conv_then_relu(k, pad, shape, bias, skip):
    c, o, n = shape
    rng = np.random.default_rng(100 * k + 10 * pad + c)
    fused, plain = pair(c, o, k, pad, bias, skip, seed=c + o)
    h, w = 7, 9
    oh, ow = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    for _ in range(2):  # the second pass re-uses the planes the first wrote
        x, g = rng.normal(size=(n, c, h, w)), rng.normal(size=(n, o, oh, ow))
        assert_bytes_equal(run(fused, x, g), run(plain, x, g))


@pytest.mark.parametrize("k, pad", [(3, 0), (3, 1), (3, 2), (5, 2)])
@pytest.mark.parametrize("skip", [False, True])
def test_nan_inf_and_negative_zero_take_the_same_path(k, pad, skip):
    rng = np.random.default_rng(7 * k + pad)
    fused, plain = pair(3, 4, k, pad, True, skip)
    x = specials(rng, (3, 3, 8, 8), 4)
    oh = 8 + 2 * pad - k + 1
    g = specials(rng, (3, 4, oh, oh), 6)
    with np.errstate(all="ignore"):
        got, ref = run(fused, x, g), run(plain, x, g)
    assert np.isnan(ref[0]).any() and np.signbit(ref[2]).any()
    assert_bytes_equal(got, ref)


def test_negative_zero_outputs_and_gradients():
    """A conv without a bias over an all-zero input with negative weights:
    every output is a signed zero, and the mask keeps −0.0 gradients."""
    fused, plain = pair(2, 3, 3, 1, False, False)
    for conv in (fused, plain.layers[0]):
        conv.weight.data[...] = -1.0
    x = np.zeros((2, 2, 5, 5))
    g = np.full((2, 3, 5, 5), -0.0)
    g[0, 0, 0, 0] = 1.0
    assert_bytes_equal(run(fused, x, g), run(plain, x, g))


def test_evaluation_forward_under_no_grad():
    rng = np.random.default_rng(3)
    fused, plain = pair(3, 6, 3, 1, True, False)
    x = rng.normal(size=(5, 3, 6, 6))
    run(fused, x, rng.normal(size=(5, 6, 6, 6)))  # a training pass first
    ragged = rng.normal(size=(7, 3, 6, 6))
    with no_grad():
        got, ref = np.array(fused.forward(ragged)), np.array(plain.forward(ragged))
    assert got.tobytes() == ref.tobytes()
    assert (got >= 0).all()


@pytest.mark.parametrize(
    "k, pad, skip", [(3, 1, False), (5, 2, False), (3, 0, False), (3, 2, False), (3, 1, True)]
)
def test_the_flat_run_holds_gq_at_the_accumulators_offsets(k, pad, skip):
    """The mask is one pass over ``g_run``: viewed as the accumulator's
    ``(OH, O, Q)``, its first ``Q-k+1`` columns are ``gq`` and the rest is
    zero border, whether ``gq`` lies in its own plane or in the dx plane."""
    fused, _ = pair(2, 3, k, pad, True, skip)
    x = np.ones((2, 2, 7, 8))
    fused.forward(x)
    (ws,) = fused._saved
    gw = _SlabGrad(x.shape, 3, k, pad, not skip)
    gw.gq[...] = np.arange(1, gw.gq.size + 1).reshape(gw.gq.shape)
    oh, o = ws.acc.shape[:2]
    run, span = gw.g_run.reshape(oh, o, -1), gw.gq.shape[2]
    assert gw.g_run.size == ws.acc.size and np.shares_memory(gw.g_run, gw.gq)
    assert np.array_equal(run[:, :, :span], gw.gq) and not run[:, :, span:].any()


def test_a_strided_conv_refuses_the_fused_relu():
    conv = Conv2d(3, 4, 3, stride=2, padding=1, rng=0)
    conv.fuse_relu = True
    with pytest.raises(ValueError, match="stride 1"):
        conv.forward(np.zeros((2, 3, 8, 8)))


# -- the models: fused against explicit ReLU modules --------------------------------

#: the layer types of each model with its ReLUs as modules (the layout before
#: the conv→ReLU pairs were fused)
EXPLICIT = {
    "smallvgg": [
        "Conv2d", "ReLU", "Conv2d", "MaxPool2d", "ReLU", "Conv2d", "ReLU",
        "Conv2d", "MaxPool2d", "ReLU", "Flatten", "Linear", "ReLU", "Dropout", "Linear",
    ],
    "smallalexnet": [
        "Conv2d", "ReLU", "MaxPool2d", "Conv2d", "ReLU", "MaxPool2d",
        "Flatten", "Linear", "ReLU", "Dropout", "Linear",
    ],
}


def unfused(model):
    """``model`` with each fused ReLU back as a module after its conv."""
    layers = []
    for layer in model.net.layers:
        layers.append(layer)
        if getattr(layer, "fuse_relu", False):
            layer.fuse_relu = False
            layers.append(ReLU())
    model.net = Sequential(*layers)
    return model


@pytest.mark.parametrize("name", sorted(EXPLICIT))
def test_the_fused_sites_are_exactly_the_conv_relu_pairs(name):
    model = unfused(build_model(name, rng=0))
    assert [type(m).__name__ for m in model.net.layers] == EXPLICIT[name]


def train(model, n_classes, steps=3):
    """Logits and flat gradients of ``steps`` SGD steps, as bytes."""
    opt, loss = SGD(model, lr=0.05, momentum=0.9), CrossEntropyLoss()
    rng = np.random.default_rng(11)
    seen = []
    for _ in range(steps):
        x, y = rng.normal(size=(16, 3, 16, 16)), rng.integers(0, n_classes, 16)
        model.train()
        model.zero_grad()
        logits = model.forward(x)
        loss.forward(logits, y)
        model.backward(loss.backward())
        seen += [np.ascontiguousarray(logits).tobytes(), model.get_flat_grads(copy=True).tobytes()]
        opt.step()
    return seen + [model.get_flat_params(copy=True).tobytes()]


@pytest.mark.parametrize("name", sorted(EXPLICIT))
def test_models_train_bit_equal_to_explicit_relu_modules(name):
    fused = build_model(name, rng=5)
    assert any(getattr(m, "fuse_relu", False) for m in fused.modules())
    n_classes = fused.n_classes
    assert train(fused, n_classes) == train(unfused(build_model(name, rng=5)), n_classes)


def checkpoint_members(tmp_path, tag):
    built = get_workload("vgg_cifar100").build(
        n_workers=2, n_steps=4, data_scale=0.05, batch_size=8,
    )
    path = tmp_path / f"{tag}.npz"
    run_method(MethodSpec("bsp", {}), built, n_steps=4, eval_every=2,
               checkpoint_every=2, checkpoint_path=str(path))
    settle_checkpoints()
    with zipfile.ZipFile(path) as z:
        return {name: z.read(name) for name in z.namelist()}


def test_smallvgg_checkpoint_equals_one_with_explicit_relu_modules(tmp_path, monkeypatch):
    """The checkpoint holds flat parameters and per-module RNG / buffer
    lists, never layer names, so the shifted Sequential indices leave every
    member's bytes as they were."""
    fused = checkpoint_members(tmp_path, "fused")
    build = MODELS.get("smallvgg")
    monkeypatch.setitem(MODELS._entries, "smallvgg", lambda **kw: unfused(build(**kw)))
    explicit = checkpoint_members(tmp_path, "explicit")
    assert fused.keys() == explicit.keys() and fused == explicit
