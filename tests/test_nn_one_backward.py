"""One backward per forward, for every layer in ``repro.nn.layers``.

A forward saves what its backward needs in one slot (``Module._save``) and
the backward takes it out (``Module._take``), so a backward with no forward
before it — or a second backward after one forward, which used to add the
weight gradient twice — raises ``RuntimeError`` naming the layer. Inside
``no_grad()`` a forward saves nothing at all.
"""

import numpy as np
import pytest

from repro.nn import layers, no_grad, workspace
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Embedding,
    Flatten,
    GELU,
    GlobalAvgPool2d,
    LayerNorm,
    Linear,
    MaxPool2d,
    MultiHeadSelfAttention,
    ReLU,
    Residual,
    Sequential,
    Tanh,
)

RNG = np.random.default_rng(0)

# name: (layer factory, input); the upstream gradient has the output's shape.
CASES = {
    "Linear": (lambda: Linear(4, 3, rng=0), RNG.normal(size=(2, 4))),
    "Conv2d": (lambda: Conv2d(2, 3, 3, padding=1, rng=0), RNG.normal(size=(2, 2, 6, 6))),
    "Conv2d-strided": (
        lambda: Conv2d(2, 3, 3, stride=2, padding=1, rng=0),
        RNG.normal(size=(2, 2, 6, 6)),
    ),
    "BatchNorm2d": (lambda: BatchNorm2d(2), RNG.normal(size=(2, 2, 4, 4))),
    "LayerNorm": (lambda: LayerNorm(4), RNG.normal(size=(2, 3, 4))),
    "ReLU": (ReLU, RNG.normal(size=(2, 4))),
    "GELU": (GELU, RNG.normal(size=(2, 4))),
    "Tanh": (Tanh, RNG.normal(size=(2, 4))),
    "Dropout": (lambda: Dropout(0.5, rng=0), RNG.normal(size=(2, 4))),
    "MaxPool2d": (lambda: MaxPool2d(2), RNG.normal(size=(1, 2, 4, 4))),
    "MaxPool2d-general": (lambda: MaxPool2d(2), RNG.normal(size=(1, 2, 5, 5))),
    "AvgPool2d": (lambda: AvgPool2d(2), RNG.normal(size=(1, 2, 4, 4))),
    "GlobalAvgPool2d": (GlobalAvgPool2d, RNG.normal(size=(2, 3, 4, 4))),
    "Embedding": (lambda: Embedding(10, 4, rng=0), RNG.integers(0, 10, (2, 3))),
    "MultiHeadSelfAttention": (
        lambda: MultiHeadSelfAttention(4, 2, rng=0), RNG.normal(size=(2, 3, 4))
    ),
    "Sequential": (lambda: Sequential(Linear(4, 4, rng=0), ReLU()), RNG.normal(size=(2, 4))),
    "Residual": (lambda: Residual(Linear(4, 4, rng=0)), RNG.normal(size=(2, 4))),
    "Flatten": (Flatten, RNG.normal(size=(2, 2, 3))),
}


@pytest.fixture(autouse=True)
def pool(monkeypatch):
    fresh = workspace.WorkspacePool()
    monkeypatch.setattr(workspace, "POOL", fresh)
    return fresh


def test_every_layer_is_covered():
    assert {name.split("-")[0] for name in CASES} == set(layers.__all__)


def error(layer) -> str:
    """The message, naming the layer (a container's comes from a child)."""
    own = not isinstance(layer, (Sequential, Residual))
    return (f"^{type(layer).__name__}" if own else "") + r"\.backward called before forward"


@pytest.mark.parametrize("name", sorted(CASES))
def test_backward_before_forward_raises(name):
    factory, x = CASES[name]
    layer = factory()
    g = RNG.normal(size=np.shape(factory().forward(x)))
    with pytest.raises(RuntimeError, match=error(layer)):
        layer.backward(g)


@pytest.mark.parametrize("name", sorted(CASES))
def test_second_backward_after_one_forward_raises(name):
    factory, x = CASES[name]
    layer = factory()
    layer.zero_grad()
    out = layer.forward(x)
    g = RNG.normal(size=np.shape(out))
    layer.backward(g)
    grads = layer.get_flat_grads(copy=True)
    with pytest.raises(RuntimeError, match=error(layer)):
        layer.backward(g)
    np.testing.assert_array_equal(layer.get_flat_grads(), grads)
    assert all(m._saved is None for m in layer.modules())


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_grad_forward_saves_nothing(name):
    factory, x = CASES[name]
    layer, ref = factory(), factory()
    with no_grad():
        out = np.array(layer.forward(x))
    np.testing.assert_array_equal(out, ref.forward(x))
    assert all(m._saved is None for m in layer.modules())


def test_no_grad_borrows_held_sizes_and_keeps_others_out(pool):
    gelu = GELU()
    x = RNG.normal(size=(4, 8))
    gelu.forward(x)
    gelu.backward(x)
    key = (np.float64, (8,))
    kept = {id(entry[0]) for entry in pool.kept[key][4]}
    with no_grad():
        out = gelu.forward(x)  # a kept size: a pooled buffer is borrowed
        assert id(out) in kept
        out = gelu.forward(RNG.normal(size=(7, 8)))  # not kept: private
    assert id(out) not in kept
    gelu.train()
    assert list(pool.kept[key]) == [4]
    assert {id(entry[0]) for entry in pool.kept[key][4]} == kept
