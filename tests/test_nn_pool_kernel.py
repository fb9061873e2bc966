"""The 2x2 / stride-2 ``MaxPool2d`` kernel (``nn.layers.pooling``).

Forward does value work only (four tap copies, three maxima); backward
derives each window's winner from the kept taps as a 2-bit code and scatters
through ``corner + offsets[code]``. These tests hold both to the general
im2col / argmax path *bitwise* — output and input gradient — over the shape
grid, every tie pattern, strided and float32 inputs and the forward /
backward interleavings a training step produces, and show that no result
depends on workspace memory the layer did not write.

The whole module runs with warnings as errors and ``np.errstate(all="raise")``.
"""

import itertools

import numpy as np
import pytest

from repro.nn import workspace
from repro.nn.layers import pooling as pooling_module
from repro.nn.layers.pooling import MaxPool2d, _PoolGrad, _PoolWorkspace

pytestmark = pytest.mark.filterwarnings("error")


@pytest.fixture(autouse=True)
def strict_numerics(monkeypatch):
    """A pool of the test's own, and every floating-point flag an error."""
    monkeypatch.setattr(workspace, "POOL", workspace.WorkspacePool())
    with np.errstate(all="raise"):
        yield


def fast_pool(x, g, pool=None):
    """Private copies of ``(out, dx)`` from the fast path."""
    pool = pool or MaxPool2d(2)
    out = np.array(pool.forward(x))
    assert isinstance(pool._saved[0], _PoolWorkspace), "input did not take the 2x2 fast path"
    return out, np.array(pool.backward(g))


def general_pool(x, g):
    """The same windows through the general im2col / argmax path: one ragged
    extra row and column fall outside every window but break the shape
    divisibility the fast path needs. ``(out, dx over x)``."""
    n, c, h, w = x.shape
    ragged = np.full((n, c, h + 1, w + 1), 1e9, dtype=x.dtype)
    ragged[:, :, :h, :w] = x
    pool = MaxPool2d(2)
    out = pool.forward(ragged)
    assert isinstance(pool._saved[0], np.ndarray)  # the argmax of the general path
    dx = pool.backward(g)
    assert not dx[:, :, h:, :].any() and not dx[:, :, :, w:].any()
    return out, dx[:, :, :h, :w]


def assert_same_bytes(got, ref):
    for a, r in zip(got, ref):
        assert a.shape == r.shape
        # The fast path works in float64 buffers whatever the input dtype;
        # max and select are exact, so casting back loses nothing.
        assert a.astype(r.dtype).tobytes() == np.ascontiguousarray(r).tobytes()


def operands(shape, seed, integers=False):
    """``integers``: rounded inputs, which tie in most windows. (``+ 0.0``
    turns ``rint``'s -0.0 into +0.0: a window tying the two zeros has two
    correct maxima, and ``np.maximum`` and ``argmax`` may each return either.)"""
    n, c, h, w = shape
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=1.5, size=shape)
    g = rng.normal(size=(n, c, h // 2, w // 2))
    return (np.rint(x) + 0.0 if integers else x), g


SIZES = [(2, 2), (6, 10), (16, 16), (4, 260)]
GRID = list(itertools.product((1, 4, 32), (1, 3, 16), SIZES))


@pytest.mark.parametrize("integers", [False, True], ids=["normal", "tied"])
def test_fast_path_equals_general_path_bitwise_on_the_grid(integers):
    """W = 260 > 127: the winner code stays 0..3 in int8 for any width (the
    flat offsets ``[0, 1, w, w+1]`` live in the intp table it indexes).
    Inputs rounded to integers tie in most windows."""
    for seed, (n, c, (h, w)) in enumerate(GRID):
        x, g = operands((n, c, h, w), seed, integers)
        assert_same_bytes(fast_pool(x, g), general_pool(x, g))


def test_every_tie_pattern_goes_to_the_first_maximal_tap():
    """All 3^4 orderings of a window's taps (a b / c d), b == c > a, d among
    them: the winner is argmax's — the first tap holding the maximum."""
    windows = np.array(list(itertools.product((0.0, 1.0, 2.0), repeat=4)))
    assert [1.0, 2.0, 2.0, 0.0] in windows.tolist()
    x = windows.reshape(1, 1, 81, 2, 2).transpose(0, 1, 3, 2, 4).reshape(1, 1, 2, 162)
    g = np.arange(1.0, 82.0).reshape(1, 1, 1, 81)
    out, dx = fast_pool(x, g)
    assert_same_bytes((out, dx), general_pool(x, g))
    winners = dx.reshape(2, 81, 2).transpose(1, 0, 2).reshape(81, 4)
    np.testing.assert_array_equal(winners.argmax(axis=1), windows.argmax(axis=1))
    np.testing.assert_array_equal(out.ravel(), windows.max(axis=1))


def test_conv_view_style_strided_input_and_float32():
    n, c, h, w = 4, 3, 6, 10
    x, g = operands((n, c, h, w), 7)
    plane = np.zeros((h, c, n, w + 2))  # a slab accumulator: (rows, chans, N, cols)
    view = plane.transpose(2, 1, 0, 3)[..., :w]
    view[...] = x
    strided_g = g.transpose(1, 0, 2, 3).copy().transpose(1, 0, 2, 3)
    assert not view.flags["C_CONTIGUOUS"] and not strided_g.flags["C_CONTIGUOUS"]
    assert_same_bytes(fast_pool(view, strided_g), general_pool(x, g))
    x32, g32 = x.astype(np.float32), g.astype(np.float32)
    assert_same_bytes(fast_pool(x32, g32), general_pool(x32, g32))


def test_eval_forward_then_train_forward_then_backward():
    """An evaluation forward (another batch size, never followed by a
    backward) does nothing index-related: the scatter grid is built by the
    first backward."""
    x, g = operands((4, 3, 6, 10), 11)
    ragged, _ = operands((3, 3, 6, 10), 12)
    pool = MaxPool2d(2)
    pool.eval()
    eval_out = np.array(pool.forward(ragged))
    assert [sig for sig, _ in workspace.POOL.kept] == ["maxpool2"]  # no corner grid
    pool.train()
    got = fast_pool(x, g, pool)
    assert_same_bytes(got, general_pool(x, g))
    np.testing.assert_array_equal(eval_out, general_pool(ragged, g[:3])[0])


def test_two_forwards_then_one_backward_uses_the_second_forwards_taps():
    x1, _ = operands((4, 3, 6, 10), 13, integers=True)
    x2, g = operands((4, 3, 6, 10), 14, integers=True)
    pool = MaxPool2d(2)
    pool.forward(x1)
    assert_same_bytes(fast_pool(x2, g, pool), general_pool(x2, g))
    # And the next step, in the workspace the first one left free.
    assert_same_bytes(fast_pool(x1, g, pool), general_pool(x1, g))
    (kept,) = (sizes for (sig, _), sizes in workspace.POOL.kept.items() if sig == "maxpool2")
    assert [len(stack) for stack in kept.values()] == [1]


class PoisonedEmptyNumpy:
    """``numpy`` as ``pooling.py`` and the pool see it, with ``np.empty`` poisoned: NaN
    in float buffers, an out-of-range value in the code and index ones."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=np.float64):
        return np.full(shape, np.nan if np.dtype(dtype).kind == "f" else -7, dtype)


def test_uninitialised_workspace_memory_never_reaches_a_result(monkeypatch):
    x, g = operands((4, 3, 6, 10), 15)
    clean = fast_pool(x, g)
    monkeypatch.setattr(workspace, "POOL", workspace.WorkspacePool())
    monkeypatch.setattr(pooling_module, "np", PoisonedEmptyNumpy())
    monkeypatch.setattr(workspace, "np", PoisonedEmptyNumpy())  # dx
    ws, gw = _PoolWorkspace(x.shape), _PoolGrad(x.shape)
    assert np.isnan(ws.taps).all() and (gw.idx == -7).all() and (gw.flags == -7).all()
    assert np.isnan(workspace.buffer((2, 3))).all()
    for _ in range(2):  # a fresh workspace, then the same one re-used
        assert_same_bytes(fast_pool(x, g), clean)
