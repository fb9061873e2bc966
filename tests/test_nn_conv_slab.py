"""The one stride-1 convolution kernel (``nn.layers.conv``, row-slab layout).

Every stride-1 ``Conv2d`` — any kernel size, any padding including
``pad > k-1``, with or without bias, with or without an input gradient —
runs the same k-GEMM kernel over overlapping views of one padded plane.
These tests hold it to an einsum reference over the whole shape grid, show
that no result depends on scratch memory the layer did not write, and pin
the determinism contracts (serial == process, kill-and-resume bitwise) on a
conv model, where before only the MLP and transformer fixtures ran them.

The whole module runs with warnings as errors and ``np.errstate(all="raise")``:
an add over uninitialised memory would surface as an ``inf - inf`` here.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.runner import MethodSpec, run_method
from repro.experiments.workloads import get_workload
from repro.nn import workspace
from repro.nn.layers import conv as conv_module
from repro.nn.layers.conv import Conv2d, _SlabGrad, _SlabWorkspace
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import build_model
from repro.utils.serialization import save_runlog

pytestmark = pytest.mark.filterwarnings("error")


@pytest.fixture(autouse=True)
def strict_numerics(monkeypatch):
    """A pool of the test's own, and every floating-point flag an error."""
    monkeypatch.setattr(workspace, "POOL", workspace.WorkspacePool())
    with np.errstate(all="raise"):
        yield


def naive_conv(x, w, b, g, pad):
    """Stride-1 convolution and its gradients by einsum over explicit
    windows, in float64: ``(out, dx, dw, db)``."""
    x, g = x.astype(np.float64), g.astype(np.float64)
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    out = np.einsum("nchwij,ocij->nohw", win, w, optimize=True)
    if b is not None:
        out += b[None, :, None, None]
    dw = np.einsum("nohw,nchwij->ocij", g, win, optimize=True)
    dxp = np.zeros_like(xp)
    oh, ow = g.shape[2:]
    for i, j in itertools.product(range(k), repeat=2):
        dxp[:, :, i : i + oh, j : j + ow] += np.einsum(
            "nohw,oc->nchw", g, w[:, :, i, j], optimize=True
        )
    h, wd = x.shape[2:]
    dx = dxp[:, :, pad : pad + h, pad : pad + wd]
    return out, dx, dw, None if b is None else g.sum(axis=(0, 2, 3))


def run_conv(layer, x, g):
    """Forward + backward; private copies of ``(out, dx, dw, db)``."""
    layer.zero_grad()
    out = np.array(layer.forward(x))
    dx = layer.backward(g)
    return (
        out,
        None if dx is None else np.array(dx),
        layer.weight.grad.copy(),
        None if layer.bias is None else layer.bias.grad.copy(),
    )


def assert_matches(got, ref, atol=1e-10):
    for a, r in zip(got, ref):
        if a is not None:  # dx of a layer that skips it, db without a bias
            np.testing.assert_allclose(a, r, rtol=0, atol=atol)


def make_layer(c, o, k, pad, bias=True, skip=False, seed=0):
    layer = Conv2d(c, o, k, padding=pad, bias=bias, rng=seed)
    if bias:
        layer.bias.data[...] = np.random.default_rng(seed).normal(size=o)
    layer.skip_input_grad = skip
    return layer


def reference(layer, x, g):
    bias = None if layer.bias is None else layer.bias.data
    return naive_conv(x, layer.weight.data, bias, g, layer.padding)


def kept_workspaces(cls):
    """The pool's workspaces of class ``cls``, lent or free."""
    return [
        entry[0] for sizes in workspace.POOL.kept.values() for e in sizes.values()
        for entry in e if isinstance(entry[0], cls)
    ]


def slab_scratch():
    """``(k, batch-first shape, buffer)`` of each zero-tailed accumulator
    lent on its own: the partial products and the dx accumulators."""
    return [
        (sig[1], (n, *shape), entry[0])
        for (sig, shape), sizes in workspace.POOL.kept.items()
        if isinstance(sig, tuple) and sig[0] == "slabacc"
        for n, e in sizes.items() for entry in e
    ]


def assert_scratch_tails_are_zero():
    """The GEMMs write columns [0, Q-k+1) of each (chans, Q) row block of an
    accumulator, so its k-1 tail columns keep the zeros it was built with."""
    for k, (n, rows, chans, cols), buf in slab_scratch():
        assert not buf.reshape(rows, chans, -1)[:, :, n * cols - k + 1 :].any()


# -- the differential grid -----------------------------------------------------

KERNEL_PADS = [(k, pad) for k in (1, 2, 3, 5) for pad in range(k + 1)]


@pytest.mark.parametrize("k, pad", KERNEL_PADS)
def test_slab_conv_matches_einsum_reference_on_the_grid(k, pad):
    """k x pad (incl. pad > k-1) x C x O x N x bias x skip_input_grad, H != W."""
    rng = np.random.default_rng(100 * k + pad)
    h, w = k + 1, k + 3
    for c, o, n, bias, skip in itertools.product(
        (1, 3, 6, 16), (2, 5, 16), (1, 4, 32), (True, False), (True, False)
    ):
        layer = make_layer(c, o, k, pad, bias, skip)
        x = rng.normal(size=(n, c, h, w))
        g = rng.normal(size=(n, o, h + 2 * pad - k + 1, w + 2 * pad - k + 1))
        got = run_conv(layer, x, g)
        assert (got[1] is None) == skip
        assert_matches(got, reference(layer, x, g))


@given(
    k=st.integers(1, 4),
    pad=st.integers(0, 5),
    c=st.integers(1, 5),
    o=st.integers(1, 5),
    n=st.integers(1, 5),
    extra=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    bias=st.booleans(),
    skip=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(
    max_examples=80,
    deadline=None,
    # The pool fixture is per test on purpose: examples reuse each other's
    # workspaces whenever their keys collide.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_slab_conv_matches_reference_for_any_geometry(
    k, pad, c, o, n, extra, bias, skip, seed
):
    rng = np.random.default_rng(seed)
    h, w = (max(k - 2 * pad, 1) + e for e in extra)  # smallest legal size and up
    layer = make_layer(c, o, k, pad, bias, skip, seed=seed % 7)
    x = rng.normal(size=(n, c, h, w))
    g = rng.normal(size=(n, o, h + 2 * pad - k + 1, w + 2 * pad - k + 1))
    assert_matches(run_conv(layer, x, g), reference(layer, x, g))


@pytest.mark.parametrize("pad", [0, 2, 3])
def test_padding_beyond_the_kernel_crops_the_input_gradient(pad):
    """pad > k-1: the outermost output rows see padding only, so the dx
    plane takes the upstream gradient cropped, not zero-bordered."""
    rng = np.random.default_rng(pad)
    layer = make_layer(2, 3, 2, pad)
    x = rng.normal(size=(3, 2, 4, 6))
    g = rng.normal(size=(3, 3, 3 + 2 * pad, 5 + 2 * pad))
    assert_matches(run_conv(layer, x, g), reference(layer, x, g))


def test_float32_and_non_contiguous_operands():
    rng = np.random.default_rng(1)
    layer = make_layer(3, 4, 3, 1)
    big_x = rng.normal(size=(2, 3, 12, 14))
    big_g = rng.normal(size=(4, 2, 6, 7))
    x, g = big_x[:, :, ::2, ::2], big_g.transpose(1, 0, 2, 3)
    assert not x.flags["C_CONTIGUOUS"] and not g.flags["C_CONTIGUOUS"]
    assert_matches(run_conv(layer, x, g), reference(layer, x, g))
    x32, g32 = x.astype(np.float32), g.astype(np.float32)
    assert_matches(run_conv(layer, x32, g32), reference(layer, x32, g32))


def test_two_passes_and_a_ragged_eval_between_forward_and_backward():
    """The deployed model evaluates (another batch size, forward only)
    between a replica's forward and its backward; then the next step reuses
    the workspace the first one left free."""
    rng = np.random.default_rng(2)
    layer, deployed = make_layer(3, 5, 3, 1), make_layer(3, 5, 3, 1)
    for _ in range(2):
        x = rng.normal(size=(4, 3, 6, 5))
        g = rng.normal(size=(4, 5, 6, 5))
        ragged = rng.normal(size=(3, 3, 6, 5))
        ref = reference(layer, x, g)
        layer.zero_grad()
        out = layer.forward(x)
        ragged_out = np.array(deployed.forward(ragged))
        deployed.train()  # clears the forward-only saved slot
        np.testing.assert_allclose(out, ref[0], rtol=0, atol=1e-10)
        dx = layer.backward(g)
        assert_matches((None, dx, layer.weight.grad, layer.bias.grad), ref)
        assert_matches((ragged_out,), reference(deployed, ragged, g[:3]))
        del out, dx  # a kept output would keep its workspace lent
    assert len(kept_workspaces(_SlabWorkspace)) == 2
    assert len(kept_workspaces(_SlabGrad)) == 1


def test_a_biased_and_an_unbiased_layer_do_not_share_a_ones_channel():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 4, 5, 5))
    g = rng.normal(size=(2, 6, 5, 5))
    for bias in (True, False, True):
        layer = make_layer(4, 6, 3, 1, bias)
        assert_matches(run_conv(layer, x, g), reference(layer, x, g))


def test_tap_views_are_read_only_and_end_exactly_at_the_buffer():
    ws = _SlabWorkspace((4, 3, 6, 5), 2, 3, 1, True)
    gw = _SlabGrad((4, 3, 6, 5), 2, 3, 1, True)
    for buf, taps in ((ws.xp, ws.taps), (gw.gd, gw.taps_d)):
        assert not taps.flags.writeable
        start = taps.__array_interface__["data"][0]
        extent = sum((n - 1) * s for n, s in zip(taps.shape, taps.strides))
        assert start == buf.__array_interface__["data"][0]
        assert extent + taps.itemsize == buf.nbytes


# -- the dW operand of a same-padding layer is a window of its dx plane ------------


@pytest.mark.parametrize(
    "k, pad, skip, aliased",
    [
        (3, 1, False, True),  # SmallVGG's inner convs
        (3, 1, True, False),  # its stem: no dx plane to read
        (3, 0, False, False),
        (3, 2, False, False),
        (5, 2, False, True),
        (1, 0, False, True),
    ],
)
def test_same_padding_dw_operand_is_a_window_of_the_dx_plane(k, pad, skip, aliased):
    rng = np.random.default_rng(10 * k + pad)
    layer = make_layer(4, 6, k, pad, skip=skip)
    x = rng.normal(size=(5, 4, 6, 7))
    g = rng.normal(size=(5, 6, 6 + 2 * pad - k + 1, 7 + 2 * pad - k + 1))
    for _ in range(2):  # the second pass re-uses the planes the first one wrote
        assert_matches(run_conv(layer, x, g), reference(layer, x, g))
    (gw,) = kept_workspaces(_SlabGrad)
    assert (gw.g_int is None) == aliased == (not hasattr(gw, "gp"))
    assert np.shares_memory(gw.gq, gw.gd if aliased else gw.gp)


def n_aliased():
    """(gradient-plane workspaces, those whose dW operand reads the dx plane)."""
    grads = kept_workspaces(_SlabGrad)
    return len(grads), sum(gw.g_int is None for gw in grads)


class OwnPlaneGrad(_SlabGrad):
    """Every layer's dW operand in a plane of its own — the layout all
    layers had before same-padding ones read the dx plane."""

    def __init__(self, x_shape, o, k, pad, need_dx):
        super().__init__(x_shape, o, k, pad, need_dx)
        if self.g_int is None:
            n, _, h, w = x_shape
            oh, wp = h + 2 * pad - k + 1, w + 2 * pad
            self.gp = np.zeros((oh, o, n, wp))
            self.g_int = self.gp.transpose(2, 1, 0, 3)[..., : wp - k + 1]
            self.gq = self.gp.reshape(oh, o, -1)[:, :, : n * wp - k + 1]
            self.g_run = self.gp.reshape(-1)


@pytest.mark.parametrize("name", ["smallvgg", "smallalexnet", "smallresnet"])
def test_aliased_operand_gives_the_same_gradient_bytes(name, monkeypatch):
    """Same GEMM on the same values: dW and db do not move by a bit."""
    rng = np.random.default_rng(6)
    x, y = rng.normal(size=(8, 3, 16, 16)), rng.integers(0, 10, 8)
    aliased = model_step(name, x, y)
    n_slabs, n = n_aliased()
    assert n > 0
    monkeypatch.setattr(workspace, "POOL", workspace.WorkspacePool())
    monkeypatch.setattr(conv_module, "_SlabGrad", OwnPlaneGrad)
    own_plane = model_step(name, x, y)
    assert n_aliased() == (n_slabs, 0)
    for a, b in zip(aliased, own_plane):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


# -- no result depends on scratch the layer did not write ---------------------------


class NanEmptyNumpy:
    """``numpy`` as ``conv.py`` and the pool see it, with ``np.empty`` poisoned."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=np.float64):
        return np.full(shape, np.nan, dtype=dtype)


def model_step(name, x, y):
    """Loss, logits and flat gradient of one forward + backward."""
    model = build_model(name, rng=0)
    loss = CrossEntropyLoss()
    model.zero_grad()
    logits = np.array(model.forward(x))
    value = loss.forward(logits, y)
    model.backward(loss.backward())
    return value, logits, model.get_flat_grads(copy=True)


@pytest.mark.parametrize("name", ["smallvgg", "smallalexnet", "smallresnet"])
def test_uninitialised_scratch_never_reaches_a_result(name, monkeypatch):
    rng = np.random.default_rng(4)
    x, y = rng.normal(size=(8, 3, 16, 16)), rng.integers(0, 10, 8)
    clean = model_step(name, x, y)
    monkeypatch.setattr(workspace, "POOL", workspace.WorkspacePool())
    monkeypatch.setattr(conv_module, "np", NanEmptyNumpy())
    monkeypatch.setattr(workspace, "np", NanEmptyNumpy())  # dW rows, weights, dx
    assert np.isnan(conv_module.np.empty(3)).all()
    assert np.isnan(workspace.buffer((2, 3))).all()
    poisoned = model_step(name, x, y)
    for a, b in zip(clean, poisoned):
        assert np.isfinite(b).all()
        np.testing.assert_array_equal(a, b)


def test_planes_carry_nothing_across_steps_beyond_what_their_key_fixes():
    """Zero borders, the ones channel, the gradient planes' garbage columns
    and the accumulators' tail columns are written once, at construction."""
    rng = np.random.default_rng(5)
    model, loss = build_model("smallvgg", rng=0), CrossEntropyLoss()
    for _ in range(3):
        x, y = rng.normal(size=(8, 3, 16, 16)), rng.integers(0, 10, 8)
        loss.forward(model.forward(x), y)
        model.backward(loss.backward())
    slabs, grads = kept_workspaces(_SlabWorkspace), kept_workspaces(_SlabGrad)
    assert len(slabs) == len(grads) == 4
    assert sorted(gw.g_int is None for gw in grads) == [False, True, True, True]
    for ws in slabs:
        c = ws.x_int.shape[1]
        ws.x_int[...] = 0.0
        assert not ws.xp[:, :c].any() and (ws.xp[:, c:] == 1.0).all()
        rows, chans = ws.acc.shape[:2]
        assert not ws.acc.reshape(rows, chans, -1)[:, :, ws.taps.shape[3] :].any()
    for gw in grads:
        if gw.g_int is None:
            # Same padding with dx: the dW operand is a window of gd, so its
            # garbage columns are gd's border.
            assert np.shares_memory(gw.gq, gw.gd) and not hasattr(gw, "gp")
        else:
            gw.g_int[...] = 0.0
            assert not gw.gp.any()
        if hasattr(gw, "gd"):
            gw.gd_int[...] = 0.0
            assert not gw.gd.any()
    # Three accumulator shapes (four forward, three dx), each a dx
    # accumulator and the partial products beside it.
    assert len(slab_scratch()) == 6
    assert_scratch_tails_are_zero()


def test_equal_accumulator_shapes_of_different_kernels_keep_their_own_scratch(
    monkeypatch,
):
    """k=3 / pad 0 on 18x16 and k=5 / pad 1 on 18x14 have equal forward and
    dx accumulator shapes, but their GEMMs write different column spans.
    Alternated, each stays bitwise what a fresh layer in a fresh pool gives,
    and no scratch buffer's tail picks up the other's products."""
    rng = np.random.default_rng(8)
    cases = []
    for k, pad, h, w in ((3, 0, 18, 16), (5, 1, 18, 14)):
        x = rng.normal(size=(4, 3, h, w))
        g = rng.normal(size=(4, 5, h + 2 * pad - k + 1, w + 2 * pad - k + 1))
        cases.append((k, pad, x, g))
    fresh = []
    for k, pad, x, g in cases:
        monkeypatch.setattr(workspace, "POOL", workspace.WorkspacePool())
        fresh.append(run_conv(make_layer(3, 5, k, pad), x, g))
    monkeypatch.setattr(workspace, "POOL", workspace.WorkspacePool())
    layers = [make_layer(3, 5, k, pad) for k, pad, _, _ in cases]
    for _ in range(3):
        for layer, (_, _, x, g), want in zip(layers, cases, fresh):
            for got, ref in zip(run_conv(layer, x, g), want):
                assert got.tobytes() == ref.tobytes()
    scratch = slab_scratch()
    # Per k: the forward's partial products, and the dx accumulator with its own.
    assert sorted(k for k, _, _ in scratch) == [3, 3, 3, 5, 5, 5]
    assert len({shape for _, shape, _ in scratch}) == 2
    assert_scratch_tails_are_zero()


# -- determinism legs on a conv model ------------------------------------------------

METHODS = [
    MethodSpec("bsp", {}),
    MethodSpec("selsync", {"delta": 0.1, "aggregation": "params"}),
]


def vgg_run(spec, tmp_path, tag, executor="serial", **run_kw):
    built = get_workload("vgg_cifar100").build(
        n_workers=4, n_steps=12, data_scale=0.05, batch_size=8,
        cluster_kwargs={"executor": executor},
    )
    res = run_method(spec, built, n_steps=12, eval_every=6, **run_kw)
    path = tmp_path / f"{tag}.jsonl"
    save_runlog(res.log, path)
    return path.read_bytes(), [w.get_params(copy=True) for w in built.workers]


def assert_same_run(a, b):
    assert a[0] == b[0], "RunLog JSONL differs"
    for u, v in zip(a[1], b[1]):
        assert u.tobytes() == v.tobytes()


@pytest.mark.parametrize("spec", METHODS, ids=lambda s: s.kind)
def test_smallvgg_serial_and_process_runs_are_byte_identical(spec, tmp_path):
    serial = vgg_run(spec, tmp_path, "serial")
    assert_same_run(serial, vgg_run(spec, tmp_path, "process", executor="process"))


@pytest.mark.parametrize("spec", METHODS, ids=lambda s: s.kind)
def test_smallvgg_kill_and_resume_is_bitwise_identical(spec, tmp_path):
    ck = str(tmp_path / "ck.npz")
    full = vgg_run(spec, tmp_path, "full")
    vgg_run(
        spec, tmp_path, "killed", checkpoint_every=6, checkpoint_path=ck, stop_after=6
    )
    assert_same_run(full, vgg_run(spec, tmp_path, "resumed", resume_from=ck))
