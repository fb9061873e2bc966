"""2-D convolution: one row-slab kernel for stride 1, im2col for stride > 1.

Stride-1 convolutions (every conv in SmallVGG and SmallAlexNet, all
non-downsampling convs in SmallResNet) never build the k²-times-duplicated
im2col patch matrix. The input is written once into a zero-padded plane laid
out row-major across the batch — ``xp[r, c, n, q]``: image row outermost,
then channel, then sample, then column — and read as the 2-D matrix
``X = xp.reshape(Hp·Cb, Q)``, ``Q = N·Wp``, where ``Cb`` is C plus, for a
layer with a bias, one constant-ones channel. In ``X`` the k image rows under
output row ``y`` are the *adjacent* rows ``y·Cb … (y+k)·Cb - 1``, so one
kernel column ``j`` of the whole layer is one batched GEMM::

    out[n, o, y, x] = Σ_j Σ_{i,c} W[o, c, i, j] · xp[y+i, c, n, x+j]
    acc[y]          = Σ_j w[j] @ taps[j, y]            (O, K) @ (K, Q-k+1)
    w[j][o, i·Cb + c]              = W[o, c, i, j]      K = k·Cb
    taps[j, y][i·Cb + c, n·Wp + x] = X[(y+i)·Cb + c, n·Wp + x + j]

— k GEMM calls with K = k·Cb and k-1 accumulator adds per convolution, where
one GEMM per tap (i, j) makes k² calls with K = C and k²-1 adds, and each
output row's B operand is a ``(K, Q)`` slab that stays cache-resident.
``taps`` is an ``as_strided`` *view* of the plane, shape ``(k, OH, K, Q-k+1)``
and strides ``(1, Cb·Q, Q, 1)`` elements, so widening K copies nothing.

The view's bound: tap ``[j, y]`` ends at row ``(y+k)·Cb - 1 <= Hp·Cb - 1``
of ``X`` (``OH = Hp-k+1``) and at column ``j + Q-k <= Q-1`` — its last
element is the buffer's last element. A plane element appears in up to k²
tap entries, so the view is read-only and the plane is written through its
own buffer alone (the interior copy in ``forward``): a write through the
view would land in k² logical places at once.

Columns run across sample boundaries: column ``n·Wp + x`` with ``x >= OW``
reads on into the next sample's left padding. Those k-1 products per row
are garbage that the output view never reads — ``acc`` is ``(OH, O, N, Wp)``
and is handed on as an ``(N, O, OH, OW)`` strided view, without a packing
copy. The bias is the ones channel's weight at tap (0, 0).

Backward is the same shape of work. ``dW[j] = Σ_y gq[y] @ taps[j, y]ᵀ``, the
upstream gradient embedded in a plane of the output's layout whose garbage
columns stay zero (so the ones channel's entry is the bias gradient); ``dx``
is the forward kernel again, over the gradient inside a zero border of
``b = k-1-pad`` (cropped by ``-b`` where ``pad > k-1``), with the weights
flipped and their channel axes swapped. With same padding (``b == pad``) the
two planes are one: the dx plane ``gd`` is ``(H+k-1, O, N, Wp)`` with the
gradient at rows and columns ``pad…``, so ``gq = gd.reshape(H+k-1, O, Q)
[pad:pad+OH, :, pad:pad+Q-k+1]`` is the output-layout plane. Its garbage
columns ``x >= OW`` are ``gd``'s columns ``x+pad``: the right border while
``x+pad < Wp``, else the next sample's left border (``< pad``) — zero either
way, so no second plane is kept or copied into.

With ``fuse_relu`` set (a model sets it where a ReLU alone reads the output)
``acc`` is clipped at zero after the GEMMs, and backward multiplies ``gq`` by
``acc > 0`` before the dW and dx GEMMs read it — the ReLU module's arithmetic
— in one flat pass from ``gq``'s first element, whose columns besides
``gq``'s are zero border that stays zero, like ``gq``'s garbage columns.

All large intermediates are lent by the per-process pool (``nn.workspace``):
the input plane, weights and accumulator in a workspace ``forward`` saves
for its backward; the gradient planes in one ``backward`` borrows; the
``dW`` products, flipped weights, ``dx`` accumulator and the GEMMs' partial
products as buffers of their own. So the steady-state hot loop performs no
large allocations and every replica of a cluster works in the same buffers.

Strided convolutions go through im2col/col2im; their patch matrix is a
pooled buffer too.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.nn import init, workspace
from repro.nn.functional import col2im, conv_out_size, im2col
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.utils.rng import RngLike, as_rng


def _slab(rows: int, chans: int, n: int, cols: int, k: int):
    """A zeroed ``(rows, chans, n, cols)`` slab plane and its tap view.

    ``taps[j, y]`` is the ``(k·chans, Q-k+1)`` matrix of the k image rows
    under output row ``y``, shifted ``j`` columns (module docstring). The
    largest offset the view reaches is ``(k-1) + (rows-k)·chans·Q +
    (k·chans-1)·Q + (Q-k) = rows·chans·Q - 1``: exactly the buffer's last
    element. Read-only, because its entries overlap k²-fold.
    """
    buf = np.zeros((rows, chans, n, cols))
    s_row, s_chan, _, s_col = buf.strides
    taps = as_strided(
        buf,
        shape=(k, rows - k + 1, k * chans, n * cols - k + 1),
        strides=(s_col, s_row, s_chan, s_col),
        writeable=False,
    )
    return buf, taps


def _nchw(buf: np.ndarray) -> np.ndarray:
    """A ``(rows, chans, N, cols)`` slab buffer as ``(N, chans, rows, cols)``:
    the axis order the neighbouring layers read and write."""
    return buf.transpose(2, 1, 0, 3)


def _accumulator(k: int, rows: int, chans: int, n: int, cols: int) -> np.ndarray:
    """A zeroed ``(rows, chans, n, cols)`` accumulator lent by the pool. Its
    writers fill columns [0, Q-k+1) of each (chans, Q) row block and add over
    whole buffers, so its k-1 tail columns stay zero; another k writes another
    span, so k is in the key."""
    shape = (rows, chans, n, cols)
    return workspace.POOL.lend(("slabacc", k), (n, rows, chans, cols), lambda: np.zeros(shape))


def _slab_conv(w: np.ndarray, taps: np.ndarray, acc: np.ndarray):
    """``acc[y] = Σ_j w[j] @ taps[j, y]``: a whole stride-1 convolution as k
    batched GEMM calls with K = k·chans and k-1 accumulator adds, the partial
    products in an accumulator of ``acc``'s shape."""
    k, (rows, out_chans, n, cols), span = len(taps), acc.shape, taps.shape[3]
    tmp = _accumulator(k, *acc.shape)
    acc_l, tmp_l = (b.reshape(rows, out_chans, -1)[:, :, :span] for b in (acc, tmp))
    np.matmul(w[0], taps[0], out=acc_l)
    for wj, tap in zip(w[1:], taps[1:]):
        np.matmul(wj, tap, out=tmp_l)
        acc += tmp


class _SlabWorkspace:
    """The row-slab forward's buffers, tied to one input shape: what its
    backward reads (the input plane's taps, and the accumulator under a
    fused ReLU)."""

    def __init__(self, x_shape, out_channels, k, pad, bias):
        n, c, h, w = x_shape
        o = out_channels
        # conv_out_size validates that the kernel fits (raises otherwise).
        oh, ow = conv_out_size(h, k, 1, pad), conv_out_size(w, k, 1, pad)
        wp = w + 2 * pad
        # The bias is the weight of one constant-ones channel below the c
        # real ones, non-zero at tap (0, 0) only.
        cb = c + bias
        self.xp, self.taps = _slab(h + 2 * pad, cb, n, wp, k)
        self.xp[:, c:] = 1.0
        self.x_int = _nchw(self.xp)[:, :c, pad : pad + h, pad : pad + w]
        self.w = np.zeros((k, o, k, cb))
        # Zeroed, not empty: the GEMMs write columns [0, Q-k+1) of every
        # (o, Q) row block while the adds run over whole buffers, so the
        # k-1 tail columns must hold something finite — they stay zero.
        self.acc = np.zeros((oh, o, n, wp))
        self.out_view = _nchw(self.acc)[..., :ow]


class _SlabGrad:
    """The row-slab backward's gradient planes, tied to one input shape."""

    def __init__(self, x_shape, out_channels, k, pad, need_dx):
        n, c, h, w = x_shape
        o = out_channels
        oh, ow = conv_out_size(h, k, 1, pad), conv_out_size(w, k, 1, pad)
        wp = w + 2 * pad
        b = k - 1 - pad
        if need_dx:
            # dx is the same kernel over the gradient inside a zero border
            # of b (cropped instead where b < 0), with the weights flipped
            # and their channel axes swapped.
            lo, cut = max(b, 0), max(-b, 0)
            self.gd, self.taps_d = _slab(h + k - 1, o, n, w + k - 1, k)
            self.gd_int = _nchw(self.gd)[
                :, :, lo : lo + oh - 2 * cut, lo : lo + ow - 2 * cut
            ]
            self.crop = (..., slice(cut, oh - cut), slice(cut, ow - cut))
        if need_dx and b == pad:
            # Same padding: the dW operand is a window of the dx plane, pad
            # rows down and pad columns along (module docstring).
            self.g_int, plane, lo = None, self.gd, pad
        else:
            # dW operand: the upstream gradient in the output's own layout;
            # its garbage columns are zeroed here and never written.
            self.gp = plane = np.zeros((oh, o, n, wp))
            self.g_int, lo = _nchw(plane)[..., :ow], 0
        self.gq = plane.reshape(len(plane), o, -1)[lo : lo + oh, :, lo : lo + n * wp - k + 1]
        # gq as one flat run the accumulator's size: element i lines up with
        # the accumulator's, and the run's extra columns are the plane's zero
        # border.
        size = oh * o * n * wp
        start = lo * (size // oh) + lo
        self.g_run = plane.reshape(-1)[start : start + size]


class Conv2d(Module):
    """NCHW convolution.

    Parameters follow the usual convention: ``weight`` is
    ``(out_channels, in_channels, kh, kw)``. Stride-1 instances run the
    row-slab kernel described in the module docstring; strided instances
    unfold with :func:`im2col` into a pooled patch buffer and perform a
    single matrix multiply, keeping the hot loop inside BLAS either way.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: RngLike = None,
    ):
        super().__init__()
        rng = as_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_normal(
                (out_channels, in_channels, kernel_size, kernel_size), rng=rng
            ),
            "weight",
        )
        self.bias = (
            Parameter(init.zeros(out_channels), "bias") if bias else None
        )
        # Models set this on their input layer: the gradient w.r.t. the data
        # is never consumed there, so backward can skip the dx GEMMs.
        self.skip_input_grad = False
        # Set where a ReLU alone reads the output: it runs in the accumulator.
        self.fuse_relu = False

    # -- row-slab path (stride == 1) ----------------------------------------
    def _forward_slab(self, x: np.ndarray) -> np.ndarray:
        o, c = self.out_channels, self.in_channels
        k, pad, bias = self.kernel_size, self.padding, self.bias is not None
        ws = workspace.POOL.lend(
            ("slab", o, k, pad, bias), x.shape,
            lambda: _SlabWorkspace(x.shape, o, k, pad, bias),
        )
        np.copyto(ws.x_int, x)
        # w[j, o, i, c] = W[o, c, i, j]; the ones channel's weight is the
        # bias at tap (0, 0) and stays zero at every other tap.
        ws.w[..., :c] = self.weight.data.transpose(3, 0, 2, 1)
        if bias:
            ws.w[0, :, 0, c] = self.bias.data
        _slab_conv(ws.w.reshape(k, o, -1), ws.taps, ws.acc)
        if self.fuse_relu:
            np.maximum(ws.acc, 0.0, out=ws.acc)
        self._save(ws)
        # Strided window into the accumulator — consumers read it without a
        # packing copy.
        return ws.out_view

    def _backward_slab(self, grad_out: np.ndarray) -> np.ndarray:
        o, c, k = self.out_channels, self.in_channels, self.kernel_size
        (ws,) = self._take()
        x_shape, need_dx = ws.x_int.shape, not self.skip_input_grad
        gw = workspace.POOL.lend(
            ("slabgrad", o, k, self.padding, need_dx), x_shape,
            lambda: _SlabGrad(x_shape, o, k, self.padding, need_dx),
        )
        # Into gq's plane: the dx plane where g_int is None (same padding).
        (gw.gd_int if gw.g_int is None else gw.g_int)[...] = grad_out
        if self.fuse_relu:
            np.multiply(gw.g_run, ws.acc.reshape(-1) > 0.0, out=gw.g_run)
        if gw.g_int is not None and need_dx:
            gw.gd_int[...] = gw.g_int[gw.crop]
        # dW[j] = Σ_y gq[y] @ taps[j, y]ᵀ: the GEMM's column dimension spans
        # the batch, so the sample sum happens inside the product and only
        # the output rows are left to add up. The ones channel's entry at
        # tap (0, 0) is gq's total per output channel — the bias gradient
        # (gq's garbage columns are zero, so nothing but grad_out is in it).
        dw_rows = workspace.buffer((k, *gw.gq.shape[:2], ws.taps.shape[2]))
        np.matmul(gw.gq, ws.taps.transpose(0, 1, 3, 2), out=dw_rows)
        dw = dw_rows.sum(axis=1).reshape(k, o, k, -1)
        self.weight.accumulate_grad(dw[..., :c].transpose(1, 3, 2, 0))
        if self.bias is not None:
            self.bias.accumulate_grad(dw[0, :, 0, c])
        if not need_dx:
            return None
        wd = workspace.buffer((k, c, k, o))
        wd[...] = self.weight.data[:, :, ::-1, ::-1].transpose(3, 1, 2, 0)
        n, _, h, w = x_shape
        acc_d = _accumulator(k, h, c, n, w + k - 1)
        _slab_conv(wd.reshape(k, c, -1), gw.taps_d, acc_d)
        return _nchw(acc_d)[..., :w]

    # -- im2col fallback (stride > 1) --------------------------------------
    def _forward_im2col(self, x: np.ndarray) -> np.ndarray:
        if self.fuse_relu:
            raise ValueError("Conv2d.fuse_relu needs stride 1 (the row-slab path)")
        n = x.shape[0]
        k = self.kernel_size
        oh = conv_out_size(x.shape[2], k, self.stride, self.padding)
        ow = conv_out_size(x.shape[3], k, self.stride, self.padding)
        cols = workspace.buffer((n * oh * ow, self.in_channels * k * k))
        im2col(x, k, k, self.stride, self.padding, out=cols)
        self._save(cols, x.shape)
        w2 = self.weight.data.reshape(self.out_channels, -1)
        out = cols @ w2.T  # (N*OH*OW, out_channels)
        if self.bias is not None:
            out = out + self.bias.data
        return out.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)

    def _backward_im2col(self, grad_out: np.ndarray) -> np.ndarray:
        cols, x_shape = self._take()
        n, _, oh, ow = grad_out.shape
        k = self.kernel_size
        g2 = grad_out.transpose(0, 2, 3, 1).reshape(n * oh * ow, self.out_channels)
        self.weight.accumulate_grad(
            (g2.T @ cols).reshape(self.weight.data.shape)
        )
        if self.bias is not None:
            self.bias.accumulate_grad(g2.sum(axis=0))
        if self.skip_input_grad:
            return None
        w2 = self.weight.data.reshape(self.out_channels, -1)
        dcols = g2 @ w2
        return col2im(dcols, x_shape, k, k, self.stride, self.padding)

    # -- public interface ---------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        self._saved = None
        if self.stride == 1:
            return self._forward_slab(x)
        return self._forward_im2col(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self.stride == 1:
            return self._backward_slab(grad_out)
        return self._backward_im2col(grad_out)
