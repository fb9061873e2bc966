"""2-D convolution: shift-GEMM fast path with an im2col fallback.

Stride-1 convolutions (every conv in SmallVGG and all non-downsampling convs
in SmallResNet) avoid materializing the k²-times-duplicated im2col patch
matrix entirely. The input is written once into a zero-padded plane buffer
and each kernel tap (i, j) becomes one batched GEMM against a *view* of that
plane shifted by ``i*Wp + j`` flat elements::

    out[:, o, y, x] = Σ_{i,j,c} W[o, c, i, j] · xp[:, c, y+i, x+j]
                    = Σ_{i,j}  (W[:, :, i, j] @ xp_flat[:, :, off:off+span])

The accumulator rows have width ``Wp`` (padded plane), so the valid (OH, OW)
output is a strided view into it; the few garbage columns between rows are
computed and discarded. The backward pass runs the same taps in reverse —
the upstream gradient is embedded into a plane whose inter-row garbage stays
zero, so scatter (col2im) disappears as well.

All large intermediates (padded input plane, accumulators, gradient plane)
live in a workspace checked out of the per-process pool (``nn.workspace``)
in ``forward`` and returned when ``backward`` completes, so the steady-state
hot loop performs no large allocations and every replica of a cluster works
in the same buffers.

Strided convolutions fall back to im2col/col2im; their patch matrix is a
pooled workspace too.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.nn import init
from repro.nn.functional import col2im, conv_out_size, im2col
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.utils.rng import RngLike, as_rng


class _ShiftWorkspace:
    """Pooled buffers for the shift-GEMM path, tied to one input shape.

    Planes are stored channel-major — ``xf`` is ``(C, N*P)`` with ``P`` the
    padded plane size — so every kernel tap is a *single* ``(O, C) @ (C, L)``
    GEMM spanning the whole batch, instead of N small batched GEMMs. The
    shifted slice for a tap runs off the end of each sample's plane into the
    next sample's zero top-padding; those products land in garbage output
    columns that the strided output view never reads. ``off + span <= P``
    holds exactly (the largest shift ends at the plane boundary), so no tap
    reads past the final sample.
    """

    def __init__(self, x_shape, out_channels, kernel_size, pad, stem=False):
        n, c, h, w = x_shape
        k = kernel_size
        self.stem = stem
        self.c = c
        self.n = n
        self.hp, self.wp = h + 2 * pad, w + 2 * pad
        # conv_out_size validates that the kernel fits (raises otherwise).
        self.oh = conv_out_size(h, k, 1, pad)
        self.ow = conv_out_size(w, k, 1, pad)
        self.plane = self.hp * self.wp
        self.span = (self.oh - 1) * self.wp + self.ow
        # GEMM column count: the last sample's valid span plus all earlier
        # samples' full planes.
        self.length = (n - 1) * self.plane + self.span
        # Plane rows, plus one constant-ones row at the bottom that folds
        # the bias add into the first GEMM (its weight column is the bias).
        # The stem layout additionally unrolls the k column-taps into k
        # pre-shifted row blocks, so one GEMM covers a whole kernel row.
        rows = k * c if stem else c
        self.xf = np.zeros((rows + 1, n * self.plane))
        self.xf[rows] = 1.0
        self.gf = np.zeros((out_channels, self.length))
        self.acc = np.empty((out_channels, self.length))
        self.tmp_out = np.empty((out_channels, self.length))
        self.w0 = np.empty((out_channels, rows + 1))
        # Zero-initialized planes: the padding border of ``xf`` and the
        # garbage columns of the gradient plane are written once above and
        # never again — each step only overwrites the valid interior.
        self.x_int = self.xf[:c].reshape(c, n, self.hp, self.wp)[
            :, :, pad : pad + h, pad : pad + w
        ]
        self.out_view = self.plane_view(self.acc)
        self.gv = self.plane_view(self.gf)
        if stem:
            # Row-grouped weights [i][o, j*c + cc] = W[o, cc, i, j] and the
            # matching (k, O, k*c) weight-gradient accumulator.
            self.wr = np.empty((k, out_channels, k * c))
            self.dwr = np.empty((k, out_channels, k * c))
        else:
            self.dxf = np.empty((c, n * self.plane))
            self.tmp_dx = np.empty((c, self.length))
            self.dw = np.empty((out_channels, c, k, k))
            self.dx_view = self.dxf.reshape(c, n, self.hp, self.wp)[
                :, :, pad : pad + h, pad : pad + w
            ].transpose(1, 0, 2, 3)

    def plane_view(self, flat: np.ndarray):
        """(N, C, OH, OW) strided window into a channel-major plane buffer."""
        channels = flat.shape[0]
        sc, se = flat.strides
        return as_strided(
            flat,
            shape=(self.n, channels, self.oh, self.ow),
            strides=(self.plane * se, sc, self.wp * se, se),
        )


class Conv2d(Module):
    """NCHW convolution.

    Parameters follow the usual convention: ``weight`` is
    ``(out_channels, in_channels, kh, kw)``. Stride-1 instances run the
    shift-GEMM kernel described in the module docstring; strided instances
    unfold with :func:`im2col` into a reusable patch workspace and perform a
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

    # -- shift-GEMM path (stride == 1) -------------------------------------
    def _forward_shift(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        # Input layers with few channels get the row-grouped layout: the k
        # column-taps are pre-shifted into adjacent row blocks so a whole
        # kernel row is one GEMM with a k-times-wider inner dimension — the
        # (O, C) @ (C, L) taps are too skinny for BLAS when C is tiny. Only
        # worthwhile when dx is skipped; the grouped dx scatter costs more
        # than it saves.
        stem = self.skip_input_grad and self.in_channels <= 4
        o, pad = self.out_channels, self.padding
        ws = self._checkout(
            ("shift", o, k, pad, stem), x.shape,
            lambda: _ShiftWorkspace(x.shape, o, k, pad, stem=stem),
        )
        np.copyto(ws.x_int, x.transpose(1, 0, 2, 3))
        W = self.weight.data
        L = ws.length
        xf = ws.xf
        if stem:
            c = ws.c
            rows = k * c
            cols = xf.shape[1]
            for j in range(1, k):
                xf[j * c : (j + 1) * c, : cols - j] = xf[:c, j:]
            wr4 = ws.wr.reshape(k, self.out_channels, k, c)
            wr4[...] = W.transpose(2, 0, 3, 1)
            if self.bias is not None:
                ws.w0[:, :rows] = ws.wr[0]
                ws.w0[:, rows] = self.bias.data
                np.matmul(ws.w0, xf[:, :L], out=ws.acc)
            else:
                np.matmul(ws.wr[0], xf[:rows, :L], out=ws.acc)
            for i in range(1, k):
                off = i * ws.wp
                np.matmul(ws.wr[i], xf[:rows, off : off + L], out=ws.tmp_out)
                ws.acc += ws.tmp_out
            return ws.out_view
        c = ws.c
        if self.bias is not None:
            # Tap (0, 0) runs over the ones row as an extra input channel
            # whose weight column is the bias — the bias add is free.
            ws.w0[:, :c] = W[:, :, 0, 0]
            ws.w0[:, c] = self.bias.data
            np.matmul(ws.w0, xf[:, :L], out=ws.acc)
        else:
            np.matmul(W[:, :, 0, 0], xf[:c, :L], out=ws.acc)
        for i in range(k):
            for j in range(k):
                if i == 0 and j == 0:
                    continue
                off = i * ws.wp + j
                np.matmul(W[:, :, i, j], xf[:c, off : off + L], out=ws.tmp_out)
                ws.acc += ws.tmp_out
        # Strided window into the accumulator — consumers read it without a
        # packing copy. Valid until this layer's backward returns the
        # workspace, which is after every consumer of this step has read it.
        return ws.out_view

    def _backward_shift(self, grad_out: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        ws = self._workspace()
        ws.gv[...] = grad_out
        W = self.weight.data
        L = ws.length
        if ws.stem:
            c = ws.c
            rows = k * c
            # Row 0 runs over the ones row too (reusing ``w0`` as output):
            # its last column is gf's row sums — the bias gradient — so the
            # separate reduction over gf disappears.
            np.matmul(ws.gf, ws.xf[:, :L].T, out=ws.w0)
            ws.dwr[0] = ws.w0[:, :rows]
            for i in range(1, k):
                off = i * ws.wp
                np.matmul(ws.gf, ws.xf[:rows, off : off + L].T, out=ws.dwr[i])
            self.weight.accumulate_grad(
                ws.dwr.reshape(k, self.out_channels, k, c).transpose(1, 3, 0, 2)
            )
            if self.bias is not None:
                self.bias.accumulate_grad(ws.w0[:, rows])
            self._release()
            return None
        need_dx = not self.skip_input_grad
        if need_dx:
            # Only the tail [length, n*plane) needs zeroing: the first tap
            # (off == 0) overwrites [0, length) directly below.
            ws.dxf[:, ws.length :].fill(0.0)
        first = True
        for i in range(k):
            for j in range(k):
                off = i * ws.wp + j
                # One GEMM per tap; the column dimension spans the batch, so
                # dW's sample sum happens inside the product. Tap (0, 0)
                # additionally spans the ones row (output into ``w0``),
                # whose column is gf's row sums — the bias gradient. The
                # garbage columns of gf are zero, so those sums equal
                # grad_out.sum(axis=(0, 2, 3)) exactly.
                if i == 0 and j == 0:
                    np.matmul(ws.gf, ws.xf[:, :L].T, out=ws.w0)
                    ws.dw[:, :, 0, 0] = ws.w0[:, : ws.c]
                else:
                    xv = ws.xf[: ws.c, off : off + L]
                    np.matmul(ws.gf, xv.T, out=ws.dw[:, :, i, j])
                if not need_dx:
                    continue
                np.matmul(W[:, :, i, j].T, ws.gf, out=ws.tmp_dx)
                if first:
                    np.copyto(ws.dxf[:, :L], ws.tmp_dx)
                    first = False
                else:
                    ws.dxf[:, off : off + L] += ws.tmp_dx
        self.weight.accumulate_grad(ws.dw)
        if self.bias is not None:
            self.bias.accumulate_grad(ws.w0[:, ws.c])
        self._release()
        if not need_dx:
            return None
        # View into the returned workspace: valid until the next forward
        # checks it out, which is always after the caller has consumed it.
        return ws.dx_view

    # -- im2col fallback (stride > 1) --------------------------------------
    def _forward_im2col(self, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        k = self.kernel_size
        oh = conv_out_size(x.shape[2], k, self.stride, self.padding)
        ow = conv_out_size(x.shape[3], k, self.stride, self.padding)
        shape = (n * oh * ow, self.in_channels * k * k)
        (cols,) = self._checkout(
            ("cols", k, self.stride, self.padding), x.shape,
            lambda: (np.empty(shape),),
        )
        im2col(x, k, k, self.stride, self.padding, out=cols)
        w2 = self.weight.data.reshape(self.out_channels, -1)
        out = cols @ w2.T  # (N*OH*OW, out_channels)
        if self.bias is not None:
            out = out + self.bias.data
        return out.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)

    def _backward_im2col(self, grad_out: np.ndarray) -> np.ndarray:
        (cols,) = self._workspace()
        x_shape = self._held[1]
        n, _, oh, ow = grad_out.shape
        k = self.kernel_size
        g2 = grad_out.transpose(0, 2, 3, 1).reshape(n * oh * ow, self.out_channels)
        self.weight.accumulate_grad(
            (g2.T @ cols).reshape(self.weight.data.shape)
        )
        if self.bias is not None:
            self.bias.accumulate_grad(g2.sum(axis=0))
        self._release()
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
        if self.stride == 1:
            return self._forward_shift(x)
        return self._forward_im2col(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self.stride == 1:
            return self._backward_shift(grad_out)
        return self._backward_im2col(grad_out)
