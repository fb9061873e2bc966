"""Spatial pooling layers over NCHW activations."""

from __future__ import annotations

import numpy as np

from repro.nn.functional import col2im, im2col
from repro.nn.module import Module


class _PoolWorkspace:
    """Reusable buffers for the non-overlapping MaxPool fast path."""

    __slots__ = ("x_shape", "oh", "ow", "windows", "win6", "arg", "out",
                 "base", "wbase", "scratch", "dx", "m01", "m23",
                 "t01", "t23", "sel")

    def __init__(self, x_shape, k):
        n, c, h, w = x_shape
        self.x_shape = x_shape
        self.oh, self.ow = h // k, w // k
        quarter = (n, c, self.oh, self.ow)
        self.out = np.empty(quarter)
        if k == 2:
            # 2x2 windows skip the patch copy and argmax entirely: the max
            # is three elementwise maxima over strided views of the input,
            # and the winner index falls out of three comparisons.
            self.windows = self.win6 = self.arg = self.wbase = None
            self.m01 = np.empty(quarter)
            self.m23 = np.empty(quarter)
            self.t01 = np.empty(quarter, dtype=bool)
            self.t23 = np.empty(quarter, dtype=bool)
            self.sel = np.empty(quarter, dtype=bool)
        else:
            # ``windows`` and ``win6`` share memory: one is the
            # (k*k)-flattened view of the other.
            self.windows = np.empty((*quarter, k * k))
            self.win6 = self.windows.reshape(*quarter, k, k)
            self.arg = np.empty(quarter, dtype=np.intp)
            # Start of each window's row in flat ``windows`` — the forward
            # gather runs on the contiguous windows copy, so the input
            # itself is never flattened (it may be a strided view into a
            # conv workspace).
            self.wbase = np.arange(n * c * self.oh * self.ow, dtype=np.intp)
            self.wbase *= k * k
            self.m01 = self.m23 = self.t01 = self.t23 = self.sel = None
        # Flat index of each window's top-left corner in the input array;
        # backward scatters straight into ``dx`` through these (the window
        # interiors are disjoint, so no index appears twice).
        grid = (
            (np.arange(n)[:, None, None, None] * c
             + np.arange(c)[None, :, None, None]) * h
            + np.arange(self.oh)[None, None, :, None] * k
        ) * w + np.arange(self.ow)[None, None, None, :] * k
        self.base = np.ascontiguousarray(grid, dtype=np.intp)
        self.scratch = np.empty((2, n, c, self.oh, self.ow), dtype=np.intp)
        self.dx = np.empty(x_shape)


class MaxPool2d(Module):
    """Max pooling with square kernel; stride defaults to kernel size."""

    def __init__(self, kernel_size: int, stride: int = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = kernel_size if stride is None else stride
        self._cache = None
        self._ws = None

    def _fast_ws(self, x_shape) -> _PoolWorkspace:
        ws = self._ws
        if ws is None or ws.x_shape != x_shape:
            ws = _PoolWorkspace(x_shape, self.kernel_size)
            self._ws = ws
        return ws

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        if s == k and h % k == 0 and w % k == 0:
            # Non-overlapping pooling (the common s == k case): a reshape
            # groups each window's taps on the last axis — no im2col patch
            # matrix, no col2im scatter in backward. Tap order within a
            # window is (i*k + j), identical to the im2col column order, so
            # tie-breaking (first max wins) matches the general path.
            ws = self._fast_ws(x.shape)
            oh, ow = ws.oh, ws.ow
            row, idx = ws.scratch
            v = x.reshape(n, c, oh, k, ow, k)
            if k == 2:
                # Views of the four window taps — no patch copy. The winner
                # index comes from strict comparisons, so tie-breaking
                # (first tap wins) matches argmax on the general path.
                a, b = v[:, :, :, 0, :, 0], v[:, :, :, 0, :, 1]
                cc, d = v[:, :, :, 1, :, 0], v[:, :, :, 1, :, 1]
                np.greater(b, a, out=ws.t01)
                np.greater(d, cc, out=ws.t23)
                np.maximum(a, b, out=ws.m01)
                np.maximum(cc, d, out=ws.m23)
                np.greater(ws.m23, ws.m01, out=ws.sel)
                np.maximum(ws.m01, ws.m23, out=ws.out)
                # arg (window-order 0..3) assembled into ``idx``.
                np.add(ws.t23, 2, out=row, casting="unsafe")
                np.copyto(idx, ws.t01, casting="unsafe")
                np.copyto(idx, row, where=ws.sel)
            else:
                np.copyto(
                    ws.win6,
                    v.transpose(0, 1, 2, 4, 3, 5),
                )
                ws.windows.argmax(axis=-1, out=ws.arg)
                # Gather the maxima from the contiguous windows copy (``x``
                # may be a non-contiguous conv-workspace view).
                rf = row.reshape(-1)
                np.add(ws.arg.reshape(-1), ws.wbase, out=rf)
                ws.out.reshape(-1)[...] = ws.windows.reshape(-1)[rf]
                np.copyto(idx, ws.arg)
            # Decode argmax (i*k + j) into flat *input* indices for the
            # backward scatter.
            np.floor_divide(idx, k, out=row)
            np.remainder(idx, k, out=idx)
            row *= w
            idx += row
            idx += ws.base
            self._cache = ("fast", ws, (n, c, h, w), oh, ow)
            return ws.out
        # General (overlapping / ragged) pooling: fold channels into the
        # batch dim so im2col produces per-channel patches.
        cols, oh, ow = im2col(x.reshape(n * c, 1, h, w), k, k, s, 0)
        argmax = cols.argmax(axis=1)
        out = cols[np.arange(cols.shape[0]), argmax]
        self._cache = ("im2col", argmax, (n, c, h, w), oh, ow, cols.shape)
        return out.reshape(n, c, oh, ow)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        kind = self._cache[0]
        k, s = self.kernel_size, self.stride
        if kind == "fast":
            _, ws, x_shape, oh, ow = self._cache
            # Scatter the upstream gradient straight into dx through the flat
            # indices decoded in forward — cheaper than materializing a
            # zeroed (k*k)-wide window tensor and folding it back.
            idx = ws.scratch[1]
            ws.dx.fill(0.0)
            ws.dx.reshape(-1)[idx.reshape(-1)] = np.ascontiguousarray(
                grad_out
            ).reshape(-1)
            return ws.dx
        _, argmax, x_shape, oh, ow, cols_shape = self._cache
        n, c, h, w = x_shape
        dcols = np.zeros(cols_shape, dtype=grad_out.dtype)
        dcols[np.arange(cols_shape[0]), argmax] = grad_out.ravel()
        dx = col2im(dcols, (n * c, 1, h, w), k, k, s, 0)
        return dx.reshape(n, c, h, w)


class AvgPool2d(Module):
    """Average pooling with square kernel; stride defaults to kernel size."""

    def __init__(self, kernel_size: int, stride: int = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = kernel_size if stride is None else stride
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        cols, oh, ow = im2col(x.reshape(n * c, 1, h, w), k, k, s, 0)
        self._cache = ((n, c, h, w), cols.shape, oh, ow)
        return cols.mean(axis=1).reshape(n, c, oh, ow)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_shape, cols_shape, oh, ow = self._cache
        n, c, h, w = x_shape
        k, s = self.kernel_size, self.stride
        dcols = np.repeat(
            grad_out.reshape(-1, 1) / (k * k), cols_shape[1], axis=1
        )
        dx = col2im(dcols, (n * c, 1, h, w), k, k, s, 0)
        return dx.reshape(n, c, h, w)


class GlobalAvgPool2d(Module):
    """Collapse each channel's spatial map to its mean: (N,C,H,W) -> (N,C)."""

    def __init__(self):
        super().__init__()
        self._hw = (0, 0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._hw = x.shape[2:]
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        h, w = self._hw
        g = grad_out[:, :, None, None] / (h * w)
        return np.broadcast_to(g, (*grad_out.shape, h, w)).copy()
