"""Spatial pooling layers over NCHW activations."""

from __future__ import annotations

import numpy as np

from repro.nn.functional import col2im, im2col
from repro.nn.module import Module


class _PoolWorkspace:
    """Pooled buffers for the 2x2 stride-2 MaxPool fast path."""

    def __init__(self, x_shape):
        n, c, h, w = x_shape
        self.oh, self.ow = h // 2, w // 2
        quarter = (n, c, self.oh, self.ow)
        self.out = np.empty(quarter)
        # The max is three elementwise maxima over strided views of the
        # input, and the winner index falls out of three comparisons.
        self.m01 = np.empty(quarter)
        self.m23 = np.empty(quarter)
        self.t01 = np.empty(quarter, dtype=bool)
        self.t23 = np.empty(quarter, dtype=bool)
        self.sel = np.empty(quarter, dtype=bool)
        # Flat index of each window's top-left corner in the input array;
        # backward scatters straight into ``dx`` through these (the window
        # interiors are disjoint, so no index appears twice).
        grid = (
            (np.arange(n)[:, None, None, None] * c
             + np.arange(c)[None, :, None, None]) * h
            + np.arange(self.oh)[None, None, :, None] * 2
        ) * w + np.arange(self.ow)[None, None, None, :] * 2
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

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        if s == k == 2 and h % 2 == 0 and w % 2 == 0:
            # Non-overlapping 2x2 pooling (every pool in the model zoo): a
            # reshape groups each window's taps — no im2col patch matrix, no
            # col2im scatter in backward. Tap order within a window is
            # (i*k + j), identical to the im2col column order.
            ws = self._checkout("maxpool2", x.shape, lambda: _PoolWorkspace(x.shape))
            oh, ow = ws.oh, ws.ow
            row, idx = ws.scratch
            v = x.reshape(n, c, oh, k, ow, k)
            # Views of the four window taps — no patch copy. The winner
            # index comes from strict comparisons, so tie-breaking (first
            # tap wins) matches argmax on the general path.
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
            # Decode argmax (i*k + j) into flat *input* indices for the
            # backward scatter.
            np.floor_divide(idx, k, out=row)
            np.remainder(idx, k, out=idx)
            row *= w
            idx += row
            idx += ws.base
            self._cache = None  # backward reads the held workspace
            return ws.out
        # General (overlapping / ragged) pooling: fold channels into the
        # batch dim so im2col produces per-channel patches.
        cols, oh, ow = im2col(x.reshape(n * c, 1, h, w), k, k, s, 0)
        argmax = cols.argmax(axis=1)
        out = cols[np.arange(cols.shape[0]), argmax]
        self._cache = (argmax, (n, c, h, w), oh, ow, cols.shape)
        return out.reshape(n, c, oh, ow)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        k, s = self.kernel_size, self.stride
        if self._cache is None:
            ws = self._workspace()
            # Scatter the upstream gradient straight into dx through the flat
            # indices decoded in forward — cheaper than materializing a
            # zeroed (k*k)-wide window tensor and folding it back.
            idx = ws.scratch[1]
            ws.dx.fill(0.0)
            ws.dx.reshape(-1)[idx.reshape(-1)] = np.ascontiguousarray(
                grad_out
            ).reshape(-1)
            self._release()
            return ws.dx
        argmax, x_shape, oh, ow, cols_shape = self._cache
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
