"""Spatial pooling layers over NCHW activations.

The 2x2 / stride-2 ``MaxPool2d`` (every pool in the model zoo) does no
per-element integer arithmetic. ``forward`` is value work only: each window's
taps — ``a b`` over ``c d``, im2col order 0..3 — are copied once out of the
(usually strided) input into contiguous quarter-size buffers, then ``m01 =
max(a, b)``, ``m23 = max(c, d)``, ``out = max(m01, m23)``. ``backward`` reads
each window's winner off the kept taps as a 2-bit code::

    t01 = b > a;  t23 = d > c;  sel = m23 > m01
    code = t01 + sel * (2 + t23 - t01)      # int8: 0 a, 1 b, 2 c, 3 d

and scatters ``grad_out`` through ``corner + [0, 1, w, w+1][code]``. The
comparisons are strict, so a tie goes to the earlier tap at each of the three
decisions: the first maximal tap, ``argmax``'s choice on the general path.
The code is 0..3 at any width (``w`` is in the offset table only). The taps
and maxima are a pooled workspace the forward saves for its backward; the
flags, the index and ``corner``, each window's top-left flat index, are one
the backward borrows, so an evaluation-only shape never builds them.
"""

from __future__ import annotations

import numpy as np

from repro.nn import workspace
from repro.nn.functional import col2im, im2col
from repro.nn.module import Module


class _PoolWorkspace:
    """The 2x2 stride-2 MaxPool forward's buffers: what its backward reads."""

    def __init__(self, x_shape):
        n, c, h, w = x_shape
        quarter = (n, c, h // 2, w // 2)
        self.taps = np.empty((2, 2, *quarter))  # (a, b), (c, d)
        self.maxes = np.empty((3, *quarter))  # m01, m23, out


class _PoolGrad:
    """Its backward's: winner flags, scatter index and the index grids."""

    def __init__(self, x_shape):
        n, c, h, w = x_shape
        quarter = (n, c, h // 2, w // 2)
        self.flags = np.empty((3, *quarter), dtype=np.int8)  # t01, t23, sel
        # Flat input offset of taps 0..3 from their window's corner.
        self.offsets = np.array([0, 1, w, w + 1], dtype=np.intp)
        self.idx = np.empty(quarter, dtype=np.intp)
        # Flat index of each window's top-left element.
        flat = np.arange(n * c * h * w).reshape(x_shape)
        self.corner = np.ascontiguousarray(flat[:, :, ::2, ::2])


class MaxPool2d(Module):
    """Max pooling with square kernel; stride defaults to kernel size."""

    def __init__(self, kernel_size: int, stride: int = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = kernel_size if stride is None else stride

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        if s == k == 2 and h % 2 == 0 and w % 2 == 0:
            self._saved = None
            ws = workspace.POOL.lend("maxpool2", x.shape, lambda: _PoolWorkspace(x.shape))
            v = x.reshape(n, c, h // 2, 2, w // 2, 2)  # tap (i, j): v[:, :, :, i, :, j]
            np.copyto(ws.taps, v.transpose(3, 5, 0, 1, 2, 4))
            ((a, b), (cc, d)), (m01, m23, out) = ws.taps, ws.maxes
            np.maximum(a, b, out=m01)
            np.maximum(cc, d, out=m23)
            np.maximum(m01, m23, out=out)
            self._save(ws, x.shape)
            return out
        # General (overlapping / ragged) pooling: fold channels into the
        # batch dim so im2col produces per-channel patches.
        cols, oh, ow = im2col(x.reshape(n * c, 1, h, w), k, k, s, 0)
        argmax = cols.argmax(axis=1)
        out = cols[np.arange(cols.shape[0]), argmax]
        self._save(argmax, x.shape)
        return out.reshape(n, c, oh, ow)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        k, s = self.kernel_size, self.stride
        saved, (n, c, h, w) = self._take()
        if isinstance(saved, _PoolWorkspace):
            ((a, b), (cc, d)), (m01, m23, _) = saved.taps, saved.maxes
            x_shape = (n, c, h, w)
            ws = workspace.POOL.lend("maxpool2grad", x_shape, lambda: _PoolGrad(x_shape))
            t01, code, sel = ws.flags
            np.greater(b, a, out=t01.view(bool))
            np.greater(d, cc, out=code.view(bool))
            np.greater(m23, m01, out=sel.view(bool))
            code -= t01
            code += 2
            code *= sel
            code += t01
            np.take(ws.offsets, code, out=ws.idx, mode="clip")  # "raise" buffers out
            ws.idx += ws.corner
            dx = workspace.buffer(x_shape)
            dx.fill(0.0)
            dx.reshape(-1)[ws.idx] = grad_out  # windows are disjoint: no index twice
            return dx
        argmax = saved
        dcols = np.zeros((argmax.size, k * k), dtype=grad_out.dtype)
        dcols[np.arange(argmax.size), argmax] = grad_out.ravel()
        dx = col2im(dcols, (n * c, 1, h, w), k, k, s, 0)
        return dx.reshape(n, c, h, w)


class AvgPool2d(Module):
    """Average pooling with square kernel; stride defaults to kernel size."""

    def __init__(self, kernel_size: int, stride: int = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = kernel_size if stride is None else stride

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        cols, oh, ow = im2col(x.reshape(n * c, 1, h, w), k, k, s, 0)
        self._save(x.shape)
        return cols.mean(axis=1).reshape(n, c, oh, ow)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        ((n, c, h, w),) = self._take()
        k, s = self.kernel_size, self.stride
        dcols = np.repeat(grad_out.reshape(-1, 1) / (k * k), k * k, axis=1)
        dx = col2im(dcols, (n * c, 1, h, w), k, k, s, 0)
        return dx.reshape(n, c, h, w)


class GlobalAvgPool2d(Module):
    """Collapse each channel's spatial map to its mean: (N,C,H,W) -> (N,C)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._save(x.shape[2:])
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        ((h, w),) = self._take()
        g = grad_out[:, :, None, None] / (h * w)
        return np.broadcast_to(g, (*grad_out.shape, h, w)).copy()
