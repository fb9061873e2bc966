"""Stateless numerical kernels shared by the layers.

Everything here is fully vectorized numpy (no Python loops over samples):
im2col/col2im turn a strided convolution or an overlapping pool into one
big GEMM or reduction.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


# -- im2col convolution plumbing ------------------------------------------------

def conv_out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution output collapsed to {out} "
            f"(size={size}, kernel={kernel}, stride={stride}, pad={pad})"
        )
    return out


def im2col(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    out: np.ndarray = None,
) -> Tuple[np.ndarray, int, int]:
    """Unfold NCHW input into a (N*OH*OW, C*kh*kw) patch matrix.

    Returns the patch matrix together with the output spatial dims. Built
    with stride tricks so no data is copied until the final materialization.
    ``out`` (optional) receives the patches in place — callers that unfold
    the same shape every step pass a preallocated workspace to keep the
    largest allocation of the step out of the hot loop.
    """
    n, c, h, w = x.shape
    oh = conv_out_size(h, kh, stride, pad)
    ow = conv_out_size(w, kw, stride, pad)
    if pad > 0:
        x = np.pad(
            x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant"
        )
    sn, sc, sh, sw = x.strides
    shape = (n, c, oh, ow, kh, kw)
    strides = (sn, sc, sh * stride, sw * stride, sh, sw)
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    # (N, OH, OW, C, kh, kw) -> rows are output positions, cols are patch taps
    view = patches.transpose(0, 2, 3, 1, 4, 5)
    if out is not None:
        if out.shape != (n * oh * ow, c * kh * kw):
            raise ValueError(
                f"im2col workspace has shape {out.shape}, "
                f"need {(n * oh * ow, c * kh * kw)}"
            )
        np.copyto(out.reshape(n, oh, ow, c, kh, kw), view)
        return out, oh, ow
    cols = view.reshape(n * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols), oh, ow


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold a patch-gradient matrix back into an NCHW gradient (adjoint of im2col)."""
    n, c, h, w = x_shape
    oh = conv_out_size(h, kh, stride, pad)
    ow = conv_out_size(w, kw, stride, pad)
    hp, wp = h + 2 * pad, w + 2 * pad
    out = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    cols6 = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    # Accumulate each kernel tap's contribution with one vectorized add.
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            out[:, :, i:i_max:stride, j:j_max:stride] += cols6[:, :, i, j]
    if pad > 0:
        return out[:, :, pad:-pad, pad:-pad]
    return out
