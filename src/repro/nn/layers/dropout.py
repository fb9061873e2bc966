"""Inverted dropout."""

from __future__ import annotations

import numpy as np

from repro.nn import workspace
from repro.nn.module import Module
from repro.utils.rng import RngLike, as_rng


class Dropout(Module):
    """Inverted dropout: active only in training mode, identity in eval.

    Scaling by ``1/(1-p)`` at train time keeps activation magnitudes constant
    so evaluation requires no rescaling. Mask, output and ``dx`` are pooled
    buffers (``nn.workspace``).
    """

    def __init__(self, p: float = 0.5, rng: RngLike = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = as_rng(rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._save(None)  # identity backward
            return x
        self._saved = None
        mask = workspace.buffer(x.shape)
        keep = 1.0 - self.p
        self.rng.random(out=mask)
        np.less(mask, keep, out=mask)  # 1.0 where kept, else 0.0
        mask /= keep
        self._save(mask)
        return np.multiply(x, mask, out=workspace.buffer(x.shape))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        (mask,) = self._take()
        if mask is None:
            return grad_out
        return np.multiply(grad_out, mask, out=workspace.buffer(mask.shape))
