"""Shape adapters."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module


class Flatten(Module):
    """Collapse all but the leading (batch) dimension."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._save(x.shape)
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        (shape,) = self._take()
        return grad_out.reshape(shape)
