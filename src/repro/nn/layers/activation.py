"""Pointwise activation layers."""

from __future__ import annotations

import math

import numpy as np

from repro.nn import workspace
from repro.nn.module import Module

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


class ReLU(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._saved = None
        out = np.maximum(x, 0.0, out=workspace.buffer(x.shape))
        self._save(out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        (out,) = self._take()
        # out > 0 iff x > 0 (x == 0 clips to 0 either way), and ``out`` is
        # always contiguous while x may be a strided conv-workspace view.
        mask = np.greater(out, 0.0, out=workspace.buffer(out.shape, bool))
        return np.multiply(grad_out, mask, out=workspace.buffer(out.shape))


class GELU(Module):
    """Tanh approximation of GELU (the common transformer variant).

    The cubic is two products (``x**3`` goes through libm ``pow``, ~90x the
    cost per element), ``tanh(u)`` is kept from ``forward`` for ``backward``,
    and every array is a pooled buffer (``nn.workspace``).
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._saved = None
        out, t = workspace.buffer(x.shape), workspace.buffer(x.shape)
        self._save(x, t)
        np.multiply(x, x, out=out)  # x^2 now, the output below
        np.multiply(out, x, out=t)
        t *= _GELU_A
        t += x
        t *= _GELU_C  # u = c * (x + a * x^3)
        np.tanh(t, out=t)
        np.add(t, 1.0, out=out)
        out *= x
        out *= 0.5
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x, t = self._take()
        dx, s = workspace.buffer(x.shape), workspace.buffer(x.shape)
        # dy/dx = 0.5 * (1 + t) + 0.5 * x * (1 - t^2) * c * (1 + 3a * x^2)
        np.multiply(x, x, out=s)
        s *= 1.5 * _GELU_A * _GELU_C
        s += 0.5 * _GELU_C
        np.multiply(t, t, out=dx)
        np.subtract(1.0, dx, out=dx)
        dx *= s
        dx *= x
        np.multiply(t, 0.5, out=s)
        s += 0.5
        dx += s
        dx *= grad_out
        return dx


class Tanh(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.tanh(x)
        self._save(out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        (out,) = self._take()
        return grad_out * (1.0 - out**2)
