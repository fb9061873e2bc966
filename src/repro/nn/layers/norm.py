"""Normalization layers: BatchNorm2d and LayerNorm."""

from __future__ import annotations

import numpy as np

from repro.nn import init, workspace
from repro.nn.module import Module
from repro.nn.parameter import Parameter


class BatchNorm2d(Module):
    """Batch normalization over NCHW activations.

    Maintains running mean/var for eval mode. The running statistics are
    deliberately *not* Parameters — they carry no gradient and are excluded
    from aggregation, matching how distributed frameworks treat BN buffers.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones(num_features), "weight")
        self.bias = Parameter(init.zeros(num_features), "bias")
        self.running_mean = np.zeros(num_features, dtype=np.float64)
        self.running_var = np.ones(num_features, dtype=np.float64)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm2d expected (N, {self.num_features}, H, W), got {x.shape}"
            )
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            m = self.momentum
            self.running_mean = (1 - m) * self.running_mean + m * mean
            self.running_var = (1 - m) * self.running_var + m * var
        else:
            mean, var = self.running_mean, self.running_var
        mean4 = mean[None, :, None, None]
        inv_std = 1.0 / np.sqrt(var + self.eps)
        inv4 = inv_std[None, :, None, None]
        xhat = (x - mean4) * inv4
        if self.training:  # eval-mode statistics have no backward here
            self._save(xhat, inv_std)
        return self.weight.data[None, :, None, None] * xhat + self.bias.data[
            None, :, None, None
        ]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        xhat, inv_std = self._take()
        m = xhat.size // self.num_features  # samples per channel
        self.weight.accumulate_grad((grad_out * xhat).sum(axis=(0, 2, 3)))
        self.bias.accumulate_grad(grad_out.sum(axis=(0, 2, 3)))
        g = grad_out * self.weight.data[None, :, None, None]
        # Standard batchnorm backward in normalized coordinates.
        sum_g = g.sum(axis=(0, 2, 3), keepdims=True)
        sum_gx = (g * xhat).sum(axis=(0, 2, 3), keepdims=True)
        dx = (inv_std[None, :, None, None] / m) * (m * g - sum_g - xhat * sum_gx)
        return dx


class LayerNorm(Module):
    """Layer normalization over the trailing feature dimension.

    Centres once: ``var`` is the mean square of the centred input, the same
    arithmetic as ``np.var`` without its second pass over ``x``. ``xhat``,
    the output, ``dx`` and the backward's product are pooled buffers.
    """

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(init.ones(dim), "weight")
        self.bias = Parameter(init.zeros(dim), "bias")

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.dim:
            raise ValueError(f"LayerNorm expected last dim {self.dim}, got {x.shape}")
        self._saved = None
        xhat, out = workspace.buffer(x.shape), workspace.buffer(x.shape)
        # np.add.reduce(...) / dim is ``mean``'s arithmetic, without its wrapper.
        np.subtract(x, np.add.reduce(x, axis=-1, keepdims=True) / self.dim, out=xhat)
        np.multiply(xhat, xhat, out=out)  # squares now, the output below
        inv_std = 1.0 / np.sqrt(np.add.reduce(out, axis=-1, keepdims=True) / self.dim + self.eps)
        xhat *= inv_std
        self._save(xhat, inv_std)
        np.multiply(xhat, self.weight.data, out=out)
        out += self.bias.data
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        xhat, inv_std = self._take()
        g, tmp = workspace.buffer(xhat.shape), workspace.buffer(xhat.shape)
        d = self.dim
        axes = tuple(range(grad_out.ndim - 1))
        np.multiply(grad_out, xhat, out=tmp)
        self.weight.accumulate_grad(tmp.sum(axis=axes))
        self.bias.accumulate_grad(grad_out.sum(axis=axes))
        np.multiply(grad_out, self.weight.data, out=g)
        sum_g = g.sum(axis=-1, keepdims=True)
        np.multiply(g, xhat, out=tmp)
        sum_gx = tmp.sum(axis=-1, keepdims=True)
        # dx = (inv_std / d) * (d * g - sum_g - xhat * sum_gx), in place on g
        g *= d
        g -= sum_g
        np.multiply(xhat, sum_gx, out=tmp)
        g -= tmp
        g *= inv_std / d
        return g
