"""Fully connected layer."""

from __future__ import annotations

import numpy as np

from repro.nn import init, workspace
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.utils.rng import RngLike, as_rng


class Linear(Module):
    """Affine map ``y = x @ W.T + b``.

    Accepts inputs of shape ``(..., in_features)``; leading dimensions are
    batch dims (the transformer feeds ``(B, T, D)`` activations) and are
    flattened so forward and backward are each one GEMM, not ``B`` small ones.
    The output and ``dx`` are pooled buffers (``nn.workspace``).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: RngLike = None,
    ):
        super().__init__()
        rng = as_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_normal((out_features, in_features), rng=rng), "weight"
        )
        self.bias = (
            Parameter(init.zeros(out_features), "bias") if bias else None
        )
        # Models set this on their input layer, where dx is never consumed.
        self.skip_input_grad = False

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"Linear expected last dim {self.in_features}, got {x.shape}"
            )
        out = workspace.buffer((*x.shape[:-1], self.out_features))
        self._save(x)
        y = out.reshape(-1, self.out_features)
        np.matmul(x.reshape(-1, self.in_features), self.weight.data.T, out=y)
        if self.bias is not None:
            y += self.bias.data
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        (x,) = self._take()
        x2 = x.reshape(-1, self.in_features)
        g2 = grad_out.reshape(-1, self.out_features)
        self.weight.accumulate_matmul(g2.T, x2)
        if self.bias is not None:
            self.bias.accumulate_grad(g2.sum(axis=0))
        if self.skip_input_grad:
            return None
        dx = workspace.buffer(x.shape)
        np.matmul(g2, self.weight.data, out=dx.reshape(x2.shape))
        return dx
