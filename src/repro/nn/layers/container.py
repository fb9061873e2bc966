"""Composite layers: Sequential chains and residual (skip) blocks."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.nn import workspace
from repro.nn.module import Module


class Sequential(Module):
    """Run sub-modules in order; backward replays them in reverse."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers: List[Module] = list(layers)
        for i, layer in enumerate(self.layers):
            self.register_module(f"layer{i}", layer)

    def append(self, layer: Module) -> "Sequential":
        self.register_module(f"layer{len(self.layers)}", layer)
        self.layers.append(layer)
        return self

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out


class Residual(Module):
    """Skip connection ``y = f(x) + proj(x)``.

    ``proj`` defaults to the identity; supply a 1×1 convolution (or any
    module) when the body changes shape. This is the structural ingredient
    that distinguishes the ResNet family from plain conv stacks, which the
    paper leans on to explain ResNet101's robustness vs VGG11 (§IV-C).
    """

    def __init__(self, body: Module, proj: Module = None):
        super().__init__()
        self.body = body
        self.proj = proj
        if proj is not None:
            self.register_module("proj", proj)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.body.forward(x)
        skip = x if self.proj is None else self.proj.forward(x)
        if out.shape != skip.shape:
            raise ValueError(
                f"residual branch shapes differ: body {out.shape} vs "
                f"skip {skip.shape}; supply a projection module"
            )
        return np.add(out, skip, out=workspace.buffer(out.shape))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        # The body's dx is its first layer's own buffer; the skip's is added in place.
        dx = self.body.backward(grad_out)
        dx += grad_out if self.proj is None else self.proj.backward(grad_out)
        return dx
