"""Model registry shared by the experiment harness, and the base of the
models whose whole computation is one ``Sequential``."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.utils.registry import Registry

MODELS: Registry = Registry("model")


def build_model(name: str, **kwargs) -> Module:
    """Instantiate a registered model by name (e.g. ``"smallresnet"``)."""
    return MODELS.create(name, **kwargs)


class SequentialModel(Module):
    """A model whose forward and backward are those of its ``net``."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.net.forward(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.net.backward(grad_out)
