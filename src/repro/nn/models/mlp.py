"""Plain multilayer perceptron — the small, fast workhorse for tests."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.layers import Linear, ReLU, Sequential
from repro.nn.models.registry import MODELS, SequentialModel
from repro.utils.rng import RngLike, spawn_rngs


@MODELS.register("mlp")
class MLP(SequentialModel):
    """Fully connected classifier over flat feature vectors.

    Parameters
    ----------
    in_features / n_classes:
        Input and output widths.
    hidden:
        Hidden-layer widths, e.g. ``(64, 64)``.
    """

    task = "classification"

    def __init__(
        self,
        in_features: int = 32,
        n_classes: int = 10,
        hidden: Sequence[int] = (64,),
        rng: RngLike = None,
    ):
        super().__init__()
        self.in_features = in_features
        self.n_classes = n_classes
        dims = [in_features, *hidden, n_classes]
        rngs = spawn_rngs(rng, len(dims) - 1)
        layers = []
        for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            layers.append(Linear(a, b, rng=rngs[i]))
            if i < len(dims) - 2:
                layers.append(ReLU())
        # The gradient w.r.t. the input features is never consumed.
        layers[0].skip_input_grad = True
        self.net = Sequential(*layers)
        # 2 FLOPs per MAC, forward only; backward costs ~2x forward.
        self.flops_per_sample = int(
            sum(2 * a * b for a, b in zip(dims[:-1], dims[1:]))
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        return self.net.forward(x)
