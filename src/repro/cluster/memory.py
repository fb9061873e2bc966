"""Worker memory-footprint accounting (Fig. 2b).

Activation memory is *measured*, not modelled: after a training forward
every layer holds exactly what its backward needs — the arrays in its saved
slot plus the workspace it has checked out of the ``nn.workspace`` pool — so
walking the module tree and summing both gives the true activation footprint
of this substrate at a given batch size. Parameter/gradient/optimizer-slot
memory is exact arithmetic on top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.module import Module
from repro.nn.workspace import owned_arrays


def measure_activation_bytes(model: Module) -> int:
    """Sum the bytes of every held workspace and saved array in the tree.

    Call immediately after a training-mode forward pass; the result is the
    memory backward would touch (BatchNorm running statistics or a causal
    mask are not). A saved array is charged as the buffer it keeps alive, so
    a view of a workspace (a layer's input may be a conv accumulator) or of an
    array another layer saved counts once.
    """
    buffers = {}
    for m in model.modules():
        arrays = [a for a in m._saved or () if isinstance(a, np.ndarray)]
        if m._held is not None:
            arrays += owned_arrays(m._held[2])
        for a in arrays:
            while isinstance(a.base, np.ndarray):
                a = a.base
            buffers[id(a)] = a.nbytes
    return int(sum(buffers.values()))


@dataclass
class MemoryModel:
    """Total worker memory for a model/batch combination.

    ``optimizer_slots`` is the number of parameter-sized state buffers the
    optimizer keeps (SGD+momentum: 1; Adam: 2).
    """

    optimizer_slots: int = 1

    def footprint_bytes(self, model: Module, activation_bytes: int) -> int:
        if activation_bytes < 0:
            raise ValueError(f"activation_bytes must be >= 0, got {activation_bytes}")
        param_bytes = model.nbytes
        grad_bytes = model.nbytes
        opt_bytes = self.optimizer_slots * model.nbytes
        return int(param_bytes + grad_bytes + opt_bytes + activation_bytes)

    def measure(self, model: Module, x: np.ndarray) -> int:
        """Run a training forward on ``x`` and return the total footprint."""
        model.train()
        model.forward(x)
        return self.footprint_bytes(model, measure_activation_bytes(model))
