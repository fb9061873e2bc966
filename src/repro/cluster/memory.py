"""Worker memory-footprint accounting (Fig. 2b).

Activation memory is *measured*, not modelled. After a training forward every
layer holds exactly what its backward reads in its saved slot — arrays, and
workspaces lent by the ``nn.workspace`` pool — so walking the module tree and
summing them gives the saved activations at a given batch size. A worker also
works in the buffers its backward borrows (each ``dx`` and the backward's
temporaries), so :meth:`MemoryModel.measure` runs a whole training step in a
fresh pool and charges the saved activations together with every buffer that
pool lent. Parameter/gradient/optimizer-slot memory is exact arithmetic on
top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn import workspace
from repro.nn.module import Module
from repro.nn.workspace import owned_arrays


def _bytes(arrays) -> dict:
    """``{id: nbytes}`` of the buffers ``arrays`` keep alive: a view (of a
    workspace, or of an array another layer saved) is its base, counted once."""
    buffers = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        buffers[id(a)] = a.nbytes
    return buffers


def _saved_bytes(model: Module) -> dict:
    saved = [item for m in model.modules() for item in m._saved or ()]
    arrays = [a for a in saved if isinstance(a, np.ndarray)]
    return _bytes(arrays + [a for ws in saved if hasattr(ws, "__dict__") for a in owned_arrays(ws)])


def measure_activation_bytes(model: Module) -> int:
    """Sum the bytes of every saved array and saved workspace in the tree.

    Call immediately after a training-mode forward pass; the result is the
    memory backward would read (BatchNorm running statistics or a causal
    mask are not), each buffer once.
    """
    return int(sum(_saved_bytes(model).values()))


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
        """Run a training step on ``x`` (forward, then backward from a zero
        gradient) in a fresh workspace pool and return the total footprint.

        The activation term is the step's working set: the saved activations
        after the forward, and every buffer the pool lent to either pass, each
        buffer once. A cluster's replicas share one pool, so a worker costs
        one step's working set whatever the replica count.
        """
        kept, workspace.POOL = workspace.POOL, workspace.WorkspacePool()
        try:
            model.train()
            out = model.forward(x)
            buffers = _saved_bytes(model)
            model.backward(np.zeros_like(out))
            buffers.update(_bytes(workspace.POOL.kept_arrays()))
        finally:
            workspace.POOL = kept
        return self.footprint_bytes(model, sum(buffers.values()))
