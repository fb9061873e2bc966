"""Token embedding lookup."""

from __future__ import annotations

import numpy as np

from repro.nn import init, workspace
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.utils.rng import RngLike, as_rng


class Embedding(Module):
    """Lookup table mapping integer token ids to dense vectors.

    Input: integer array of any shape; output gains a trailing ``dim`` axis.
    The backward pass scatter-adds into the weight gradient as one
    ``onehot(ids).T @ grad`` GEMM (``np.add.at`` costs ~3x as much), so
    repeated tokens accumulate; the ``(n_ids, num_embeddings)`` one-hot is
    sized for this repo's small vocabularies. It is a pooled workspace
    (``nn.workspace``) that is all zero whenever it is free: each backward
    sets its ones and clears them again, so no call fills or allocates the
    whole array.
    """

    def __init__(self, num_embeddings: int, dim: int, rng: RngLike = None):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(
            init.normal((num_embeddings, dim), std=0.1, rng=as_rng(rng)),
            "weight",
        )

    def forward(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if not np.issubdtype(ids.dtype, np.integer):
            raise TypeError(f"Embedding expects integer ids, got {ids.dtype}")
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise ValueError(
                f"token ids out of range [0, {self.num_embeddings}): "
                f"min={ids.min()}, max={ids.max()}"
            )
        self._save(ids)
        out = workspace.buffer((*ids.shape, self.dim))
        return np.take(self.weight.data, ids, axis=0, out=out)

    def backward(self, grad_out: np.ndarray) -> None:
        """Integer inputs have no gradient: returns None, like the conv stem."""
        ids = self._take()[0].ravel()
        shape = (ids.size, self.num_embeddings)
        onehot = workspace.POOL.lend("onehot", shape, lambda: np.zeros(shape))
        rows = np.arange(ids.size)
        onehot[rows, ids] = 1.0
        self.weight.accumulate_matmul(onehot.T, grad_out.reshape(-1, self.dim))
        onehot[rows, ids] = 0.0
