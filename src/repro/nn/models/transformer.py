"""TinyTransformer — causal language model, the WikiText Transformer stand-in.

Pre-norm transformer blocks (LayerNorm → attention → residual, then
LayerNorm → MLP → residual) with learned positional embeddings and a linear
vocabulary head. The paper's encoder uses 2 layers / 2 heads / dim 200; this
analog keeps the same block count and head count at a CPU-friendly width.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import (
    Dropout,
    Embedding,
    GELU,
    LayerNorm,
    Linear,
    MultiHeadSelfAttention,
    Residual,
    Sequential,
)
from repro.nn.models.registry import MODELS
from repro.nn.module import Module
from repro.utils.rng import RngLike, spawn_rngs


def _block(dim: int, n_heads: int, mlp_ratio: int, dropout: float, rng) -> Sequential:
    r_attn, r_fc1, r_fc2, r_drop = spawn_rngs(rng, 4)
    attn = Residual(
        Sequential(
            LayerNorm(dim),
            MultiHeadSelfAttention(dim, n_heads, causal=True, rng=r_attn),
        )
    )
    mlp = Residual(
        Sequential(
            LayerNorm(dim),
            Linear(dim, mlp_ratio * dim, rng=r_fc1),
            GELU(),
            Linear(mlp_ratio * dim, dim, rng=r_fc2),
            Dropout(dropout, rng=r_drop),
        )
    )
    return Sequential(attn, mlp)


@MODELS.register("tinytransformer")
class TinyTransformer(Module):
    """Decoder-only LM over ``(B, T)`` integer token ids → ``(B, T, V)`` logits."""

    task = "lm"

    def __init__(
        self,
        vocab_size: int = 64,
        dim: int = 32,
        n_heads: int = 2,
        n_layers: int = 2,
        max_len: int = 64,
        mlp_ratio: int = 2,
        dropout: float = 0.1,
        rng: RngLike = None,
    ):
        super().__init__()
        self.vocab_size = vocab_size
        self.dim = dim
        self.max_len = max_len
        rngs = spawn_rngs(rng, n_layers + 3)
        self.tok_emb = Embedding(vocab_size, dim, rng=rngs[0])
        self.pos_emb = Embedding(max_len, dim, rng=rngs[1])
        self._pos = np.arange(max_len)
        self.blocks = Sequential(
            *[_block(dim, n_heads, mlp_ratio, dropout, rngs[2 + i]) for i in range(n_layers)]
        )
        self.norm = LayerNorm(dim)
        self.head = Linear(dim, vocab_size, rng=rngs[-1])
        # Attention + MLP + head FLOPs per token, forward (2 FLOPs per MAC).
        per_token = n_layers * (
            2 * 4 * dim * dim            # qkv + out projections
            + 2 * 2 * max_len * dim      # score and value matmuls (avg seq)
            + 2 * 2 * mlp_ratio * dim * dim
        ) + 2 * dim * vocab_size
        self.flops_per_sample = int(per_token * max_len)

    def forward(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ValueError(f"TinyTransformer expects (B, T) ids, got {ids.shape}")
        t = ids.shape[1]
        if t > self.max_len:
            raise ValueError(f"sequence length {t} exceeds max_len {self.max_len}")
        # Positions are the same for every sample: look up (T, D) once and
        # broadcast, and sum the gradient over the batch in backward.
        x = self.tok_emb.forward(ids)
        x += self.pos_emb.forward(self._pos[:t])
        x = self.blocks.forward(x)
        x = self.norm.forward(x)
        return self.head.forward(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        dx = self.head.backward(grad_out)
        dx = self.norm.backward(dx)
        dx = self.blocks.backward(dx)
        self.tok_emb.backward(dx)
        self.pos_emb.backward(dx.sum(axis=0))
        # Token ids carry no gradient.
        return np.zeros(0)
