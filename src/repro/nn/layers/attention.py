"""Multi-head self-attention (the Transformer's core block)."""

from __future__ import annotations

import math

import numpy as np

from repro.nn import workspace
from repro.nn.layers.linear import Linear
from repro.nn.module import Module
from repro.utils.rng import RngLike, spawn_rngs


class MultiHeadSelfAttention(Module):
    """Scaled dot-product self-attention over ``(B, T, D)`` inputs.

    Supports an optional causal mask for autoregressive language modelling
    (the paper's Transformer on WikiText-103 is a causal LM). All four
    projections are :class:`Linear` layers so their parameters participate
    in aggregation like any other weight.
    """

    def __init__(
        self,
        dim: int,
        n_heads: int,
        causal: bool = True,
        rng: RngLike = None,
    ):
        super().__init__()
        if dim % n_heads != 0:
            raise ValueError(f"dim {dim} not divisible by n_heads {n_heads}")
        self.dim = dim
        self.n_heads = n_heads
        self.head_dim = dim // n_heads
        self.causal = causal
        rq, rk, rv, ro = spawn_rngs(rng, 4)
        self.q_proj = Linear(dim, dim, rng=rq)
        self.k_proj = Linear(dim, dim, rng=rk)
        self.v_proj = Linear(dim, dim, rng=rv)
        self.out_proj = Linear(dim, dim, rng=ro)
        self._scale = 1.0 / math.sqrt(self.head_dim)
        self._mask = np.zeros((0, 0))  # additive causal mask for the last T

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        """(B, T, D) -> a (B, H, T, dh) view; writing into the view of a
        (B, T, D) buffer merges the heads back."""
        b, t, _ = x.shape
        return x.reshape(b, t, self.n_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[-1] != self.dim:
            raise ValueError(
                f"attention expected (B, T, {self.dim}), got {x.shape}"
            )
        b, t, _ = x.shape
        self._saved = None
        # probs is saved here, ctx by out_proj, whose input it is.
        probs = workspace.buffer((b, self.n_heads, t, t))
        ctx = workspace.buffer(x.shape)
        # 1/sqrt(dh) is folded into q: one multiply here instead of one on
        # the scores and one each on d_q and d_k.
        q2 = self.q_proj.forward(x)
        q2 *= self._scale
        q = self._split_heads(q2)
        k = self._split_heads(self.k_proj.forward(x))
        v = self._split_heads(self.v_proj.forward(x))
        np.matmul(q, k.transpose(0, 1, 3, 2), out=probs)  # scores (B, H, T, T)
        if self.causal:
            if self._mask.shape[0] != t:
                self._mask = np.triu(np.full((t, t), -1e30), k=1)
            probs += self._mask
        # Softmax in place on the scores buffer.
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        np.matmul(probs, v, out=self._split_heads(ctx))
        self._save(q, k, v, probs)
        return self.out_proj.forward(ctx)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        q, k, v, probs = self._take()
        d_attn = self._split_heads(self.out_proj.backward(grad_out))
        d_scores, prod = workspace.buffer(probs.shape), workspace.buffer(probs.shape)
        # ctx holds d_q, d_k and d_v in turn, each the input of one
        # projection's backward.
        ctx = workspace.buffer(grad_out.shape)
        merged = self._split_heads(ctx)
        np.matmul(d_attn, v.transpose(0, 1, 3, 2), out=d_scores)  # d_probs
        # softmax_backward in place: probs * (d_probs - sum(d_probs * probs)).
        # Masked positions have probability exactly 0, so they get zero
        # gradient without consulting the mask.
        d_scores -= np.multiply(d_scores, probs, out=prod).sum(axis=-1, keepdims=True)
        d_scores *= probs
        np.matmul(d_scores, k, out=merged)
        ctx *= self._scale  # d_q
        dx = self.q_proj.backward(ctx)
        np.matmul(d_scores.transpose(0, 1, 3, 2), q, out=merged)  # d_k; q carries scale
        dx += self.k_proj.backward(ctx)
        np.matmul(probs.transpose(0, 1, 3, 2), d_attn, out=merged)  # d_v
        dx += self.v_proj.backward(ctx)
        return dx
