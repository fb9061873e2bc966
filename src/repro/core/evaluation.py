"""Evaluation callbacks for the trainers' ``eval_fn`` hook."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.data.dataset import Dataset
from repro.nn import functional as F
from repro.nn.module import Module, no_grad


def accuracy_eval(dataset: Dataset, batch_size: int = 256, top_k: int = 1) -> Callable:
    """Top-k test accuracy over a held-out dataset (top-1 for CIFAR-like,
    top-5 for the ImageNet-like workload, matching the paper).

    A ragged last chunk is padded back to ``batch_size`` with samples
    already scored, and only its new rows count: every forward then runs at
    one batch size, in the workspaces training at that size already holds,
    instead of private ones built for the remainder."""
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")

    def evaluate(model: Module) -> float:
        n = len(dataset)
        correct = 0
        for start in range(0, n, batch_size):
            stop = min(start + batch_size, n)
            lo = max(0, stop - batch_size)
            x, y = dataset.get_batch(np.arange(lo, stop))
            with no_grad():
                logits = model.forward(x)[start - lo:]
            y = y[start - lo:]
            if top_k == 1:
                correct += int((logits.argmax(axis=-1) == y).sum())
            else:
                top = np.argpartition(logits, -top_k, axis=-1)[:, -top_k:]
                correct += int((top == y[:, None]).any(axis=1).sum())
        return correct / n

    return evaluate


def perplexity_eval(dataset: Dataset, batch_size: int = 64) -> Callable:
    """Test perplexity = exp(mean NLL) over a token dataset (Transformer)."""

    def evaluate(model: Module) -> float:
        n = len(dataset)
        total_nll = 0.0
        total_tokens = 0
        for start in range(0, n, batch_size):
            idx = np.arange(start, min(start + batch_size, n))
            x, y = dataset.get_batch(idx)
            with no_grad():
                logits = model.forward(x)
            logp = F.log_softmax(logits.reshape(-1, logits.shape[-1]), axis=-1)
            flat_y = y.reshape(-1)
            total_nll += float(-logp[np.arange(flat_y.size), flat_y].sum())
            total_tokens += flat_y.size
        return float(np.exp(total_nll / total_tokens))

    return evaluate
