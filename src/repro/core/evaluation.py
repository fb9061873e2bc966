"""Evaluation callbacks for the trainers' ``eval_fn`` hook."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.data.dataset import Dataset
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module, no_grad

# Sequences per partial NLL sum of ``perplexity_eval``, whatever its chunk
# size: 64 keeps every perplexity recorded with 64-sequence chunks bit-equal.
NLL_GROUP = 64


def _chunks(dataset: Dataset, batch_size: int):
    """``(x, y, new)`` for each chunk of ``batch_size`` samples, in order. A
    ragged last chunk is padded back to ``batch_size`` with samples already
    scored, and only its rows from ``new`` on count: every forward then runs
    at one batch size, in the workspaces training at that size already
    holds, instead of private ones built for the remainder."""
    n = len(dataset)
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        lo = max(0, stop - batch_size)
        yield (*dataset.get_batch(np.arange(lo, stop)), start - lo)


def accuracy_eval(dataset: Dataset, batch_size: int = 256, top_k: int = 1) -> Callable:
    """Top-k test accuracy over a held-out dataset (top-1 for CIFAR-like,
    top-5 for the ImageNet-like workload, matching the paper), in
    :func:`_chunks`."""
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")

    def evaluate(model: Module) -> float:
        correct = 0
        for x, y, new in _chunks(dataset, batch_size):
            with no_grad():
                logits = model.forward(x)[new:]
            y = y[new:]
            if top_k == 1:
                correct += int((logits.argmax(axis=-1) == y).sum())
            else:
                top = np.argpartition(logits, -top_k, axis=-1)[:, -top_k:]
                correct += int((top == y[:, None]).any(axis=1).sum())
        return correct / len(dataset)

    return evaluate


def perplexity_eval(dataset: Dataset, batch_size: int = 64) -> Callable:
    """Test perplexity = exp(mean NLL) over a token dataset (Transformer), in
    :func:`_chunks`, so the loss too runs in the workspace training holds.
    The NLL is summed per ``NLL_GROUP`` sequences in order, whatever
    ``batch_size`` is: the float does not depend on it."""
    loss = CrossEntropyLoss()

    def evaluate(model: Module) -> float:
        parts = []
        for x, y, new in _chunks(dataset, batch_size):
            with no_grad():
                nll = loss.token_nll(model.forward(x), y)
            parts.append(nll[new * y[0].size:])
        nll = np.concatenate(parts)
        total_nll, group = 0.0, nll.size // len(dataset) * NLL_GROUP
        for g in range(0, nll.size, group):
            total_nll += float(nll[g:g + group].sum())
        return float(np.exp(total_nll / nll.size))

    return evaluate
