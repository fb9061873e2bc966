"""Loss functions.

Each loss exposes ``forward(logits, targets) -> float`` and
``backward() -> grad_logits`` so trainers drive them exactly like layers.
"""

from __future__ import annotations

import numpy as np

from repro.nn import workspace
from repro.nn.module import Module


class CrossEntropyLoss(Module):
    """Softmax cross-entropy over integer class labels.

    Accepts logits of shape ``(N, C)`` or ``(B, T, C)`` (language modelling);
    targets are the matching integer array. The mean reduction over all
    positions matches Eqn. (1)'s per-sample averaging. A module so that its
    two ``(positions, C)`` arrays are pooled buffers, one set for every
    replica's loss: on the transformer each is above glibc's initial mmap
    threshold, where an array allocated per step can be fresh pages.
    """

    def token_nll(self, logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Each position's negative log-likelihood, flat."""
        return self._nll(logits, targets)[0]

    def _nll(self, logits: np.ndarray, targets: np.ndarray) -> tuple:
        """``token_nll`` and the log-softmax's buffer."""
        targets = np.asarray(targets, dtype=np.int64).reshape(-1)
        flat_logits = logits.reshape(-1, logits.shape[-1])
        if flat_logits.shape[0] != targets.shape[0]:
            raise ValueError(
                f"logits/targets batch mismatch: {logits.shape} vs {targets.shape}"
            )
        shape = flat_logits.shape
        logp, probs = workspace.buffer(shape), workspace.buffer(shape)
        # log-softmax then softmax, each in place on the buffer before it
        # (same arithmetic as exp(log_softmax(...)), two arrays not five).
        np.subtract(flat_logits, np.max(flat_logits, axis=-1, keepdims=True), out=logp)
        np.exp(logp, out=probs)
        logp -= np.log(np.sum(probs, axis=-1, keepdims=True))
        return -logp[np.arange(shape[0]), targets], logp

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        self._saved = None
        nll, logp = self._nll(logits, targets)
        self._save(np.exp(logp, out=logp), np.asarray(targets).reshape(-1), logits.shape)
        return float(nll.mean())

    def backward(self) -> np.ndarray:
        """Gradient of the mean loss w.r.t. the logits, formed in place on
        the probabilities."""
        probs, targets, shape = self._take()
        probs[np.arange(targets.shape[0]), targets] -= 1.0
        probs /= targets.shape[0]
        return probs.reshape(shape)


class MSELoss:
    """Mean squared error over real-valued predictions (used in unit tests)."""

    def __init__(self):
        self._diff: np.ndarray = np.zeros(0)

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        if pred.shape != target.shape:
            raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
        self._diff = pred - target
        return float(np.mean(self._diff**2))

    def backward(self) -> np.ndarray:
        return 2.0 * self._diff / self._diff.size


def perplexity(mean_nll: float) -> float:
    """Test perplexity = exp(loss), the paper's Transformer metric."""
    return float(np.exp(mean_nll))
