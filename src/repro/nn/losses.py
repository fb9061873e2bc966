"""Loss functions.

Each loss exposes ``forward(logits, targets) -> float`` and
``backward() -> grad_logits`` so trainers drive them exactly like layers.
"""

from __future__ import annotations

import numpy as np


class CrossEntropyLoss:
    """Softmax cross-entropy over integer class labels.

    Accepts logits of shape ``(N, C)`` or ``(B, T, C)`` (language modelling);
    targets are the matching integer array. The mean reduction over all
    positions matches Eqn. (1)'s per-sample averaging.
    """

    def __init__(self):
        self._probs: np.ndarray = np.zeros(0)
        self._targets: np.ndarray = np.zeros(0, dtype=np.int64)
        self._n: int = 0

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        targets = np.asarray(targets, dtype=np.int64)
        flat_logits = logits.reshape(-1, logits.shape[-1])
        flat_targets = targets.reshape(-1)
        if flat_logits.shape[0] != flat_targets.shape[0]:
            raise ValueError(
                f"logits/targets batch mismatch: {logits.shape} vs {targets.shape}"
            )
        # log-softmax then softmax, each in place on the buffer before it
        # (same arithmetic as exp(F.log_softmax(...)), two arrays not five).
        logp = flat_logits - np.max(flat_logits, axis=-1, keepdims=True)
        probs = np.exp(logp)
        logp -= np.log(np.sum(probs, axis=-1, keepdims=True))
        self._targets = flat_targets
        self._n = flat_targets.shape[0]
        self._shape = logits.shape
        nll = -logp[np.arange(self._n), flat_targets]
        self._probs = np.exp(logp, out=probs)
        return float(nll.mean())

    def backward(self) -> np.ndarray:
        """Gradient of the mean loss w.r.t. the logits.

        Consumes the cached probabilities (the gradient is formed in place),
        so each ``forward`` supports one ``backward``.
        """
        if self._n == 0:
            raise RuntimeError("CrossEntropyLoss.backward called without a forward")
        grad = self._probs
        grad[np.arange(self._n), self._targets] -= 1.0
        grad /= self._n
        self._n = 0
        return grad.reshape(self._shape)


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
