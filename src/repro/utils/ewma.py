"""Exponentially weighted moving average (EWMA) smoothing.

SelSync smooths the per-iteration squared gradient norm with an EWMA before
computing the relative gradient change Δ(g_i) (paper §III-A, citing Hunter
1986), because single-minibatch gradients are noisy. The paper uses a
window-size ``w`` (25 iterations by default) and a smoothing factor derived
from the cluster size (``N/100``).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from repro.utils.state import Captured


class Ewma(Captured):
    """Streaming EWMA over a sliding window.

    Parameters
    ----------
    alpha:
        Smoothing factor in ``(0, 1]``. Larger values weigh recent samples
        more. The paper sets ``alpha = N / 100`` for an ``N``-worker cluster
        (0.16 at N=16).
    window:
        Number of most-recent samples retained. The EWMA is recomputed over
        this window, matching the paper's windowed formulation whose cost
        grows with ``w`` (Fig. 8a).
    """

    def __init__(self, alpha: float = 0.16, window: int = 25):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.alpha = float(alpha)
        self.window = int(window)
        self._buf: deque = deque(maxlen=window)
        self._value: Optional[float] = None

    def update(self, x: float) -> float:
        """Ingest one sample and return the smoothed value.

        The smoothed value is the *normalized* windowed EWMA

            v_i = Σ_{j<w} (1-α)^j · x_{i-j}  /  Σ_{j<w} (1-α)^j

        — a proper weighted average of the window. (Seeding a recursive
        EWMA from the window's oldest sample instead would make the result
        track that raw sample for small α, destroying the smoothing that
        Δ(g_i) depends on.) The O(w) pass per update reproduces the
        window-size-dependent overhead the paper measures in Fig. 8a.
        """
        if not np.isfinite(x):
            raise ValueError(f"EWMA received non-finite sample: {x}")
        self._buf.append(float(x))
        n = len(self._buf)
        # weights[j] applies to the sample j steps in the past.
        decay = 1.0 - self.alpha
        num = 0.0
        den = 0.0
        weight = 1.0
        for sample in reversed(self._buf):
            num += weight * sample
            den += weight
            weight *= decay
            if weight == 0.0:  # alpha == 1.0: only the newest sample counts
                break
        self._value = num / den
        return self._value

    @property
    def value(self) -> Optional[float]:
        """Current smoothed value, or ``None`` before any update."""
        return self._value

    @property
    def n_samples(self) -> int:
        return len(self._buf)

    def reset(self) -> None:
        self._buf.clear()
        self._value = None
