"""Relative gradient change tracking — the heart of SelSync (paper §III-A).

Implements Eqn. (2):

    Δ(g_i) = | (E[||∇F_i||²] − E[||∇F_{i−1}||²]) / E[||∇F_{i−1}||²] |

where ``E[·]`` is an EWMA over a sliding window (noise smoothing, §III-B's
``RelativeGradChange`` routine). The tracker also remembers the running
extremum ``M = max_i Δ(g_i)`` which bounds the useful range of the δ
threshold (Fig. 6: δ=0 ⇒ pure BSP, δ>M ⇒ pure local-SGD).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.ewma import Ewma
from repro.utils.state import Captured


class RelativeGradChange(Captured):
    """Streaming Δ(g_i) estimator over squared gradient norms.

    Parameters
    ----------
    alpha:
        EWMA smoothing factor; the paper uses ``N/100`` (0.16 at N=16).
    window:
        EWMA window size; the paper finds w=25 sufficient (Fig. 8a shows
        the overhead of larger windows).
    """

    def __init__(self, alpha: float = 0.16, window: int = 25):
        self._ewma = Ewma(alpha=alpha, window=window)
        self._prev_smoothed: Optional[float] = None
        self._max_delta: float = 0.0
        self._n_updates: int = 0

    @property
    def window(self) -> int:
        return self._ewma.window

    @property
    def alpha(self) -> float:
        return self._ewma.alpha

    def update(self, grad_sqnorm: float) -> float:
        """Ingest ``||∇F_i||²`` and return Δ(g_i).

        The very first iteration has no predecessor; we return ``inf`` so
        that any finite δ classifies it as a synchronization step — workers
        must agree on an initial state before local training means anything.
        """
        if grad_sqnorm < 0:
            raise ValueError(f"squared norm cannot be negative: {grad_sqnorm}")
        smoothed = self._ewma.update(grad_sqnorm)
        if self._prev_smoothed is None:
            delta = float("inf")
        elif self._prev_smoothed == 0.0:
            # A zero smoothed norm means the model stopped moving entirely;
            # any nonzero gradient afterwards is an infinite relative change.
            delta = 0.0 if smoothed == 0.0 else float("inf")
        else:
            delta = abs((smoothed - self._prev_smoothed) / self._prev_smoothed)
        self._prev_smoothed = smoothed
        if np.isfinite(delta):
            self._max_delta = max(self._max_delta, delta)
        self._n_updates += 1
        return delta

    @property
    def max_delta(self) -> float:
        """Running extremum M of finite Δ(g_i) values (paper §III-B)."""
        return self._max_delta

    @property
    def n_updates(self) -> int:
        return self._n_updates

    def reset(self) -> None:
        self._ewma.reset()
        self._prev_smoothed = None
        self._n_updates = 0
