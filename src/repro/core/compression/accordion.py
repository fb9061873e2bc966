"""Accordion-style adaptive compression (Agarwal et al. 2020, paper cite [27]).

Accordion is the work SelSync leans on for the Δ(g)-tracks-criticality
claim: it switches between a *low* and a *high* compression ratio depending
on whether training is in a critical regime, detected from relative gradient
change. This implementation reuses the same
:class:`~repro.core.grad_tracker.RelativeGradChange` tracker SelSync uses —
making the conceptual link executable: SelSync skips rounds in non-critical
regimes, Accordion shrinks them.
"""

from __future__ import annotations

import numpy as np

from repro.core.compression.base import COMPRESSORS, CompressedMessage, Compressor
from repro.core.compression.topk import TopKCompressor
from repro.core.grad_tracker import RelativeGradChange


@COMPRESSORS.register("accordion")
class AccordionCompressor(Compressor):
    """Top-k with a criticality-controlled ratio.

    Parameters
    ----------
    low_ratio / high_ratio:
        Kept-fraction outside / inside critical regimes (Accordion's
        ``k_low``/``k_high``; high_ratio > low_ratio).
    delta:
        Criticality threshold on Δ(‖g‖²), same semantics as SelSync's δ.
    ewma_alpha / ewma_window:
        Smoothing of the gradient-change tracker.
    """

    overhead_seconds = 1.5e-3

    def __init__(
        self,
        low_ratio: float = 0.01,
        high_ratio: float = 0.1,
        delta: float = 0.1,
        ewma_alpha: float = 0.16,
        ewma_window: int = 25,
        error_feedback: bool = True,
    ):
        super().__init__(error_feedback=error_feedback)
        if not 0.0 < low_ratio < high_ratio <= 1.0:
            raise ValueError(
                f"need 0 < low_ratio < high_ratio <= 1, got {low_ratio}, {high_ratio}"
            )
        if delta < 0:
            raise ValueError(f"δ must be >= 0, got {delta}")
        self.low = TopKCompressor(ratio=low_ratio, error_feedback=False)
        self.high = TopKCompressor(ratio=high_ratio, error_feedback=False)
        self.delta = delta
        self.tracker = RelativeGradChange(alpha=ewma_alpha, window=ewma_window)

    @property
    def n_total(self) -> int:
        """Gradients compressed so far — one tracker update each."""
        return self.tracker.n_updates

    def _encode(self, grad: np.ndarray) -> CompressedMessage:
        sqnorm = float(grad @ grad)
        d = self.tracker.update(sqnorm)
        critical = d >= self.delta
        inner = self.high if critical else self.low
        return inner._encode(grad)

    def _decode(self, msg: CompressedMessage) -> np.ndarray:
        # Both inner codecs share the (indices, values) wire format.
        return self.low._decode(msg)
