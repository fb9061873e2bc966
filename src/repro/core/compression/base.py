"""Compressor interface.

``compress`` produces a :class:`CompressedMessage` whose ``nbytes`` is what
the wire would carry; ``decompress`` reconstructs a dense gradient. The
paper stresses that compression is not zero-cost (§II-D, citing GraVAC);
``overhead_seconds`` is the modelled compress+decompress latency the BSP
trainer charges per step.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.utils.registry import Registry
from repro.utils.state import Captured

COMPRESSORS: Registry = Registry("compressor")


@dataclass
class CompressedMessage:
    """A compressed gradient as it would cross the network."""

    payload: Any
    nbytes: int
    n_elements: int

    def __post_init__(self):
        if self.nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {self.nbytes}")


class Compressor(Captured):
    """Base gradient compressor with optional error feedback.

    Error feedback accumulates the residual (what compression dropped) into
    the next step's input — required for Top-k-style sparsifiers to converge
    (Alistarh et al. 2018) and used by DGC.

    Checkpointing is generic (:class:`~repro.utils.state.Captured`): a
    subclass overrides nothing, keeps evolving scalars in underscored
    attributes and its hyper-parameters in public ones — a ``ratio=0.01``
    residual restored into a ``ratio=0.1`` codec is refused.
    """

    #: modelled compress+decompress latency in seconds
    overhead_seconds: float = 1e-3

    def __init__(self, error_feedback: bool = False):
        self.error_feedback = error_feedback
        self._residual: np.ndarray = np.zeros(0)

    def clone(self) -> "Compressor":
        """Independent copy (per-worker state such as residuals/momentum)."""
        return copy.deepcopy(self)

    def compress(self, grad: np.ndarray) -> CompressedMessage:
        grad = np.asarray(grad, dtype=np.float64).ravel()
        if self.error_feedback:
            if self._residual.size != grad.size:
                self._residual = np.zeros_like(grad)
            grad = grad + self._residual
        msg = self._encode(grad)
        if self.error_feedback:
            self._residual = grad - self._decode(msg)
        return msg

    def decompress(self, msg: CompressedMessage) -> np.ndarray:
        return self._decode(msg)

    # subclass hooks ------------------------------------------------------
    def _encode(self, grad: np.ndarray) -> CompressedMessage:
        raise NotImplementedError

    def _decode(self, msg: CompressedMessage) -> np.ndarray:
        raise NotImplementedError


def build_compressor(name: str, **kwargs) -> Compressor:
    return COMPRESSORS.create(name, **kwargs)
