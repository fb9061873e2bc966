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


class Compressor:
    """Base gradient compressor with optional error feedback.

    Error feedback accumulates the residual (what compression dropped) into
    the next step's input — required for Top-k-style sparsifiers to converge
    (Alistarh et al. 2018) and used by DGC.

    Checkpointing is generic (:meth:`state_dict` captures ``vars(self)``):
    a subclass overrides nothing, keeps evolving scalars in underscored
    attributes and its hyper-parameters in public ones.
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

    # checkpointing -------------------------------------------------------
    def state_dict(self) -> dict:
        """The whole instance, ``vars(self)`` by name: arrays copied, a
        :class:`numpy.random.Generator` as its ``bit_generator.state``,
        anything with its own ``state_dict`` (a nested codec, a Δ tracker)
        recursed, scalars as they are — no codec lists its state by hand, so
        none can forget a buffer, a warm start or an RNG."""
        return {k: _capture(v) for k, v in vars(self).items()}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` into an instance built the same way.
        Underscored attributes, arrays, generators and nested objects are
        state; a public scalar is a hyper-parameter and must match — a
        ``ratio=0.01`` residual restored into a ``ratio=0.1`` codec would
        silently change what the wire carries."""
        mine = vars(self)
        if set(state) != set(mine):
            raise ValueError(
                f"{type(self).__name__} state mismatch: checkpoint has "
                f"{sorted(state)}, this instance has {sorted(mine)}"
            )
        for k, v in mine.items():
            if isinstance(v, np.random.Generator):
                v.bit_generator.state = state[k]
            elif hasattr(v, "load_state_dict"):
                v.load_state_dict(state[k])
            elif k.startswith("_") or isinstance(v, np.ndarray):
                setattr(self, k, _capture(state[k]))
            elif state[k] != v:
                raise ValueError(
                    f"{type(self).__name__} state mismatch: checkpoint has "
                    f"{k}={state[k]!r}, this instance has {k}={v!r}"
                )

    # subclass hooks ------------------------------------------------------
    def _encode(self, grad: np.ndarray) -> CompressedMessage:
        raise NotImplementedError

    def _decode(self, msg: CompressedMessage) -> np.ndarray:
        raise NotImplementedError


def _capture(v):
    """One attribute in checkpoint form (a scalar is returned as it is)."""
    if isinstance(v, np.random.Generator):
        return v.bit_generator.state
    if hasattr(v, "state_dict"):
        return v.state_dict()
    return v.copy() if isinstance(v, np.ndarray) else v


def build_compressor(name: str, **kwargs) -> Compressor:
    return COMPRESSORS.create(name, **kwargs)
