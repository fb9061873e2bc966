"""Stochastic gradient descent with momentum, Nesterov and weight decay."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.optim.base import Optimizer


class SGD(Optimizer):
    """SGD implementing Eqn. (1)'s update with the standard extensions.

    ``velocity = momentum * velocity + grad + weight_decay * param`` and the
    parameter moves against ``velocity`` (or the Nesterov look-ahead form).
    This matches the hyperparameters the paper reports for ResNet101/VGG11
    (momentum 0.9 with weight decay) and the Transformer (plain SGD).
    """

    def __init__(
        self,
        module: Module,
        lr: float = 0.1,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ):
        super().__init__(module, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0.0:
            raise ValueError(f"weight decay must be >= 0, got {weight_decay}")
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        # Whole-model velocity used by the flat (arena) update path.
        self._flat_velocity: Optional[np.ndarray] = None

    def step(self) -> None:
        """One update, vectorized over the whole parameter arena when the
        module is arena-backed: a handful of ufunc calls on the contiguous
        param/grad buffers instead of a Python loop over parameters. The
        arithmetic is elementwise-identical to the per-parameter path."""
        arena = self.module._ensure_arena()
        if (
            any(s for s in self._state)  # per-parameter slots in use
            or not all(p.requires_grad for p in arena.params)
        ):
            self._spill_flat_state()
            super().step()
            return
        p = arena.param_buf
        g = arena.grad_buf
        if self.weight_decay:
            g = g + self.weight_decay * p
        if self.momentum:
            v = self._flat_velocity
            if v is None:
                v = self._flat_velocity = np.zeros_like(p)
            v *= self.momentum
            v += g
            g = g + self.momentum * v if self.nesterov else v
        p -= self.lr * g

    def _spill_flat_state(self) -> None:
        """Move flat velocity into per-parameter slots so momentum survives
        a switch to the per-parameter path (a parameter frozen mid-run)."""
        v = self._flat_velocity
        if v is None:
            return
        self._flat_velocity = None
        offset = 0
        for p, state in zip(self.module.parameters(), self._state):
            n = p.data.size
            state["velocity"] = v[offset : offset + n].reshape(p.data.shape).copy()
            offset += n

    def reset_state(self) -> None:
        self._flat_velocity = None
        super().reset_state()

    def state_dict(self) -> Dict:
        state = super().state_dict()
        if self._flat_velocity is not None:
            state["flat_velocity"] = self._flat_velocity.copy()
        return state

    def load_state_dict(self, state: Dict) -> None:
        super().load_state_dict(state)
        v = state.get("flat_velocity")
        self._flat_velocity = None if v is None else np.array(v, copy=True)

    def _update(self, p: Parameter, state: Dict[str, np.ndarray]) -> None:
        g = p.grad
        if self.weight_decay:
            g = g + self.weight_decay * p.data
        if self.momentum:
            if "velocity" not in state:
                state["velocity"] = np.zeros_like(p.data)
            v = state["velocity"]
            v *= self.momentum
            v += g
            g = g + self.momentum * v if self.nesterov else v
        p.data -= self.lr * g
