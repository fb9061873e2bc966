"""Stochastic gradient descent with momentum, Nesterov and weight decay."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.optim.base import Optimizer
from repro.utils.flatten import snapshot


# Elements per panel of the flat update (128 KiB an operand) and its scratch.
PANEL = 16384
_scratch = np.empty((2, PANEL))


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
        """One update over the whole parameter arena when the module is
        arena-backed: the contiguous param/grad buffers walked in cache-sized
        panels through one scratch, so no model-sized temporary is allocated.
        Operation for operation the per-parameter path's arithmetic."""
        arena = self.module._ensure_arena()
        if (
            any(s for s in self._state)  # per-parameter slots in use
            or not all(p.requires_grad for p in arena.params)
        ):
            self._spill_flat_state()
            super().step()
            return
        p, g, v = arena.param_buf, arena.settled_grads(), self._flat_velocity
        if self.momentum and v is None:
            v = self._flat_velocity = np.zeros_like(p)
        for lo in range(0, p.size, PANEL):
            pp, d = p[lo : lo + PANEL], g[lo : lo + PANEL]
            s, t = _scratch[:, : pp.size]
            if self.weight_decay:
                d = np.add(d, np.multiply(pp, self.weight_decay, out=s), out=s)
            if self.momentum:
                vv = v[lo : lo + PANEL]
                vv *= self.momentum
                vv += d
                if self.nesterov:
                    d = np.add(d, np.multiply(vv, self.momentum, out=t), out=s)
                else:
                    d = vv
            pp -= np.multiply(d, self.lr, out=s)

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

    def state_dict(self, copy: bool = True) -> Dict:
        state = super().state_dict(copy)
        if self._flat_velocity is not None:
            state["flat_velocity"] = snapshot(self._flat_velocity, copy)
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
