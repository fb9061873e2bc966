"""Optimizer base class."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.utils.flatten import snapshot


class Optimizer:
    """Base optimizer over a module's parameters.

    Subclasses implement :meth:`_update` for a single parameter given its
    slot state. The learning rate is mutable (``set_lr``) because the
    trainers drive it from an external :class:`~repro.optim.schedules.LRSchedule`,
    and SelSync needs the *same* schedule applied on local and synchronous
    steps alike.
    """

    def __init__(self, module: Module, lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.module = module
        self.lr = float(lr)
        self._state: List[Dict[str, np.ndarray]] = [
            {} for _ in module.parameters()
        ]

    def set_lr(self, lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        self.module.zero_grad()

    def step(self) -> None:
        """Apply one update from the currently accumulated gradients."""
        for p, state in zip(self.module.parameters(), self._state):
            if p.requires_grad:
                self._update(p, state)

    def _update(self, p: Parameter, state: Dict[str, np.ndarray]) -> None:
        raise NotImplementedError

    def reset_state(self) -> None:
        """Drop momentum/Adam slots (used when a worker re-syncs parameters)."""
        self._state = [{} for _ in self.module.parameters()]

    # -- checkpointing ----------------------------------------------------
    def state_dict(self, copy: bool = True) -> Dict:
        """Checkpointable snapshot: learning rate plus per-parameter slot
        arrays (momentum/Adam moments). Subclasses with extra state
        (e.g. SGD's whole-model flat velocity) extend this; ``copy=False``
        hands out read-only live views instead of copies."""
        return {
            "lr": self.lr,
            "state": [
                {k: snapshot(v, copy) for k, v in slot.items()}
                for slot in self._state
            ],
        }

    def load_state_dict(self, state: Dict) -> None:
        slots = state["state"]
        if len(slots) != len(self._state):
            raise ValueError(
                f"optimizer state mismatch: checkpoint has {len(slots)} "
                f"parameter slots, module has {len(self._state)}"
            )
        self.lr = float(state["lr"])
        self._state = [
            {k: np.array(v, copy=True) for k, v in slot.items()} for slot in slots
        ]
