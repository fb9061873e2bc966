"""Simulated training worker (one model replica)."""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.data.loader import BatchLoader
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.optim.base import Optimizer
from repro.utils.flatten import snapshot


class SimWorker:
    """One simulated rank: a model replica, its optimizer and its data view.

    Trainers orchestrate workers; a worker only knows how to produce a
    gradient from the mini-batch it is handed and apply an optimizer step.
    Workers in one group always start from byte-identical parameters (the
    cluster builder seeds every replica with the same RNG), matching BSP's
    pull-initial-state-from-PS contract.
    """

    def __init__(
        self,
        worker_id: int,
        model: Module,
        optimizer: Optimizer,
        loader: BatchLoader,
        loss_factory: Callable[[], CrossEntropyLoss] = CrossEntropyLoss,
    ):
        self.worker_id = worker_id
        self.model = model
        self.optimizer = optimizer
        self.loader = loader
        self.loss_factory = loss_factory
        self.last_loss: float = float("nan")
        self.last_grad_sqnorm: float = float("nan")

    # -- gradient computation ------------------------------------------------
    def compute_gradient(self, batch: Tuple[np.ndarray, np.ndarray]) -> float:
        """Forward/backward on ``batch``, an ``(inputs, targets)`` pair the
        trainer drew (:meth:`~repro.core.trainer.DistributedTrainer.draw_batches`).

        Leaves the gradient accumulated in the model and returns the loss.
        Also records the squared L2 gradient norm, which the SelSync tracker
        consumes (Eqn. 2 works on ``||∇F||²``).
        """
        x, y = batch
        self.model.train()
        self.model.zero_grad()
        loss = self.loss_factory()
        out = self.model.forward(x)
        value = loss.forward(out, y)
        self.model.backward(loss.backward())
        self.last_loss = value
        g = self.model.get_flat_grads()
        self.last_grad_sqnorm = float(g @ g)
        return value

    # -- updates -----------------------------------------------------------
    def local_step(self, lr: float) -> None:
        """Apply one optimizer step from the accumulated gradient."""
        self.optimizer.set_lr(lr)
        self.optimizer.step()

    def apply_gradient(self, flat_grad: np.ndarray, lr: float) -> None:
        """Replace the accumulated gradient and step (gradient aggregation)."""
        self.model.set_flat_grads(flat_grad)
        self.local_step(lr)

    # -- parameter views -------------------------------------------------------
    def get_params(self, copy: bool = True) -> np.ndarray:
        """Flat parameter vector.

        Defaults to a private snapshot: most call sites stash the result
        across later parameter writes (deploy/restore, EASGD's center), and
        a live arena view would silently track those writes. Hot aggregation
        paths that consume the vector immediately pass ``copy=False`` for
        the O(1) read-only view.
        """
        return self.model.get_flat_params(copy=copy)

    def set_params(self, vec: np.ndarray) -> None:
        self.model.set_flat_params(vec)

    def resync(self, params: np.ndarray) -> None:
        """Rebase this replica onto ``params`` with fresh optimizer state.

        The shared re-entry path for every "worker comes back" transition
        — quarantine reinstatement, crash rejoin without a checkpoint, and
        a healed network partition: whatever momentum/EWMA the optimizer
        accumulated refers to a trajectory the cluster has moved past, so
        it is dropped along with the stale parameters.
        """
        self.set_params(params)
        self.optimizer.reset_state()

    def get_grads(self, copy: bool = False) -> np.ndarray:
        """Flat gradient vector — read-only live view by default (gradients
        are consumed immediately after compute, before the next backward)."""
        return self.model.get_flat_grads(copy=copy)

    @property
    def epoch(self) -> float:
        return self.loader.fractional_epoch

    # -- checkpointing ----------------------------------------------------
    def _rng_modules(self):
        """Submodules owning an RNG stream (dropout layers), in stable
        traversal order. Their states must be checkpointed for bitwise
        resume: a training forward pass consumes dropout randomness."""
        return [
            m
            for m in self.model.modules()
            if isinstance(getattr(m, "rng", None), np.random.Generator)
        ]

    def _buffer_modules(self):
        """Submodules with non-parameter buffers (BatchNorm running stats),
        in stable traversal order. The flat parameter vector excludes them,
        yet eval-mode forward passes read them — without these a resumed
        model trains identically but *evaluates* differently."""
        return [
            m
            for m in self.model.modules()
            if isinstance(getattr(m, "running_mean", None), np.ndarray)
        ]

    def model_mutable_state(self) -> Dict:
        """The model's mutable *non-parameter* state: dropout RNG streams
        and BatchNorm running statistics.

        This is exactly what a forward/backward pass touches beyond the
        parameter/gradient arenas, so it is what the process executor
        round-trips through the task pipe: the parent ships the current
        state with each task, the child ships the advanced state back.
        Small by construction — a handful of bit-generator dicts and
        per-channel vectors, never anything proportional to the model.
        """
        return {
            "rngs": [m.rng.bit_generator.state for m in self._rng_modules()],
            "buffers": [
                (m.running_mean.copy(), m.running_var.copy())
                for m in self._buffer_modules()
            ],
        }

    def set_model_mutable_state(self, state: Dict) -> None:
        """Install a :meth:`model_mutable_state` snapshot, in place."""
        rng_modules = self._rng_modules()
        buffer_modules = self._buffer_modules()
        if len(state["rngs"]) != len(rng_modules) or len(
            state["buffers"]
        ) != len(buffer_modules):
            raise ValueError(
                f"worker {self.worker_id}: mutable-state shape mismatch "
                f"({len(state['rngs'])} RNG streams for {len(rng_modules)} "
                f"modules, {len(state['buffers'])} buffer pairs for "
                f"{len(buffer_modules)} modules)"
            )
        for m, rng_state in zip(rng_modules, state["rngs"]):
            m.rng.bit_generator.state = rng_state
        for m, (mean, var) in zip(buffer_modules, state["buffers"]):
            m.running_mean[...] = mean
            m.running_var[...] = var

    def state_dict(self, copy: bool = True) -> Dict:
        """Full per-rank snapshot: parameters, optimizer slots, loader
        position/RNG and model-internal RNG streams (``copy`` as for
        :meth:`get_params`)."""
        return {
            "worker_id": self.worker_id,
            "params": self.get_params(copy=copy),
            "optimizer": self.optimizer.state_dict(copy),
            "loader": self.loader.state_dict(),
            "model_rngs": [m.rng.bit_generator.state for m in self._rng_modules()],
            "model_buffers": [
                {
                    "running_mean": snapshot(m.running_mean, copy),
                    "running_var": snapshot(m.running_var, copy),
                }
                for m in self._buffer_modules()
            ],
            "last_loss": self.last_loss,
            "last_grad_sqnorm": self.last_grad_sqnorm,
        }

    def load_state_dict(self, state: Dict) -> None:
        buffers = [
            (b["running_mean"], b["running_var"]) for b in state["model_buffers"]
        ]
        self.set_model_mutable_state({"rngs": state["model_rngs"], "buffers": buffers})
        self.set_params(np.asarray(state["params"]))
        self.optimizer.load_state_dict(state["optimizer"])
        self.loader.load_state_dict(state["loader"])
        self.last_loss = float(state["last_loss"])
        self.last_grad_sqnorm = float(state["last_grad_sqnorm"])


def build_worker_group(
    n_workers: int,
    model_factory: Callable[[], Module],
    optimizer_factory: Callable[[Module], Optimizer],
    loaders: List[BatchLoader],
    loss_factory: Callable[[], CrossEntropyLoss] = CrossEntropyLoss,
) -> List[SimWorker]:
    """Construct N identically initialized workers.

    ``model_factory`` must be deterministic (seeded) so every replica starts
    from the same parameters; this is verified rather than assumed, on a
    second build. Replicas 2..N-1 are copies of replica 0 taken before its
    arena exists; every arena is then built here, in replica order, which
    keeps the process's peak resident set where a factory-built group left it.
    """
    if len(loaders) != n_workers:
        raise ValueError(f"need {n_workers} loaders, got {len(loaders)}")
    models = [model_factory() for _ in range(min(n_workers, 2))]
    models += [copy.deepcopy(models[0]) for _ in range(n_workers - 2)]
    for model in models[1:]:
        if not np.array_equal(models[0].get_flat_params(), model.get_flat_params()):
            raise ValueError(
                "model_factory produced different initial parameters for "
                "different replicas; seed it deterministically"
            )
    return [
        SimWorker(n, model, optimizer_factory(model), loaders[n], loss_factory)
        for n, model in enumerate(models)
    ]
