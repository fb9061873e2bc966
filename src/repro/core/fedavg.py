"""Federated Averaging (paper §II-B).

FedAvg is configured as ``(C, E)``: every ``E``-th of an epoch, a random
``C``-fraction of workers pushes parameters; their average becomes the new
global model which all workers then pull. Between rounds every worker runs
pure local SGD — the low-frequency/high-volume strategy whose accuracy
penalty Table I documents.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.cluster.worker import SimWorker
from repro.core.config import ClusterConfig
from repro.core.trainer import DistributedTrainer
from repro.optim.schedules import LRSchedule
from repro.utils.rng import as_rng


class FedAvgTrainer(DistributedTrainer):
    """FedAvg over the simulated PS — the ``every-k`` rule with a sampled
    parameter-averaging round.

    Parameters
    ----------
    c_fraction:
        Fraction C of workers whose updates are aggregated each round.
    e_factor:
        Synchronization factor E = 1/x where x is rounds per epoch
        (E=0.25 ⇒ 4 uniformly spaced aggregations per epoch).
    """

    name = "fedavg"
    checkpointed = ("_rng",)

    def __init__(
        self,
        workers: List[SimWorker],
        cluster: ClusterConfig,
        schedule: Optional[LRSchedule] = None,
        c_fraction: float = 1.0,
        e_factor: float = 0.25,
    ):
        super().__init__(workers, cluster, schedule)
        if not 0.0 < c_fraction <= 1.0:
            raise ValueError(f"C must be in (0, 1], got {c_fraction}")
        if not 0.0 < e_factor <= 1.0:
            raise ValueError(f"E must be in (0, 1], got {e_factor}")
        self.c_fraction = c_fraction
        self.e_factor = e_factor
        steps_per_epoch = workers[0].loader.steps_per_epoch
        self.sync_interval = max(1, int(round(e_factor * steps_per_epoch)))
        self._rng = as_rng(cluster.seed + 7919)

    def n_participants(self) -> int:
        """Planned round size ⌈C·N⌉. The quorum is capped at it: a C=0.25
        round never involves more than this many workers, so demanding
        more contributors would always fail."""
        return max(1, int(np.ceil(self.c_fraction * len(self.workers))))

    def decide(self, i, ok, rec):
        return (i + 1) % self.sync_interval == 0, ok

    def uploaders(self, live, ok):
        # Sample the C-fraction from the pool of workers that stepped.
        pool = sorted(ok)
        k = min(self.n_participants(), len(pool))
        return [
            pool[int(c)]
            for c in self._rng.choice(len(pool), size=k, replace=False)
        ]

    def exchange(self, pushers, vectors, round_kw):
        # The C-sample's push round is the default PS round, over the
        # sampled ranks even on a fault-free run; when a live worker did not
        # push, the pull-back reaches the live workers as a half-round
        # outside the byte ledger.
        global_params = super().exchange(pushers, vectors, {**round_kw, "ranks": pushers})
        if len(pushers) < len(self.fault_protocol.live):
            self.group.pull(self.comm_bytes, self.fault_protocol.live)
        return global_params
