"""Elastic Averaging SGD (Zhang, Choromańska & LeCun, 2014).

The paper cites EASGD ([37]) as the evidence that local exploration improves
generalization — the very argument SelSync leans on. EASGD keeps a *center*
variable on the PS; every ``tau`` steps each worker and the center pull
toward each other with elasticity ``rho``::

    x_i ← x_i − ρ (x_i − x̃)         (worker update)
    x̃  ← x̃ + ρ Σ_i (x_i − x̃)       (center update)

Workers otherwise run pure local SGD, so the center's bound on divergence is
elastic rather than hard (contrast SelSync-PA, which snaps every replica to
the average when it synchronizes).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro import obs
from repro.cluster.worker import SimWorker
from repro.core.config import ClusterConfig
from repro.core.trainer import DistributedTrainer
from repro.optim.schedules import LRSchedule


class EASGDTrainer(DistributedTrainer):
    """Synchronous EASGD over the simulated PS — the ``every-τ`` rule with
    an elastic pull in place of an average.

    Parameters
    ----------
    rho:
        Elasticity in (0, 1). The center-update uses the same ρ; stability
        requires ``N·ρ ≤ 1`` (checked).
    tau:
        Communication period in steps (τ=1 is the classic synchronous form).
    """

    name = "easgd"
    checkpointed = ("center",)

    def __init__(
        self,
        workers: List[SimWorker],
        cluster: ClusterConfig,
        schedule: Optional[LRSchedule] = None,
        rho: float = 0.1,
        tau: int = 4,
    ):
        super().__init__(workers, cluster, schedule)
        if not 0.0 < rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {rho}")
        _check_elasticity(rho, len(workers))
        if tau < 1:
            raise ValueError(f"tau must be >= 1, got {tau}")
        self.rho = rho
        self.tau = tau
        self.center = workers[0].get_params()

    def decide(self, i, ok, rec):
        # The center is parameter-shaped, but a membership change moves N:
        # the stability bound is re-checked at every world size.
        _check_elasticity(self.rho, len(self.workers))
        return (i + 1) % self.tau == 0, ok

    def uploaders(self, live, ok):
        # The elastic exchange is symmetric and ignores the gradient: every
        # live worker takes part, whether or not its local step survived
        # (the pipeline still drops lost pushes and fresh quarantines — such
        # a worker neither moves the center nor is pulled toward it).
        return live

    def outgoing(self, pushers):
        diffs = []
        for wid in pushers:
            w = self.workers[wid]
            # Live view is safe: the subtraction materializes ``d``
            # before ``set_params`` writes the buffer.
            p = w.get_params(copy=False)
            d = p - self.center
            # The worker half of the exchange. A Byzantine exchanger pulls
            # toward the center honestly (its replica is its own business)
            # but lies about the difference it reports, so only the center
            # update sees the hostile push.
            w.set_params(p - self.rho * d)
            diffs.append(d)
        return diffs

    def exchange(self, pushers, diffs, round_kw):
        if self.aggregator is not None:
            # Robust center update: ρ · k · robust-mean of the elastic
            # differences (for the mean strategy this equals the sum,
            # so the classic update is the aggregator=None special
            # case — kept verbatim below for byte-identity).
            agg = np.asarray(self.aggregator.reduce(diffs, where="elastic"))
            self.center = self.center + self.rho * len(diffs) * agg
        else:
            self.center = self.center + self.rho * np.sum(diffs, axis=0)
        obs.emit("aggregation", kind="elastic", n_contrib=len(pushers))
        self.group.charge_sync(self.comm_bytes, **round_kw)
        return None

    def mean_params(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """EASGD's deployable model is the center variable."""
        return self.center.copy() if out is None else self.center


def _check_elasticity(rho: float, n: int) -> None:
    if rho * n > 1.0:
        raise ValueError(
            f"unstable elasticity: N*rho = {rho * n:.2f} > 1 at world size {n}"
        )
