"""SelSync: δ-thresholded selective synchronization (paper §III, Alg. 1).

Every iteration each worker computes its gradient and the relative gradient
change Δ(g_i) (Eqn. 2, EWMA-smoothed). Workers whose Δ(g_i) ≥ δ raise a
1-bit flag; an allgather shares the flags and if *any* worker raised one,
the whole cluster synchronizes this step — by parameter aggregation (PA,
the paper's recommended mode) or gradient aggregation (GA, the §III-C
comparison). Otherwise every worker applies its own update locally.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro import obs
from repro.cluster.worker import SimWorker
from repro.core.config import ClusterConfig
from repro.core.grad_tracker import RelativeGradChange
from repro.core.trainer import DistributedTrainer, PerWorker
from repro.data.injection import DataInjector
from repro.optim.schedules import LRSchedule

#: Simulated per-step cost of computing Δ(g_i) with EWMA smoothing at w=25,
#: charged only to SelSync (BSP/FedAvg/SSP do not compute it — §IV-B; paper
#: Fig. 8a: ≈2–17 ms depending on the model; we charge a middle value).
DELTA_OVERHEAD_S = 3e-3

#: The two ways a sync round aggregates: parameters (PA) or gradients (GA).
AGGREGATIONS = ("params", "grads")


class SelSyncTrainer(DistributedTrainer):
    """The paper's contribution — the ``Δ(g) ≥ δ`` vote rule.

    Parameters
    ----------
    delta:
        Threshold δ on Δ(g_i). δ=0 degenerates to BSP; δ above the
        gradient-change extremum M degenerates to pure local-SGD (Fig. 6).
    aggregation:
        ``"params"`` (PA) or ``"grads"`` (GA). PA keeps every replica
        consistent with the global model after each sync; GA lets replicas
        drift because the averaged gradient lands on divergent parameters
        (§III-C) — implemented faithfully so Fig. 10/11 reproduce.
    ewma_window:
        Window of the Δ tracker; its smoothing factor is the paper's N/100
        heuristic.
    injector:
        Optional non-IID data injection (§III-E); its per-iteration P2P cost
        is charged to the clock and its donor RNG is checkpointed. Built for
        a fixed N: refused together with ``elastic_spec`` / ``scale_policy``.
    sync_vote:
        ``"any"`` (Alg. 1: one raised flag syncs everyone) or ``"majority"``
        (ablation: sync only when more than half of this step's voters — the
        live, unquarantined, uncorrupted workers — vote for it).
    delta_policy:
        Optional :class:`~repro.core.adaptive.DeltaPolicy` that picks the
        threshold online (extension beyond the paper); overrides ``delta``.
    """

    name = "selsync"
    checkpointed = ("trackers", "delta_policy", "injector")

    def __init__(
        self,
        workers: List[SimWorker],
        cluster: ClusterConfig,
        schedule: Optional[LRSchedule] = None,
        delta: float = 0.3,
        aggregation: str = "params",
        ewma_window: int = 25,
        injector: Optional[DataInjector] = None,
        sync_vote: str = "any",
        delta_policy=None,
    ):
        super().__init__(workers, cluster, schedule)
        if delta < 0:
            raise ValueError(f"δ must be >= 0, got {delta}")
        if aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}, got {aggregation!r}")
        if sync_vote not in ("any", "majority"):
            raise ValueError(f"sync_vote must be 'any' or 'majority', got {sync_vote!r}")
        if injector is not None and self.elastic is not None:
            raise NotImplementedError(
                f"injector: its P2P plan is built for {injector.n_workers} "
                "ranks and cannot follow a membership change; not supported "
                "together with elastic_spec / scale_policy"
            )
        self.delta = float(delta)
        self.aggregation = aggregation
        self.sync_vote = sync_vote
        self.injector = injector
        self.delta_policy = delta_policy
        alpha = min(1.0, max(0.01, cluster.n_workers / 100.0))
        self.trackers = PerWorker(
            lambda: RelativeGradChange(alpha=alpha, window=ewma_window), len(workers)
        )

    @property
    def exchanges_gradients(self) -> bool:
        return self.aggregation == "grads"

    @property
    def max_observed_delta(self) -> float:
        """Cluster-wide extremum M of Δ(g_i) (Fig. 6's upper bound)."""
        return max(t.max_delta for t in self.trackers)

    def draw_batches(self, live_workers):
        """Next mini-batch per live worker, with optional data injection.

        Injection requires the full worker set (the P2P plan is built for N
        ranks), so it is skipped on degraded steps where some workers are
        down — a fault-mode limitation, not a reproduction caveat.
        """
        batches = super().draw_batches(live_workers)
        if self.injector is not None and len(live_workers) == len(self.workers):
            result = self.injector.inject(batches)
            batches = result.batches
            self.group.p2p(result.bytes_transferred)
        return batches

    def decide(self, i, ok, rec):
        threshold = (
            self.delta
            if self.delta_policy is None
            else self.delta_policy.effective_delta(self, i)
        )
        # Only workers with an intact gradient update their Δ tracker and
        # vote — a NaN burst must not poison the EWMA (Eqn. 2), and a
        # health-quarantined worker loses its vote with its push. A
        # *naturally* non-finite gradient (numeric overflow on a replica
        # poisoned in an earlier round) gets the same treatment as an
        # injected NaN burst: the worker can neither update its EWMA nor
        # vote/push this round, and skips its local step until a sync
        # heals it. Fault-free runs never take this branch.
        voters = [w for w in ok if np.isfinite(self.workers[w].last_grad_sqnorm)]
        flags = [0] * len(self.workers)
        deltas = []
        for wid in voters:
            d = self.trackers[wid].update(self.workers[wid].last_grad_sqnorm)
            deltas.append(d)
            flags[wid] = 1 if d >= threshold else 0
            obs.emit("delta_eval", worker=wid, delta=float(d), vote=bool(flags[wid]),
                     threshold=float(threshold))

        gathered = self.group.allgather_flags(flags)
        if self.sync_vote == "any":
            sync = bool(gathered.any())
        else:
            # Majority of the workers that could vote this step: crashed,
            # quarantined and corrupted workers cannot raise a flag.
            sync = int(gathered.sum()) > len(voters) // 2
        # The decision's own cost: the flag allgather is communication, the
        # Δ(g) computation is compute charged only to SelSync (§IV-B).
        obs.emit("sync_decision", synced=bool(sync), n_flags=int(gathered.sum()),
                 vote=self.sync_vote, overhead_s=DELTA_OVERHEAD_S)
        if self.delta_policy is not None and hasattr(self.delta_policy, "observe"):
            self.delta_policy.observe(sync)
        finite = [d for d in deltas if np.isfinite(d)]
        rec.grad_change = float(max(finite)) if finite else float("inf")
        rec.extra["n_flags"] = float(int(gathered.sum()))
        return sync, voters
