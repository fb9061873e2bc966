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
from repro.core.trainer import DistributedTrainer
from repro.data.injection import DataInjector
from repro.optim.schedules import LRSchedule
from repro.utils.runlog import IterationRecord

#: Default simulated cost of computing Δ(g_i) with EWMA smoothing at w=25
#: (paper Fig. 8a: ≈2–17 ms depending on the model; we charge a middle value).
DEFAULT_DELTA_OVERHEAD_S = 3e-3


class SelSyncTrainer(DistributedTrainer):
    """The paper's contribution.

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
    ewma_alpha / ewma_window:
        Smoothing parameters of the Δ tracker. ``None`` alpha uses the
        paper's N/100 heuristic.
    injector:
        Optional non-IID data injection (§III-E); its per-iteration P2P cost
        is charged to the clock.
    sync_vote:
        ``"any"`` (Alg. 1: one raised flag syncs everyone) or ``"majority"``
        (ablation: sync only when more than half of this step's voters — the
        live, unquarantined, uncorrupted workers — vote for it).
    delta_overhead_s:
        Simulated per-step cost of the Δ(g_i) computation, charged only to
        SelSync (BSP/FedAvg/SSP do not compute it — §IV-B).
    delta_policy:
        Optional :class:`~repro.core.adaptive.DeltaPolicy` that picks the
        threshold online (extension beyond the paper); overrides ``delta``.
    """

    name = "selsync"

    def __init__(
        self,
        workers: List[SimWorker],
        cluster: ClusterConfig,
        schedule: Optional[LRSchedule] = None,
        delta: float = 0.3,
        aggregation: str = "params",
        ewma_alpha: Optional[float] = None,
        ewma_window: int = 25,
        injector: Optional[DataInjector] = None,
        sync_vote: str = "any",
        delta_overhead_s: float = DEFAULT_DELTA_OVERHEAD_S,
        delta_policy=None,
    ):
        super().__init__(workers, cluster, schedule)
        if delta < 0:
            raise ValueError(f"δ must be >= 0, got {delta}")
        if aggregation not in ("params", "grads"):
            raise ValueError(f"aggregation must be 'params' or 'grads', got {aggregation!r}")
        if sync_vote not in ("any", "majority"):
            raise ValueError(f"sync_vote must be 'any' or 'majority', got {sync_vote!r}")
        self.delta = float(delta)
        self.aggregation = aggregation
        self.sync_vote = sync_vote
        self.injector = injector
        self.delta_overhead_s = delta_overhead_s
        self.delta_policy = delta_policy
        alpha = ewma_alpha if ewma_alpha is not None else min(1.0, max(0.01, cluster.n_workers / 100.0))
        self.trackers = [
            RelativeGradChange(alpha=alpha, window=ewma_window) for _ in workers
        ]

    @property
    def max_observed_delta(self) -> float:
        """Cluster-wide extremum M of Δ(g_i) (Fig. 6's upper bound)."""
        return max(t.max_delta for t in self.trackers)

    def _gather_batches(self, live=None):
        """Next mini-batch per live worker, with optional data injection.

        Injection requires the full worker set (the P2P plan is built for N
        ranks), so it is skipped on degraded steps where some workers are
        down — a fault-mode limitation, not a reproduction caveat.
        """
        workers = (
            self.workers if live is None else [self.workers[w] for w in live]
        )
        batches = [w.loader.next_batch() for w in workers]
        inject_time = 0.0
        if self.injector is not None and len(workers) == len(self.workers):
            result = self.injector.inject(batches)
            batches = result.batches
            inject_time = self.group.p2p(result.bytes_transferred)
        return batches, inject_time

    def step(self, i: int) -> IterationRecord:
        sf = self.begin_faults(i)
        degraded = self.degraded_mode
        live = sf.live
        live_workers = [self.workers[w] for w in live]

        lr = self.lr(i)
        batches, inject_time = self._gather_batches(live if degraded else None)
        batch_size = len(batches[0][0])
        t_c = self.max_compute_time(batch_size, step=i, live=live)
        threshold = (
            self.delta
            if self.delta_policy is None
            else self.delta_policy.effective_delta(self, i)
        )

        losses = self.executor.compute_gradients(live_workers, batches)
        # Live workers with an intact gradient; only they update their Δ
        # tracker and vote — a NaN burst must not poison the EWMA (Eqn. 2),
        # and a health-quarantined worker loses its vote with its push.
        voters = self.apply_corruption(sf)
        voters = self.screen_updates(i, voters, observed=live)
        # A *naturally* non-finite gradient (numeric overflow on a replica
        # poisoned in an earlier round) gets the same treatment as an
        # injected NaN burst: the worker can neither update its EWMA nor
        # vote/push this round, and skips its local step until a sync
        # heals it. Fault-free runs never take this branch.
        voters = [
            w for w in voters if np.isfinite(self.workers[w].last_grad_sqnorm)
        ]
        voter_set = set(voters)
        flags = [0] * len(self.workers)
        deltas = []
        tr = obs.active()
        for wid in voters:
            d = self.trackers[wid].update(self.workers[wid].last_grad_sqnorm)
            deltas.append(d)
            flags[wid] = 1 if d >= threshold else 0
            if tr is not None:
                tr.emit(
                    "delta_eval",
                    worker=wid,
                    delta=float(d),
                    vote=bool(flags[wid]),
                    threshold=float(threshold),
                )

        gathered, t_flags = self.group.allgather_flags(flags)
        if self.sync_vote == "any":
            sync = bool(gathered.any())
        else:
            # Majority of the workers that could vote this step: crashed,
            # quarantined and corrupted workers cannot raise a flag.
            sync = int(gathered.sum()) > len(voters) // 2
        if tr is not None:
            tr.emit(
                "sync_decision",
                synced=bool(sync),
                n_flags=int(gathered.sum()),
                vote=self.sync_vote,
            )

        t_s = 0.0
        pushers = voters
        if sync:
            # Upload faults only bite when a sync round actually pushes.
            t_retry, lost = self.upload_penalty(voters, i)
            if lost:
                lost_set = set(lost)
                pushers = [w for w in voters if w not in lost_set]
            self.check_quorum(len(pushers), i)
        if self.aggregation == "params":
            # Alg. 1 line 9: apply local updates unconditionally... but a
            # corrupted gradient must not land on the replica; the worker
            # skips its step and (on sync) heals from the pulled average.
            for wid in live:
                if wid in voter_set:
                    self.workers[wid].local_step(lr)
            if sync:
                # ...then push w_{i+1} and pull the average (lines 14-15).
                global_params = self.server.aggregate_params(
                    self.wire_updates(
                        pushers,
                        [self.workers[w].get_params(copy=False) for w in pushers],
                    )
                )
                t_s = self.group.charge_sync(
                    self.comm_bytes,
                    n_live=len(pushers) if degraded else None,
                    rank_ids=pushers if degraded else None,
                )
                if tr is not None:
                    tr.emit("aggregation", kind="PA", n_contrib=len(pushers))
                for w in live_workers:
                    w.set_params(global_params)
        else:  # gradient aggregation
            if sync:
                mean_grad = self.server.aggregate_grads(
                    self.wire_updates(
                        pushers, [self.workers[w].get_grads() for w in pushers]
                    )
                )
                t_s = self.group.charge_sync(
                    self.comm_bytes,
                    n_live=len(pushers) if degraded else None,
                    rank_ids=pushers if degraded else None,
                )
                if tr is not None:
                    tr.emit("aggregation", kind="GA", n_contrib=len(pushers))
                # The same averaged gradient lands on *divergent* local
                # parameters — replicas are NOT re-consistent afterwards.
                # The mean replaces every live worker's gradient, healing
                # corrupted ones.
                for w in live_workers:
                    w.apply_gradient(mean_grad, lr)
            else:
                for wid in live:
                    if wid in voter_set:
                        self.workers[wid].local_step(lr)

        t_s = self.effective_sync_time(t_s, t_c)
        if sync and degraded:
            t_s += t_retry
        if self.delta_policy is not None and hasattr(self.delta_policy, "observe"):
            self.delta_policy.observe(sync)

        finite = [d for d in deltas if np.isfinite(d)]
        return IterationRecord(
            step=i,
            synced=sync,
            sim_time=t_c + t_flags + self.delta_overhead_s + t_s + inject_time,
            comm_time=t_flags + t_s + inject_time,
            loss=float(np.mean(losses)),
            grad_change=float(max(finite)) if finite else float("inf"),
            extra={"n_flags": float(int(gathered.sum()))},
        )

    # -- fault/checkpoint hooks -------------------------------------------
    def _on_worker_rejoin(self, worker_id: int, from_checkpoint: bool) -> None:
        if from_checkpoint and self._latest_checkpoint is not None:
            self.trackers[worker_id].load_state_dict(
                self._latest_checkpoint["extra"]["trackers"][worker_id]
            )
        else:
            # No checkpoint to restore from: the Δ history died with the
            # worker; restart the EWMA (first update re-seeds it).
            self.trackers[worker_id].reset()

    def _resize_per_worker_state(self, mapping):
        """Realign the per-worker Δ trackers with the new membership:
        surviving workers keep their EWMA history, joiners (and every rank
        on an elastic resume) start a fresh tracker with the original
        smoothing parameters."""
        proto = self.trackers[0]
        self.trackers = [
            self.trackers[old]
            if old is not None
            else RelativeGradChange(alpha=proto.alpha, window=proto.window)
            for old in mapping
        ]

    def _extra_state(self):
        state = {"trackers": [t.state_dict() for t in self.trackers]}
        if self.delta_policy is not None:
            state["delta_policy"] = self.delta_policy.state_dict()
        return state

    def _load_extra_state(self, state):
        for t, s in zip(self.trackers, state["trackers"]):
            t.load_state_dict(s)
        if self.delta_policy is not None:
            self.delta_policy.load_state_dict(state.get("delta_policy", {}))
