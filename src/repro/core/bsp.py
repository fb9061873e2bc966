"""Bulk-synchronous parallel training (paper §II-A) with optional gradient
compression (§II-D comparators)."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro import obs
from repro.cluster.worker import SimWorker
from repro.core.config import ClusterConfig
from repro.core.trainer import DistributedTrainer, PerWorker
from repro.optim.schedules import LRSchedule


class BSPTrainer(DistributedTrainer):
    """Classic BSP — the ``always`` rule: aggregate every step, all
    replicas stay identical.

    Aggregation is gradient averaging (the BSP default; with lock-step
    identical replicas it is equivalent to parameter averaging, §III-C).
    An optional :class:`~repro.core.compression.base.Compressor` reduces the
    payload per sync, reproducing the sparsification/quantization baselines.
    """

    name = "bsp"
    exchanges_gradients = True
    checkpointed = ("_compressors",)

    def __init__(
        self,
        workers: List[SimWorker],
        cluster: ClusterConfig,
        schedule: Optional[LRSchedule] = None,
        compressor=None,
    ):
        super().__init__(workers, cluster, schedule)
        self.compressor = compressor
        # Per-worker clones so error-feedback state stays rank-local.
        self._compressors = (
            None if compressor is None else PerWorker(compressor.clone, len(workers))
        )
        # (payload bytes, codec seconds) of the round in flight.
        self._wire_cost = (self.comm_bytes, 0.0)

    def decide(self, i, ok, rec):
        return True, ok

    def outgoing(self, pushers):
        if self._compressors is None:
            return super().outgoing(pushers)
        # What arrives is the decompressed gradient (a Byzantine worker's
        # lie replaces it at the wire, after its honest compress).
        grads, payloads, overheads = [], [], []
        scale = self.comm_bytes / max(1.0, float(self.workers[0].model.nbytes))
        for wid in pushers:
            comp = self._compressors[wid]
            msg = comp.compress(self.workers[wid].get_grads())
            grads.append(comp.decompress(msg))
            payloads.append(msg.nbytes * scale)
            overheads.append(comp.overhead_seconds)
        self._wire_cost = (float(np.mean(payloads)), float(np.max(overheads)))
        return grads

    def exchange(self, pushers, vectors, round_kw):
        payload, codec_s = self._wire_cost
        mean_grad = self.group.allreduce_mean(vectors, nbytes=payload, **round_kw)
        # The slowest codec's seconds serialize after the round.
        codec = {} if self._compressors is None else {"codec_s": codec_s}
        obs.emit("aggregation", kind="GA", n_contrib=len(pushers), **codec)
        return mean_grad
