"""Stale-Synchronous Parallel training (paper §II-C), event-driven.

Each worker asynchronously pulls the global parameters, computes a gradient
on its own shard, and pushes ``-lr·g`` to the PS, which applies updates in
arrival order. A worker may run ahead of the slowest worker by at most ``s``
iterations; beyond that it blocks until the laggard catches up. Staleness is
*real* in this simulation: between a worker's pull and its push, other
workers' updates land on the PS, so the pushed gradient was computed at
stale parameters — exactly the mechanism that stalls deep models in Table I.

A step of the shared run loop is one push landing at the PS. A worker
pulls when it starts an iteration and computes its gradient when the push
lands, at the pulled parameters its replica still holds: between two steps
only the event heap is in flight, and with a few counters it is the checkpoint.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.cluster.simclock import EventQueue
from repro.cluster.worker import SimWorker
from repro.core.config import ClusterConfig, TrainConfig
from repro.core.trainer import DistributedTrainer, TrainResult
from repro.optim.schedules import LRSchedule
from repro.utils.runlog import IterationRecord, RunLog


class SSPTrainer(DistributedTrainer):
    """SSP with staleness threshold ``s``. ``n_steps`` counts per-worker
    iterations (Table I's), and fault windows live in each worker's own
    iteration space: ``crash:w1@40-60`` downs worker 1 from its 40th to its
    60th iteration, after which it pulls the current globals."""

    name = "ssp"
    iteration_keyed = True
    checkpointed = ("queue", "iters", "alive", "blocked", "served")

    def __init__(self, workers: List[SimWorker], cluster: ClusterConfig,
                 schedule: Optional[LRSchedule] = None, staleness: int = 100):
        super().__init__(workers, cluster, schedule)
        if staleness < 0:
            raise ValueError(f"staleness must be >= 0, got {staleness}")
        if self.health is not None:
            raise NotImplementedError(
                "SSP's event-driven loop has no lock-step aggregation rounds to "
                "screen; worker-health quarantine is not supported here (the "
                "PS-side non-finite guard and the norm_clip async transform "
                "still protect the globals)")
        if self.elastic is not None:
            raise NotImplementedError(
                "SSP's event-driven loop has no step boundary at which to apply "
                "a membership change; elastic scaling is not supported here")
        self.staleness = staleness
        # Pull + push over one worker's link: no barrier, no ingress collapse.
        self._comm_t = 2.0 * cluster.net.transfer_time(self.comm_bytes)
        self._cap = 0  # per-worker iterations of the run in progress
        self._reset()

    def _reset(self) -> None:
        """Before any pull. ``served`` holds ``[worker, start, end]``: a down
        worker's counter stands still, so its window fires only once."""
        n = len(self.workers)
        self.queue = EventQueue()
        self.iters = np.zeros(n, dtype=np.int64)
        self.alive = np.ones(n, dtype=bool)
        self.blocked: List[int] = []
        self.served: List[list] = []

    # -- the run loop's hooks -------------------------------------------------
    def horizon(self, cfg: TrainConfig) -> int:
        """N·``n_steps`` pushes less what a permanent crash removes."""
        self._cap = cfg.n_steps
        caps = [cfg.n_steps] * len(self.workers)
        for c in self.faults.plan.of("crash"):
            if c.end is None:
                caps[c.target] = min(caps[c.target], c.start)
        return sum(caps)

    def eval_period(self, cfg: TrainConfig) -> int:
        return cfg.eval_every * len(self.workers)

    def eval_point(self, clock: float) -> Tuple[float, float]:
        return float(np.mean([w.epoch for w in self.workers])), self.queue.now

    def result(self, log: RunLog, best: Optional[float]) -> TrainResult:
        # Per-worker iterations; paper: LSSR does not apply to SSP.
        return replace(super().result(log, best), steps=int(self.iters.max()),
                       sim_time=self.queue.now, lssr=None)

    def mean_params(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        return self.server.pull(copy=out is None)  # a replica holds only its stale pull

    # -- one push lands ---------------------------------------------------------
    def step(self, i: int) -> IterationRecord:
        if i == 0:
            self._reset()
            for wid in range(len(self.workers)):
                self._start(wid, 0.0)
        last_push = self.queue.now
        ev = self.queue.pop()
        while ev.payload == "rejoin":
            self.fault_protocol.record(
                int(self.iters[ev.worker]), ev.worker, "rejoin", from_checkpoint=0
            )
            self._start(ev.worker, ev.time)
            ev = self.queue.pop()
        wid, k = ev.worker, int(self.iters[ev.worker])
        w = self.workers[wid]
        self.executor.compute_gradients([w], self.draw_batches([w]))
        # A rejected or lost push still counts as an iteration; the
        # worker's next one lands the newer gradient.
        landed, push_delay = self.fault_protocol.async_push(wid, k)
        if landed is not None:
            self.server.async_apply(-self.lr(k) * landed)
        self.iters[wid] += 1
        lead = float(self.iters[wid] - self._live_min())
        rec = IterationRecord(
            step=i, synced=False, sim_time=ev.time - last_push,
            comm_time=self._comm_t, loss=w.last_loss,
            extra={"worker": float(wid), "staleness": lead},
        )
        # Latency traffic, outside the ``bytes_synced`` ledger.
        obs.emit("collective", step=i, worker=wid, op="async_pushpull", ranks=2,
                 payload=float(self.comm_bytes), bytes=0.0, seconds=self._comm_t)
        if landed is not None:
            obs.emit("aggregation", step=i, worker=wid, kind="async", n_contrib=1)
        if lead > self.staleness and self.iters[wid] < self._cap:
            self.blocked.append(wid)  # too far ahead: wait for stragglers
        elif self.iters[wid] < self._cap:
            self._start(wid, ev.time + push_delay)  # retries delay its next pull
        blocked, self.blocked = self.blocked, []
        for b in blocked:
            if self.iters[b] - self._live_min() <= self.staleness and self.iters[b] < self._cap:
                self._start(b, ev.time)
            else:
                self.blocked.append(b)
        return rec

    def _live_min(self) -> int:
        """Staleness floor; a permanently dead worker is not holding anyone."""
        live = self.iters[self.alive] if self.alive.any() else self.iters
        return int(live.min())

    def _start(self, wid: int, now: float) -> None:
        """Pull and schedule the push — or, in a crash window, the rejoin."""
        k = int(self.iters[wid])
        crash = next((
            c for c in self.faults.plan.of("crash")
            if c.target == wid and c.covers(k) and [wid, c.start, c.end] not in self.served
        ), None)
        batch = self.workers[wid].loader.batch_size
        if crash is not None:
            self.served.append([wid, crash.start, crash.end])
            fp = self.fault_protocol
            fp.record(k, wid, "crash", until=-1 if crash.end is None else crash.end)
            if crash.end is None:
                self.alive[wid] = False
                fp.check_quorum(int(self.alive.sum()), k)
                return
            # Downtime: the rest of the window at the nominal step duration.
            t_step = self.compute.mean_time(self.flops_per_sample, batch, wid) + self._comm_t
            self.queue.push(now + (crash.end - k) * t_step, worker=wid, payload="rejoin")
            return
        self.workers[wid].set_params(self.server.pull(copy=False))
        t_c = self.compute.sample_time(self.flops_per_sample, batch, wid)
        if self.faults.active:
            t_c *= self.faults.straggle_factor(wid, k)
        self.queue.push(now + t_c + self._comm_t, worker=wid)
