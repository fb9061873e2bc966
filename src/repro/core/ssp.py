"""Stale-Synchronous Parallel training (paper §II-C), event-driven.

Each worker asynchronously pulls the global parameters, computes a gradient
on its own shard, and pushes ``-lr·g`` to the PS, which applies updates in
arrival order. A worker may run ahead of the slowest worker by at most ``s``
iterations; beyond that it blocks until the laggard catches up. Staleness is
*real* in this simulation: between a worker's pull and its push, other
workers' updates land on the PS, so the pushed gradient was computed at
stale parameters — exactly the mechanism that stalls deep models in Table I.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro import obs
from repro.cluster.simclock import EventQueue
from repro.cluster.worker import SimWorker
from repro.core.config import ClusterConfig, TrainConfig
from repro.core.trainer import DistributedTrainer, TrainResult
from repro.optim.schedules import LRSchedule
from repro.utils.runlog import EvalRecord, IterationRecord, RunLog


class SSPTrainer(DistributedTrainer):
    """SSP with staleness threshold ``s``.

    ``n_steps`` in the run config is interpreted per worker, matching
    Table I's iteration counts (lock-step trainers advance all workers
    together, so the convention is consistent across methods).
    """

    name = "ssp"

    def __init__(
        self,
        workers: List[SimWorker],
        cluster: ClusterConfig,
        schedule: Optional[LRSchedule] = None,
        staleness: int = 100,
    ):
        super().__init__(workers, cluster, schedule)
        if staleness < 0:
            raise ValueError(f"staleness must be >= 0, got {staleness}")
        if self.health is not None:
            raise NotImplementedError(
                "SSP's event-driven loop has no lock-step aggregation "
                "rounds to screen; worker-health quarantine is not "
                "supported here (the PS-side non-finite guard and the "
                "norm_clip async transform still protect the globals)"
            )
        if self.elastic is not None:
            raise NotImplementedError(
                "SSP's event-driven loop has no step boundary at which to "
                "apply a membership change; elastic scaling is not "
                "supported here"
            )
        self.staleness = staleness

    # The event-driven loop replaces the lock-step run().
    def run(self, cfg: TrainConfig) -> TrainResult:
        if cfg.checkpoint_every is not None or cfg.resume_from is not None:
            raise NotImplementedError(
                "SSP's event-driven loop does not support checkpoint/resume: "
                "its in-flight event queue (one pending push per worker) is "
                "not at a step boundary at any wall-clock instant; use a "
                "lock-step trainer for checkpointed runs"
            )
        log = RunLog(name=self.name)
        self._log = log
        try:
            with obs.use(cfg.tracer):
                return self._run_events(cfg, log)
        finally:
            self._log = None

    def _run_events(self, cfg: TrainConfig, log: RunLog) -> TrainResult:
        n = len(self.workers)
        queue = EventQueue()
        iters = np.zeros(n, dtype=np.int64)
        blocked: List[int] = []
        batch = self.workers[0].loader.batch_size
        lr_of = self.lr
        # Pull + push over one worker's link: no barrier, so none of the
        # cluster-wide ingress collapse synchronous PS rounds pay.
        comm_t = 2.0 * self.cluster.net.transfer_time(self.comm_bytes)
        best: Optional[float] = None
        stale_evals = 0
        stop = False
        last_time = 0.0
        total_eval_interval = cfg.eval_every * n  # worker-steps between evals
        completed = 0
        # Fault bookkeeping. SSP has no global step, so fault windows are
        # interpreted in each worker's own iteration space: ``crash:w1@40-60``
        # downs worker 1 from its 40th to its 60th iteration. A crashed
        # worker recovers by pulling the current globals from the PS — the
        # asynchronous analogue of the lock-step checkpoint restore.
        alive = np.ones(n, dtype=bool)
        # Crash windows already served: a worker's iteration counter does
        # not advance while it is down, so after the rejoin the same window
        # still covers its iteration — each (worker, window) fires once.
        served_crashes: set = set()

        def note_eval(sim_time, metric, best, stale_evals):
            """The shared eval bookkeeping on SSP's axes: the step is the
            global completion index, the epoch the mean over workers."""
            return self._note_eval(
                cfg, log, completed - 1,
                float(np.mean([w.epoch for w in self.workers])),
                sim_time, metric, best, stale_evals,
                metric_name=EvalRecord.metric_name,
            )

        def live_min() -> int:
            """Staleness floor over workers that can still make progress."""
            return int(iters[alive].min()) if alive.any() else int(iters.min())

        def start(worker_id: int, now: float) -> None:
            """Pull, compute, and schedule the push completion."""
            k = int(iters[worker_id])
            crash = next(
                (
                    c
                    for c in self.faults.plan.of("crash")
                    if c.target == worker_id
                    and c.covers(k)
                    and (worker_id, c.start, c.end) not in served_crashes
                ),
                None,
            ) if self.faults.active else None
            if crash is not None:
                served_crashes.add((worker_id, crash.start, crash.end))
                self._record_fault(
                    k, worker_id, "crash",
                    until=-1 if crash.end is None else crash.end,
                )
                if crash.end is None:
                    alive[worker_id] = False
                    self.check_quorum(int(alive.sum()), k)
                    return
                # Downtime estimate: the remaining window, at this worker's
                # nominal (unstraggled, no-jitter) step duration.
                t_step = (
                    self.compute.mean_time(self.flops_per_sample, batch, worker_id)
                    + comm_t
                )
                queue.push(now + (crash.end - k) * t_step, worker=worker_id,
                           payload="rejoin")
                return
            w = self.workers[worker_id]
            w.set_params(self.server.pull(copy=False))
            batches, _ = self.draw_batches([w])
            self.executor.compute_gradients([w], batches)
            t_c = self.compute.sample_time(self.flops_per_sample, batch, worker_id)
            if self.faults.active:
                t_c *= self.faults.straggle_factor(worker_id, k)
            queue.push(now + t_c + comm_t, worker=worker_id)

        for wid in range(n):
            start(wid, 0.0)

        while queue and not stop:
            ev = queue.pop()
            wid = ev.worker
            w = self.workers[wid]
            if ev.payload == "rejoin":
                self._record_fault(
                    int(iters[wid]), wid, "rejoin", from_checkpoint=0
                )
                start(wid, ev.time)
                continue
            # Push: apply this worker's (possibly stale) update at the PS.
            k = int(iters[wid])
            push_delay = 0.0
            apply_update = True
            if self.faults.active:
                if self.faults.corrupts(wid, k):
                    # The PS rejects a NaN/inf burst instead of poisoning
                    # the globals; the worker's iteration still counts.
                    self._record_fault(k, wid, "corrupt")
                    apply_update = False
                else:
                    push_delay, lost = self._upload_outcome(wid, k, comm_t / 2.0)
                    if lost:
                        apply_update = False
                        push_delay = 0.0
            if apply_update and self.net_faults is not None:
                # SSP's fault windows live in each worker's own iteration
                # space, so the link draws are keyed on (worker, PS, k) —
                # begin_step installs k for this one push. A severed or
                # lossy PS uplink retries through the envelope; a terminal
                # loss drops this push (the worker keeps iterating and its
                # next successful push lands the newer gradient).
                self.group.begin_step(k)
                wait_s, delivered = self._push_outcome(wid, k, self.comm_bytes)
                if delivered:
                    push_delay += wait_s
                else:
                    apply_update = False
            if apply_update:
                grad = w.get_grads()
                if self.faults.active and self.faults.adversarial_corrupts(wid, k):
                    # Finite hostile push: passes the PS finiteness guard
                    # by design; only norm clipping can blunt it here.
                    grad = self.faults.adversarial_gradient(wid, k, grad)
                    self._record_fault(k, wid, "corrupt", adversarial=1)
                self.server.async_apply(-lr_of(k) * grad)
            iters[wid] += 1
            completed += 1
            log.record_iteration(
                IterationRecord(
                    step=completed - 1,
                    synced=False,
                    sim_time=ev.time - last_time,
                    comm_time=comm_t,
                    loss=w.last_loss,
                    extra={"worker": float(wid), "staleness": float(iters[wid] - live_min())},
                )
            )
            tr = obs.active()
            if tr is not None:
                # SSP has no lock-step rounds: the trace's step axis is the
                # global completion index, each event owned by the worker
                # whose push landed. The async pull+push is latency traffic
                # outside the full-model ``bytes_synced`` ledger, hence
                # ``bytes=0`` (same convention as allgather_flags/p2p).
                tr.emit(
                    "collective",
                    step=completed - 1,
                    worker=wid,
                    op="async_pushpull",
                    payload=float(self.comm_bytes),
                    bytes=0.0,
                    ranks=2,
                    seconds=comm_t,
                )
                if apply_update:
                    tr.emit(
                        "aggregation",
                        step=completed - 1,
                        worker=wid,
                        kind="async",
                        n_contrib=1,
                    )
                tr.emit(
                    "step_end",
                    step=completed - 1,
                    worker=wid,
                    synced=False,
                    sim_time=ev.time - last_time,
                    comm_time=comm_t,
                    loss=float(w.last_loss),
                    extra={"staleness": float(iters[wid] - live_min())},
                )
            last_time = ev.time

            # Periodic evaluation of the global model.
            if cfg.eval_fn is not None and completed % total_eval_interval == 0:
                best, stale_evals = note_eval(
                    ev.time, self.evaluate(cfg), best, stale_evals
                )
                if cfg.patience is not None and stale_evals >= cfg.patience:
                    stop = True

            if iters[wid] >= cfg.n_steps:
                pass  # this worker is done
            elif iters[wid] - live_min() > self.staleness:
                blocked.append(wid)  # too far ahead: wait for stragglers
            else:
                # Retry traffic delays only this worker's next pull.
                start(wid, ev.time + push_delay)

            # Unblock fast workers whose lead shrank back under the bound.
            # The staleness floor ignores permanently dead workers — they
            # would otherwise deadlock every survivor after s iterations.
            still_blocked = []
            for b in blocked:
                if iters[b] - live_min() <= self.staleness and iters[b] < cfg.n_steps:
                    start(b, ev.time)
                else:
                    still_blocked.append(b)
            blocked = still_blocked

        final_metric = None
        if cfg.eval_fn is not None:
            final_metric = self.evaluate(cfg)
            # The closing eval only competes for ``best`` (strictly, with
            # no improvement margin); the patience bookkeeping is over.
            note_eval(last_time, final_metric, best, stale_evals)
            if best is None or (
                final_metric > best if cfg.higher_is_better else final_metric < best
            ):
                best = final_metric

        return TrainResult(
            log=log,
            final_metric=final_metric,
            best_metric=best,
            # Per-worker iterations, comparable with the lock-step trainers.
            steps=int(iters.max()),
            sim_time=last_time,
            lssr=None,  # paper: LSSR does not apply to SSP
        )

    def mean_params(self) -> np.ndarray:
        """SSP's deployable model is the server's: a replica holds only its
        last, stale pull — every update lives at the PS."""
        return self.server.pull()
