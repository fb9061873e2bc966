"""The fault protocol both schedules call: every fault decision and record.

:mod:`repro.cluster.faults` says what a fault plan *means*; this module is
what a trainer *does* about it. :class:`FaultProtocol` owns the injector, the
health tracker, the link-fault oracle, the quorum and the live set of the
step in flight, and it is the one place a fault is written down
(:meth:`FaultProtocol.record`). The trainer keeps only what moves replicas
and rule state, handed in as callbacks (:meth:`FaultProtocol.begin`).

A lock-step rule keys faults on the run's step. SSP keys them on a worker's
own iteration: its record carries that iteration as its step, and its
``fault`` event sits at the landed push in flight with the iteration as
``iteration`` — every event of a push is at that push's step, so an SSP
trace streams and a resumed one concatenates.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.cluster.faults import QuorumLostError, StepFaults
from repro.utils.runlog import FaultRecord, RunLog


class FaultProtocol:
    """Fault decisions and records for one trainer's cluster.

    ``workers`` is the trainer's own list (a membership change edits it in
    place). ``rule`` is the trainer class, read for ``communicates`` (local
    SGD's ``False`` exempts it from partitions) and ``iteration_keyed``
    (SSP keys faults on a worker's own iteration)."""

    def __init__(self, cluster, group, workers: list, comm_bytes: float, shard_spec, rule):
        self.group, self.workers, self.comm_bytes = group, workers, comm_bytes
        self.shard_spec = shard_spec
        self.communicates, self.iteration_keyed = rule.communicates, rule.iteration_keyed
        # Link-level fault oracle shared with the collectives; ``None``
        # whenever no net-fault spec is set (the fault-free fast path).
        self.net_faults = group.link_faults
        # One upload on the wire: what a dropped push pays again per retry.
        self.transfer_s = cluster.net.transfer_time(comm_bytes)
        #: RunLog of the run in progress; ``None`` outside ``run``.
        self.log: Optional[RunLog] = None
        self.resize(cluster)

    def resize(self, cluster) -> None:
        """Start over ``cluster``'s world size: a fresh injector, quorum and
        health cohort (outlier scores against a different cohort are not
        comparable), every rank live."""
        self.faults = cluster.make_fault_injector()
        self.health = cluster.make_health()
        self.quorum = cluster.effective_quorum
        # Live set of the step in flight; the deployable mean covers
        # exactly these replicas.
        self.live: List[int] = list(range(cluster.n_workers))
        # Per-worker simulated compute seconds of the latest round; the
        # health tracker's straggle signal.
        self.compute_times: Optional[np.ndarray] = None

    @property
    def degraded_mode(self) -> bool:
        """True when a round may cover a strict subset of the cluster: an
        active fault plan, health quarantine, or link faults (a partition or
        a terminally lost upload shrinks the round). With all three idle a
        round covers all N workers, byte-identical to the plain path."""
        return self.faults.active or self.health is not None or self.net_faults is not None

    def record(self, step: int, worker: int, kind: str, *, at_iteration: bool = True,
               **detail) -> FaultRecord:
        """The one fault writer: a RunLog :class:`FaultRecord` at ``step``
        plus the ``fault`` trace event (``worker=-1`` for cluster-wide
        incidents). Iteration-keyed, the event is the step in flight's and
        carries ``step`` as ``iteration``, unless ``at_iteration=False``
        marks ``step`` as the loop's own (a divergence incident)."""
        rec = FaultRecord(step=step, worker=worker, kind=kind, detail=detail)
        if self.log is not None:
            self.log.record_fault(rec)
        if self.iteration_keyed and at_iteration:
            obs.emit("fault", worker=worker, fault_kind=kind, iteration=step, **detail)
        else:
            obs.emit("fault", step=step, worker=worker, fault_kind=kind, **detail)
        return rec

    # -- opening a lock-step step -------------------------------------------------
    def begin(
        self,
        i: int,
        restore: Callable[[int, List[int]], bool],
        rebase: Callable[[Sequence[int], Sequence[int]], None],
    ) -> StepFaults:
        """Open step ``i`` under the fault plan: record crash / rejoin /
        straggle transitions, reinstate workers whose probation elapsed,
        filter still-quarantined workers out of the live set, record a
        partition's onset and heal, and raise :class:`QuorumLostError` if
        fewer live workers remain than the quorum. The step's live set
        becomes :attr:`live`.

        Replicas move only through the callbacks, each just before the
        record that names it: ``restore(wid, donors)`` re-enters a
        crash-rejoining worker (from the latest checkpoint, returning True,
        or on the donors' mean), ``rebase(wids, donors)`` re-enters workers
        on the donors' mean with fresh optimizer and rule state.
        """
        self.group.begin_step(i)
        sf = self.faults.begin_step(i)
        for c in self.faults.plan.of("crash"):
            if c.start == i and c.target in sf.crashed:
                self.record(i, c.target, "crash", until=-1 if c.end is None else c.end)
        for wid in sf.rejoined:
            donors = [j for j in self.faults.live_workers(i) if j != wid]
            self.record(i, wid, "rejoin", from_checkpoint=int(restore(wid, donors)))
        for s in self.faults.plan.of("straggle"):
            if s.start == i:
                until = -1 if s.end is None else s.end
                self.record(i, s.target, "straggle", factor=s.value, until=until)
        if self.health is not None:
            for wid in self.health.due_reinstatements(i):
                # Back on the consensus of the non-quarantined live replicas
                # (the server's globals are stale for non-PA rules).
                self.health.release(wid)
                rebase([wid], [j for j in sf.live if j != wid and not self.health.quarantined(j)])
                self.record(i, wid, "reinstate")
                obs.emit("reinstate", step=i, worker=wid)
            quarantined = set(self.health.quarantined_workers)
            if quarantined:
                sf.live = [w for w in sf.live if w not in quarantined]
        if self.net_faults is not None and self.communicates:
            # Onset and heal are read off the plan — this step's majority
            # side against the last step's — so nothing is remembered and a
            # run resumed inside the window records neither twice.
            majority = self.net_faults.majority_side(i)
            before = self.net_faults.majority_side(i - 1)
            if majority is not None:
                if before is None:
                    cut = [w for w in sf.live if w not in majority]
                    self.record(i, -1, "partition", majority=list(majority), cut=cut)
                # Minority-side workers are unreachable (their links to
                # both the PS and the majority are severed): training
                # continues on the majority side only.
                sf.live = [w for w in sf.live if w in majority]
            elif before is not None:
                # Healed: live workers off the last partitioned step's
                # majority side re-enter like a crash rejoin without a
                # checkpoint — a gradient-aggregating rule never re-ships
                # parameters.
                cut = [w for w in sf.live if w not in before]
                donors = [w for w in sf.live if w in before]
                if donors:
                    rebase(cut, donors)
                    for wid in cut:
                        self.record(i, wid, "rejoin", healed_partition=True)
        self.live = sf.live
        self.check_quorum(len(sf.live), i)
        return sf

    def straggled(self, times: np.ndarray, step: int) -> np.ndarray:
        """A round's per-worker compute ``times`` scaled by the straggle
        factors, kept as the health tracker's straggle signal."""
        if self.faults.active:
            times = times * np.array(
                [self.faults.straggle_factor(w, step) for w in range(len(times))]
            )
        self.compute_times = times
        return times

    # -- a lock-step step's updates -----------------------------------------------
    def apply_corruption(self, sf: StepFaults) -> List[int]:
        """Poison this step's corrupt-targeted gradients; returns the live
        workers whose gradient survived.

        A NaN-poisoned worker's ``last_grad_sqnorm`` is NaN'd so no tracker
        can silently smooth it, and it drops out. An *adversarial* worker is
        a Byzantine liar: its replica and gradient stay honest, but what it
        puts on the wire (``sf.wire_lies``, swapped in by
        :meth:`wire_updates`) and the norm any tracker or health screen
        reads are a finite hostile fabrication. It stays in (it passes every
        finiteness check); only robust aggregation or health screening can
        defuse it.
        """
        if not sf.corrupted and not sf.adversarial:
            return list(sf.live)
        for wid in sf.corrupted:
            w = self.workers[wid]
            w.model.set_flat_grads(
                self.faults.corrupt_gradient(wid, sf.step, w.get_grads(copy=False))
            )
            w.last_grad_sqnorm = float("nan")
            self.record(sf.step, wid, "corrupt")
        for wid in sf.adversarial:
            w = self.workers[wid]
            hostile = self.faults.adversarial_gradient(wid, sf.step, w.get_grads(copy=False))
            sf.wire_lies[wid] = hostile
            w.last_grad_sqnorm = float(np.dot(hostile, hostile))
            self.record(sf.step, wid, "corrupt", adversarial=1)
        corrupted = set(sf.corrupted)
        return [wid for wid in sf.live if wid not in corrupted]

    def screen_updates(
        self, step: int, candidates: Sequence[int], observed: Optional[Sequence[int]] = None
    ) -> List[int]:
        """Health-screen this round's contributing workers: feed each
        observed worker's update norm (NaN for a poisoned gradient) and
        compute time to the health tracker, quarantine the newly flagged
        (typed faults plus ``quarantine`` events) and drop them from the
        contributors. ``observed`` widens the scored set (a NaN-poisoned
        worker already fell out of ``candidates`` but still collects its
        strike). Identity with health tracking off."""
        if self.health is None:
            return list(candidates)
        observed = candidates if observed is None else observed
        norms: Dict[int, float] = {}
        for wid in observed:
            sq = float(self.workers[wid].last_grad_sqnorm)
            norms[wid] = float(np.sqrt(sq)) if sq >= 0.0 else float("nan")
        times = None
        if self.compute_times is not None:
            times = {wid: float(self.compute_times[wid]) for wid in observed}
        flagged = self.health.observe(step, norms, times)
        if not flagged:
            return list(candidates)
        for d in flagged:
            detail = dict(reason=d.reason, score=float(d.score), until=d.until)
            self.record(step, d.worker, "quarantine", **detail)
            obs.emit("quarantine", step=step, worker=d.worker, **detail)
        bad = {d.worker for d in flagged}
        return [w for w in candidates if w not in bad]

    def check_quorum(self, n_contributing: int, step: int, cap: Optional[int] = None) -> None:
        """Raise :class:`QuorumLostError` (carrying ``step`` /
        ``contributing`` / ``quorum``, so the recovery supervisor can relax
        the quorum to the survivors) when fewer than ``quorum`` workers can
        contribute. ``cap`` is the round's planned size: a FedAvg round
        sampling ``k`` workers is held to ``min(quorum, k)``."""
        if n_contributing >= (self.quorum if cap is None else min(self.quorum, cap)):
            return
        self.record(step, -1, "quorum_lost", contributing=n_contributing, quorum=self.quorum)
        err = QuorumLostError(
            f"step {step}: only {n_contributing} worker(s) can contribute "
            f"but min_quorum={self.quorum}; refusing to aggregate a "
            "partial mean"
        )
        err.step, err.contributing, err.quorum = step, n_contributing, self.quorum
        raise err

    def wire_updates(
        self, wids: Sequence[int], vectors: Sequence[np.ndarray], lies: Dict[int, np.ndarray]
    ) -> List[np.ndarray]:
        """What arrives of ``vectors[j]``, worker ``wids[j]``'s push: an
        adversarial worker's is the hostile vector :meth:`apply_corruption`
        fabricated, whatever the protocol phase."""
        return [lies.get(wid, v) for wid, v in zip(wids, vectors)]

    # -- a push's fate: retries, then the envelope -----------------------------------
    def retry_upload(self, wid: int, step: int) -> Tuple[float, bool]:
        """One upload under the ``drop`` fault: ``(retry seconds, abandoned)``
        with the typed ``drop`` record when it retried. Each retry resends
        the payload (straggle-scaled) and backs off; an upload abandoned
        after :data:`~repro.cluster.faults.MAX_UPLOAD_RETRIES` charges
        nothing."""
        if not self.faults.active:
            return 0.0, False
        penalty, retries, abandoned = self.faults.upload_penalty_seconds(
            wid, step, self.transfer_s
        )
        if retries:
            self.record(step, wid, "drop", retries=retries, lost=int(abandoned))
        return (0.0, True) if abandoned else (penalty, False)

    def envelope_push(
        self, wid: int, step: int, streams: Sequence[Tuple[Optional[int], float]]
    ) -> Tuple[float, List[Optional[int]]]:
        """One push through the retrying envelope, one message per parallel
        ``(shard, bytes)`` stream (``shard=None``: the whole payload):
        ``(wait of the slowest delivered stream, shards lost)``, with a
        typed ``link_drop`` record per terminal loss."""
        wait, lost = 0.0, []
        for s, nbytes in streams:
            wait_s, delivered = self.group.push_outcome(wid, nbytes, shard=s)
            if delivered:
                wait = max(wait, wait_s)
            else:
                where = {} if s is None else {"shard": s}
                self.record(step, wid, "link_drop", **where, wait_s=float(wait_s))
                lost.append(s)
        return wait, lost

    def upload_penalty(
        self, uploaders: Sequence[int], step: int
    ) -> Tuple[float, List[int], Dict[int, set]]:
        """A lock-step push phase: ``(seconds, lost, shard_lost)``.

        Every pusher's :meth:`retry_upload`, then — with link faults on a PS
        topology; ring / tree rounds meet them inside the collective — its
        :meth:`envelope_push`, one stream per PS shard. All drop fates go
        first, which keeps the RunLog's fault order. Uploads run in
        parallel: each of the two waits is the max over pushers. An
        abandoned upload or a lost unsharded push drops the worker from the
        round (``lost``); a lost shard message only from that shard's round
        (``shard_lost``: shard → worker ids, the round's ``absent``).
        """
        extra = 0.0
        lost: List[int] = []
        shard_lost: Dict[int, set] = {}
        for wid in uploaders:
            penalty, abandoned = self.retry_upload(wid, step)
            if abandoned:
                lost.append(wid)
            extra = max(extra, penalty)
        if self.net_faults is not None and self.group.topology.name == "ps":
            streams = (
                [(None, self.comm_bytes)]
                if self.shard_spec is None
                else list(enumerate(self.shard_spec.int_payloads(self.comm_bytes)))
            )
            net_extra = 0.0
            for wid in [w for w in uploaders if w not in lost]:
                wait_s, missed = self.envelope_push(wid, step, streams)
                net_extra = max(net_extra, wait_s)
                for s in missed:
                    if s is None:
                        lost.append(wid)
                    else:
                        shard_lost.setdefault(s, set()).add(wid)
            extra += net_extra
        return extra, lost, shard_lost

    def async_push(self, wid: int, step: int) -> Tuple[Optional[np.ndarray], float]:
        """SSP's one pusher at its own iteration ``step``: ``(vector that
        lands or None, seconds its retries delay the worker's next pull)``.
        The PS rejects a NaN burst outright; any other push meets a
        lock-step pusher's fate with the unsharded payload on any topology
        (link draws keyed on the worker's iteration), and an adversarial
        worker's landed push is its hostile vector."""
        if self.faults.corrupts(wid, step):
            self.record(step, wid, "corrupt")
            return None, 0.0
        delay, abandoned = self.retry_upload(wid, step)
        if abandoned:
            return None, 0.0
        if self.net_faults is not None:
            self.group.begin_step(step)
            wait_s, missed = self.envelope_push(wid, step, [(None, self.comm_bytes)])
            if missed:
                return None, delay
            delay += wait_s
        grad = self.workers[wid].get_grads()
        if self.faults.adversarial_corrupts(wid, step):
            grad = self.faults.adversarial_gradient(wid, step, grad)
            self.record(step, wid, "corrupt", adversarial=1)
        return grad, delay
