"""Distributed-trainer base class and result container.

The lock-step trainers (BSP, FedAvg, EASGD, SelSync, local-SGD) are *sync
rules* of the one :meth:`DistributedTrainer.step` pipeline — each supplies
only the per-iteration decision and the exchange arithmetic — and inherit
the shared loop: per-step time accounting, periodic evaluation of the
deployable model, the paper's until-no-improvement stopping rule, RunLog
assembly — and, beyond the paper, the fault/recovery machinery: every
fault decision and record is the :class:`FaultProtocol`'s
(:mod:`repro.core.fault_protocol`: deterministic injection, degraded-mode
aggregation over the live worker subset with a configurable quorum), and
checkpoint/resume continues bitwise-identically. SSP runs the same
loop with one landed push as its step (the schedule hooks :meth:`horizon`,
:meth:`eval_period`, :meth:`eval_point` and :meth:`result`).

Fault-free runs are bitwise-identical to a build without the fault
subsystem: with no ``fault_spec`` every fault hook leaves the live set
whole, and the compute-jitter RNG is always drawn for the full worker set
so the stream never shifts.

Every component records events through :func:`repro.obs.emit` — the run
loop the ``step_begin``/``step_end``/``compute_phase``/``eval``/
``checkpoint_save`` spine, the fault protocol ``fault``, the rules and the
comm/cluster layers their own — and a step's simulated clock is
:func:`repro.obs.views.clock` over the events it emitted, whether or not
``TrainConfig.tracer`` installs a :class:`repro.obs.Tracer`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dataclass_replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.obs import views
from repro.cluster.elastic import ElasticContext, derive_rng_seed
from repro.cluster.faults import StepFaults
from repro.data.loader import BatchLoader
from repro.cluster.server import ParameterServer
from repro.cluster.worker import SimWorker
from repro.core.config import ClusterConfig, TrainConfig
from repro.core.fault_protocol import FaultProtocol
from repro.optim.schedules import ConstantLR, LRSchedule
from repro.utils.flatten import mean_into
from repro.utils.runlog import EvalRecord, IterationRecord, RunLog
from repro.utils.serialization import (
    CHECKPOINT_VERSION,
    RunLogLines,
    load_checkpoint,
    runlog_from_jsonable,
    save_checkpoint,
    settle_checkpoints,
)
from repro.utils.state import capture, restore

# Salts for the (seed, salt, step)-keyed RNG streams a membership change
# draws from — never the trainer streams, so elastic decisions and the
# post-resize jitter/partition draws are executor- and resume-independent.
_REPART_SALT = 0x9E1A57
_LOADER_SALT = 0x10ADE5
_COMPUTE_SALT = 0xC03B17

#: Smallest metric delta that counts as progress for the patience rule.
MIN_IMPROVEMENT = 1e-4


def patience_step(
    cfg: TrainConfig, best: Optional[float], stale_evals: int, metric: float
) -> Tuple[Optional[float], int]:
    """Fold one evaluation into the until-no-improvement state: the new
    ``(best, stale_evals)`` — the caller applies ``cfg.patience``."""
    if best is None:
        improved = True
    elif cfg.higher_is_better:
        improved = metric > best + MIN_IMPROVEMENT
    else:
        improved = metric < best - MIN_IMPROVEMENT
    return (metric, 0) if improved else (best, stale_evals + 1)


@dataclass
class TrainResult:
    """Outcome of one training run."""

    log: RunLog
    final_metric: Optional[float]
    best_metric: Optional[float]
    steps: int
    sim_time: float
    lssr: Optional[float]


class PerWorker(list):
    """One object per worker rank, each built by ``factory`` — a rule's Δ
    trackers, its codec clones. Named in the rule's ``checkpointed``, the
    list follows its ranks: a crash-rejoining worker's entry is read back
    from the checkpoint, every other re-entering worker's (a rejoin without
    one, a reinstatement, a healed partition) is reset to a fresh object's
    state, and a membership change realigns it."""

    def __init__(self, factory: Callable[[], object], n: int):
        super().__init__(factory() for _ in range(n))
        self.factory = factory


class DistributedTrainer:
    """Shared machinery for every trainer: one run loop.

    :meth:`step` is the one fixed lock-step pipeline; a subclass is a *sync rule*
    filling its hooks — :meth:`decide`, plus :meth:`exchange` /
    :meth:`draw_batches` / :meth:`uploaders` / :meth:`n_participants` /
    :meth:`outgoing` where the rule departs from the defaults — and naming
    its own state in :attr:`checkpointed`. Everything else (clock,
    evaluation cadence, early stopping, checkpointing, and through
    :attr:`fault_protocol` fault handling and quorum) lives here so all
    methods are compared under identical protocols.
    """

    name = "abstract"
    #: Whether this protocol moves data between workers at all. LocalSGD
    #: sets this False: a network partition cannot hurt a protocol that
    #: never communicates, so partition liveness filtering skips it.
    communicates = True
    #: True when the exchange averages *gradients* and the pulled mean is
    #: applied as the step (GA): pushers send gradients, and a sync step
    #: skips the local update. False (PA): the local update always runs,
    #: pushers send parameters, and the pulled vector replaces the replica.
    exchanges_gradients = False
    #: The rule's own state, by attribute name: captured whole under the
    #: checkpoint's ``extra`` section (:mod:`repro.utils.state`).
    checkpointed: Tuple[str, ...] = ()
    #: True when fault windows are read on each worker's own iteration
    #: (SSP) instead of the run's step (:class:`FaultProtocol`).
    iteration_keyed = False

    def __init__(
        self,
        workers: List[SimWorker],
        cluster: ClusterConfig,
        schedule: Optional[LRSchedule] = None,
    ):
        if len(workers) != cluster.n_workers:
            raise ValueError(
                f"got {len(workers)} workers for cluster of {cluster.n_workers}"
            )
        self.workers = workers
        self.cluster = cluster
        # One robust-aggregation strategy instance shared by the collectives
        # and the PS; ``None`` (aggregator="mean") keeps both on the exact
        # legacy mean arithmetic.
        self.aggregator = cluster.make_aggregator()
        # Shard geometry over the model's tensor sizes (registration order
        # matches the flat arena layout); ``None`` when only one shard
        # results — the one shard ``slice(None)``.
        self.shard_spec = cluster.make_shard_spec(
            [int(p.data.size) for p in workers[0].model.parameters()]
        )
        self.group = cluster.make_group(self.aggregator, shard_spec=self.shard_spec)
        self.compute = cluster.make_compute(cluster.seed)
        self.executor = cluster.make_executor()
        # Stateful backends need the full group before the first compute
        # call — trainers routinely hand them subsets (live workers, SSP's
        # per-worker events). The process backend also rebinds the arenas
        # to shared memory here, so do it before anything else takes views.
        self.executor.bind(self.workers)
        self.server = ParameterServer(
            workers[0].get_params(copy=False),
            aggregator=self.aggregator,
            spec=self.shard_spec,
        )
        self._deploy = tuple(workers[0].get_params(copy=True) for _ in range(2))
        self.schedule = schedule if schedule is not None else ConstantLR(0.01)
        model = workers[0].model
        self.comm_bytes = (
            float(model.nbytes) if cluster.comm_bytes is None else float(cluster.comm_bytes)
        )
        self.flops_per_sample = (
            float(getattr(model, "flops_per_sample", 2 * model.n_parameters))
            if cluster.flops_per_sample is None
            else float(cluster.flops_per_sample)
        )
        self.fault_protocol = FaultProtocol(
            cluster, self.group, workers, self.comm_bytes, self.shard_spec, type(self)
        )
        # Path of the checkpoint last written or resumed from; a rejoining
        # worker reads its rank state back from that file (crash recovery).
        self._latest_checkpoint: Optional[str] = None
        self._log_lines = RunLogLines()
        # Elastic membership controller; ``None`` (the default) keeps the
        # fixed-membership fast path — no elastic code runs anywhere, and
        # checkpoints never grow the "elastic" key.
        self.elastic = cluster.make_elastic()
        if self.elastic is not None:
            self.elastic.attach(cluster.n_workers)
        # Workload factories membership changes are materialized from
        # (joiner replicas, repartitioned loaders); see :meth:`bind_elastic`.
        self.elastic_ctx: Optional[ElasticContext] = None

    # -- the lock-step pipeline ---------------------------------------------
    def step(self, i: int) -> IterationRecord:
        """One lock-step iteration (stage list: DESIGN.md, "Step pipeline").

        The protocol order — faults, compute, corrupt + screen, decide,
        local update, push round, exchange — is fixed here; a rule only
        fills the hooks below and never calls a protocol helper. Each
        simulated second is on the event that charges it: the step's clock
        is :func:`repro.obs.views.clock` over the events it emitted.
        """
        with obs.collect() as events:
            sf = self.begin_faults(i)
            live = sf.live
            live_workers = [self.workers[w] for w in live]
            lr = self.lr(i)
            batches = self.draw_batches(live_workers)
            self.compute_phase(len(batches[0][0]), i)
            losses = self.executor.compute_gradients(live_workers, batches)
            # Live workers whose update survived corruption and health
            # screening: only they vote, step locally and may push.
            ok = self.screen_updates(i, self.apply_corruption(sf), observed=live)
            rec = IterationRecord(step=i, synced=False, sim_time=0.0, loss=float(np.mean(losses)))
            rec.synced, ok = self.decide(i, ok, rec)
            if not (rec.synced and self.exchanges_gradients):
                # A dropped (corrupt / quarantined) gradient never lands on
                # its replica; on a sync step the pull heals that worker.
                for wid in ok:
                    self.workers[wid].local_step(lr)
            if rec.synced:
                # Push round: upload faults only bite when a round pushes.
                pushers = self.uploaders(live, ok)
                upload_s, lost, shard_lost = self.upload_penalty(pushers, i)
                gone = set(lost)
                pushers = [w for w in pushers if w not in gone]
                if self.health is not None:
                    # A rule that uploads beyond ``ok`` (EASGD: all of
                    # ``live``) must still sit out this step's quarantines.
                    pushers = [w for w in pushers if not self.health.quarantined(w)]
                fp = self.fault_protocol
                fp.check_quorum(len(pushers), i, cap=self.n_participants())
                # The one place a round's arguments are built: without
                # them SimGroup treats a short vector list as an error.
                round_kw = {"ranks": pushers} if fp.degraded_mode else {}
                if shard_lost:
                    # Worker ids → positions in the round's final pusher list.
                    round_kw["absent"] = {
                        s: {j for j, w in enumerate(pushers) if w in ws}
                        for s, ws in shard_lost.items()
                    }
                if upload_s > 0.0:
                    # The push phase's wait, serialized after the sync.
                    round_kw["upload_s"] = upload_s
                vectors = self.wire_updates(pushers, self.outgoing(pushers), sf.wire_lies)
                pulled = self.exchange(pushers, vectors, round_kw)
                if pulled is not None:
                    # Every *live* worker takes the pull — a corrupted or
                    # upload-lost worker too, which heals its replica.
                    for w in live_workers:
                        if self.exchanges_gradients:
                            w.apply_gradient(pulled, lr)
                        else:
                            w.set_params(pulled)
        rec.sim_time, rec.comm_time = views.clock(events)
        return rec

    # -- rule hooks ----------------------------------------------------------
    def draw_batches(self, live_workers: Sequence[SimWorker]) -> List:
        """This step's batches — the one place a mini-batch is drawn: each
        worker's next batch, in worker order, on the coordinating thread,
        so every executor sees the same stream."""
        return [w.loader.next_batch() for w in live_workers]

    def decide(
        self, i: int, ok: List[int], rec: IterationRecord
    ) -> Tuple[bool, List[int]]:
        """The rule's per-iteration choice: ``(sync?, ok)``. May narrow the
        contributing set and annotate ``rec`` (``grad_change``, ``extra``);
        what the decision costs is on the events it emits."""
        raise NotImplementedError

    def uploaders(self, live: List[int], ok: List[int]) -> List[int]:
        """Workers that push in this sync round (before upload faults)."""
        return ok

    def n_participants(self) -> int:
        """Planned size of a full round; the quorum never demands more."""
        return len(self.workers)

    def outgoing(self, pushers: Sequence[int]) -> List[np.ndarray]:
        """What each pusher puts on the wire, in ``pushers`` order."""
        if self.exchanges_gradients:
            return [self.workers[w].get_grads() for w in pushers]
        return [self.workers[w].get_params(copy=False) for w in pushers]

    def exchange(
        self, pushers: List[int], vectors: List[np.ndarray], round_kw: Dict
    ) -> Optional[np.ndarray]:
        """Aggregate the vectors that arrived and charge the round.

        Returns the vector every live worker pulls (``None`` when the rule
        already moved the replicas itself). ``round_kw`` goes verbatim to
        the group's ``allreduce_mean`` / ``charge_sync``; its ``absent``
        entry (present only when a shard push was lost) also goes to the
        server's ``aggregate_params`` / ``aggregate_grads``.

        The default is one parameter-server round: the server averages the
        pushed parameters (PA, Alg. 1 lines 14-15: every replica is
        consistent again) or gradients (GA: the same mean lands on
        *divergent* replicas, §III-C), then the round is charged to the
        byte ledger.
        """
        aggregate = (
            self.server.aggregate_grads
            if self.exchanges_gradients
            else self.server.aggregate_params
        )
        pulled = aggregate(vectors, absent=round_kw.get("absent"))
        self.group.charge_sync(self.comm_bytes, **round_kw)
        obs.emit("aggregation", kind="GA" if self.exchanges_gradients else "PA",
                 n_contrib=len(pushers))
        return pulled

    def _per_worker(self) -> List[Tuple[str, PerWorker]]:
        named = [(name, getattr(self, name)) for name in self.checkpointed]
        return [(name, v) for name, v in named if isinstance(v, PerWorker)]

    def _renew_rank_state(self, wid: int, path: Optional[str] = None) -> None:
        """A returning worker's :class:`PerWorker` entries, in place: its
        rank's branch of the checkpoint at ``path``, or a fresh object's
        state without one."""
        for name, per in self._per_worker():
            per[wid].load_state_dict(
                per.factory().state_dict() if path is None
                else load_checkpoint(path, ("state", "extra", name, wid))
            )

    def _realign_per_worker(self, mapping: Sequence[Optional[int]]) -> None:
        """Follow a membership change: ``mapping[new_rank]`` is the rank
        before it, or ``None`` for a joiner (and for every rank on an
        elastic resume, whose state loads right after)."""
        for name, per in self._per_worker():
            realigned = PerWorker(per.factory, 0)
            realigned.extend(
                per.factory() if old is None else per[old] for old in mapping
            )
            setattr(self, name, realigned)

    # -- shared helpers --------------------------------------------------------
    def lr(self, i: int) -> float:
        return self.schedule(i)

    def compute_phase(self, batch_size: int, step: int) -> None:
        """Lock-step compute phase: all workers run concurrently, the round
        takes as long as the slowest (the straggler effect of §II-A) — the
        ``compute_phase`` event's ``max``.

        The jitter RNG is always drawn for the *full* worker set so the
        stream is identical with and without faults; injected straggle
        factors then scale per-worker times and the max is taken over the
        step's live set only (a dead worker delays nobody). The per-worker
        times are the straggler heatmap's raw data
        (:func:`repro.obs.views.straggler_matrix`).
        """
        times = self.fault_protocol.straggled(
            self.compute.sample_all(self.flops_per_sample, batch_size), step
        )
        obs.emit("compute_phase", step=step, times=[float(x) for x in times],
                 max=float(times[self.fault_protocol.live].max()))

    # -- fault protocol --------------------------------------------------------
    # The step's protocol calls, named on the trainer so a profiler can wrap
    # them; every decision and record is the FaultProtocol's. The trainer
    # keeps only what moves replicas and rule state.
    faults = property(lambda self: self.fault_protocol.faults)
    health = property(lambda self: self.fault_protocol.health)

    def begin_faults(self, i: int) -> StepFaults:
        """Open step ``i`` (:meth:`FaultProtocol.begin`), moving the
        re-entering replicas."""
        return self.fault_protocol.begin(i, self._restore_rejoined_worker, self._rebase)

    def apply_corruption(self, sf: StepFaults) -> List[int]:
        return self.fault_protocol.apply_corruption(sf)

    def screen_updates(self, step, candidates, observed=None) -> List[int]:
        return self.fault_protocol.screen_updates(step, candidates, observed)

    def upload_penalty(self, uploaders, step) -> Tuple[float, List[int], Dict[int, set]]:
        return self.fault_protocol.upload_penalty(uploaders, step)

    def wire_updates(self, wids, vectors, lies) -> List[np.ndarray]:
        return self.fault_protocol.wire_updates(wids, vectors, lies)

    def _rebase(self, wids: Sequence[int], donors: Sequence[int]) -> None:
        """Re-enter ``wids`` on the plain mean of the donors' replicas with
        fresh optimizer state (:meth:`~repro.cluster.worker.SimWorker.resync`)
        and fresh rule state; with no donor left the replica stays as it is."""
        if donors:
            consensus = mean_into(
                [self.workers[j].get_params(copy=False) for j in donors]
            )
        for wid in wids:
            if donors:
                self.workers[wid].resync(consensus)
            else:
                self.workers[wid].optimizer.reset_state()
            self._renew_rank_state(wid)

    def _restore_rejoined_worker(self, wid: int, donors: Sequence[int]) -> bool:
        """Crash-recovery: a rejoining worker restores its rank state — its
        replica and the rule's per-worker entries — from the latest
        checkpoint (returns True); with no checkpoint it re-enters on the
        donors' mean with fresh optimizer and rule state."""
        path = self._latest_checkpoint
        if path is None:
            self._rebase([wid], donors)
            return False
        self.workers[wid].load_state_dict(load_checkpoint(path, ("state", "workers", wid)))
        self._renew_rank_state(wid, path)
        return True

    # -- parameter views --------------------------------------------------
    def mean_params(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Aggregate of the live worker replicas — the deployable params
        (into ``out`` when given; the result is good until the next step).

        Covers the current step's live, non-quarantined set only; a crashed
        or quarantined worker's stale replica must not drag the serving model
        backwards. A robust aggregator serves deployment as it serves rounds.
        """
        views = [self.workers[w].get_params(copy=False) for w in self.fault_protocol.live]
        if self.aggregator is None:
            return mean_into(views, out)
        return self.aggregator.reduce(views, out=out, where="deploy")

    def resync_replicas(self) -> None:
        """Force every worker replica back to the deployable aggregate —
        the divergence-recovery reset the supervisor applies after rolling
        back to a checkpoint (replicas legitimately drift apart in GA /
        local-SGD regimes; a rollback restores them mid-drift, and resync
        collapses the spread so the retry starts from consensus)."""
        consensus = np.array(self.mean_params(), dtype=np.float64, copy=True)
        for w in self.workers:
            w.set_params(consensus)
            w.optimizer.reset_state()

    def deploy_model(self):
        """Model carrying the deployable parameters (worker average).

        For consistent-replica trainers this equals any worker's replica; for
        semi-synchronous ones it is the natural serving model. Worker 0's
        module is borrowed and restored by the caller via the returned token,
        a snapshot (never a live view: the next line overwrites worker 0's
        buffer) in one of two vectors the trainer made, so no call allocates.
        """
        w0, (saved, mean) = self.workers[0], self._deploy
        np.copyto(saved, w0.get_params(copy=False))
        w0.set_params(self.mean_params(out=mean))
        return w0.model, saved

    def restore_model(self, saved: np.ndarray) -> None:
        self.workers[0].set_params(saved)

    def evaluate(self, cfg: TrainConfig) -> Optional[float]:
        if cfg.eval_fn is None:
            return None
        model, saved = self.deploy_model()
        model.eval()
        try:
            return float(cfg.eval_fn(model))
        finally:
            model.train()
            self.restore_model(saved)

    # -- elastic membership ------------------------------------------------
    def bind_elastic(self, ctx: ElasticContext) -> None:
        """Install the workload factories membership changes are built
        from. Required before any join or repartition can materialize; the
        experiment runner and CLI bind it automatically whenever the
        elastic subsystem is enabled."""
        self.elastic_ctx = ctx

    def _spawn_worker(self, rank: int, order: np.ndarray) -> SimWorker:
        """A fresh replica from the bound factories, reading ``order``."""
        ctx = self.elastic_ctx
        model = ctx.model_factory()
        loader = BatchLoader(
            ctx.dataset,
            order,
            batch_size=ctx.batch_size,
            reshuffle=ctx.reshuffle,
            rng=0,
        )
        extra_kwargs = (
            {} if ctx.loss_factory is None
            else {"loss_factory": ctx.loss_factory}
        )
        return SimWorker(
            rank, model, ctx.optimizer_factory(model), loader, **extra_kwargs
        )

    def _apply_membership(self, i: int) -> float:
        """Open step ``i`` under the membership plan/autoscale policy.

        Applies scheduled drains (descending rank so indices stay valid;
        survivors are renumbered densely), bootstraps joiners from the
        donor-consensus parameters via :meth:`SimWorker.resync`,
        re-partitions the dataset over the new world size, rebuilds every
        size-dependent runtime piece, and returns the provisioning delay
        (sim-seconds) charged to the step that admitted the joiners.
        """
        acts = self.elastic.actions_for_step(i, len(self.workers))
        if acts.decision is not None:
            obs.emit("scale_decision", step=i, **acts.decision)
        if not acts.any_change:
            return 0.0
        ctx = self.elastic_ctx
        if ctx is None:
            raise RuntimeError(
                f"step {i}: elastic membership change scheduled but no "
                "ElasticContext is bound; call bind_elastic(...) before run()"
            )
        size_before = len(self.workers)
        for rank in acts.drains:
            if not 0 <= rank < size_before:
                raise ValueError(
                    f"step {i}: drain of rank {rank} out of range for "
                    f"world size {size_before}"
                )
        if size_before - len(acts.drains) < 1:
            raise ValueError(
                f"step {i}: draining {len(acts.drains)} of {size_before} "
                "workers would empty the cluster"
            )
        mapping: List[Optional[int]] = list(range(size_before))
        for rank in sorted(set(acts.drains), reverse=True):
            uid = self.elastic.on_drain(rank, i)
            self.workers.pop(rank)
            mapping.pop(rank)
            # The joiners' consensus below reads the surviving live ranks.
            self.fault_protocol.live = [
                w - (w > rank) for w in self.fault_protocol.live if w != rank
            ]
            obs.emit("membership", step=i, worker=rank, action="drain", uid=uid,
                     size_before=size_before, size_after=len(self.workers))
        if acts.joins:
            consensus = np.array(
                self.mean_params(), dtype=np.float64, copy=True
            )
            # Placeholder order only — _repartition below hands every
            # worker (joiners included) its real order for the new size.
            placeholder = np.arange(len(ctx.dataset))
            for _ in range(acts.joins):
                uid = self.elastic.on_join(i)
                w = self._spawn_worker(len(self.workers), placeholder)
                w.resync(consensus)
                self.workers.append(w)
                mapping.append(None)
                obs.emit("membership", step=i, worker=w.worker_id, action="join", uid=uid,
                         bootstrap="donor_consensus", size_before=size_before,
                         size_after=len(self.workers))
        for rank, w in enumerate(self.workers):
            w.worker_id = rank
        self._repartition(i)
        self._resize_runtime(i)
        self._realign_per_worker(mapping)
        return self.elastic.provision_seconds(
            acts.joins, self.cluster.net, self.comm_bytes
        )

    def _repartition(self, i: int) -> None:
        """Re-split the dataset over the current world size.

        The partition and loader RNGs are keyed on ``(seed, step)`` — never
        a trainer stream — so the new orders are identical across executors
        and across a resume boundary. SelDP's chunk rotation reruns over
        the new N, so every worker's order still covers the full dataset.
        """
        ctx = self.elastic_ctx
        n = len(self.workers)
        part = ctx.partition_fn(
            len(ctx.dataset),
            n,
            np.random.default_rng(
                np.random.SeedSequence([self.cluster.seed, _REPART_SALT, i])
            ),
        )
        loaders = BatchLoader.for_workers(
            ctx.dataset,
            part,
            batch_size=ctx.batch_size,
            reshuffle=ctx.reshuffle,
            seed=derive_rng_seed(self.cluster.seed, _LOADER_SALT, i),
        )
        for w, loader in zip(self.workers, loaders):
            w.loader = loader
        covered = set()
        for r in range(n):
            covered.update(int(x) for x in part[r])
        obs.emit("repartition", step=i, scheme=getattr(part, "scheme", "unknown"),
                 n_workers=n, n_samples=int(len(ctx.dataset)),
                 coverage=len(covered) / max(1, len(ctx.dataset)))

    def _resize_runtime(self, i: int) -> None:
        """Rebuild every size-dependent runtime piece for the new world
        size: the cluster config is re-derived (quorum floors clamp to the
        new membership), the jitter stream restarts from a ``(seed,
        step)``-keyed draw, the group/topology and PS shard geometry adopt
        the new count, health tracking restarts over the new cohort
        (outlier scores against a different cohort are not comparable),
        and the executor re-pins to the new worker group — the process
        pool re-forks its shared-memory arenas at the next compute call.
        """
        n = len(self.workers)
        min_quorum = self.cluster.min_quorum
        if min_quorum is not None:
            min_quorum = min(min_quorum, n)
        self.cluster = dataclass_replace(
            self.cluster, n_workers=n, min_quorum=min_quorum
        )
        self.fault_protocol.resize(self.cluster)
        self.compute = self.cluster.make_compute(
            derive_rng_seed(self.cluster.seed, _COMPUTE_SALT, i)
        )
        self.group.resize(n, shard_spec=self.shard_spec)
        self.executor.shutdown()
        self.executor.bind(self.workers)

    def _rebuild_for_resume(self, state: Dict) -> None:
        """Adopt a checkpoint taken at a different world size.

        Only reachable with the elastic subsystem on: fresh replicas are
        built from the bound factories, each loader starts from the
        checkpointed order (the state load right after makes it exact),
        and the runtime resizes before the regular restore proceeds.
        """
        if self.elastic_ctx is None:
            raise RuntimeError(
                "resuming across a membership change requires an "
                "ElasticContext; call bind_elastic(...) before run()"
            )
        workers = [
            self._spawn_worker(rank, np.asarray(ws["loader"]["order"]))
            for rank, ws in enumerate(state["workers"])
        ]
        # In-place so external holders of the worker list (the built
        # workload, a bound executor) observe the new membership too.
        self.workers[:] = workers
        # The compute RNG seed here is irrelevant — its bit-generator
        # state is restored from the checkpoint immediately after.
        self._resize_runtime(0)
        self._realign_per_worker([None] * len(workers))

    # -- checkpointing ----------------------------------------------------
    def state_dict(self, copy: bool = True) -> Dict:
        """Snapshot of everything that evolves during training: server,
        every worker's rank state, the jitter RNG, traffic counters, and
        the rule's :attr:`checkpointed` state. ``copy=False``: parameter and
        optimizer arrays are read-only views of the live arenas, stale after
        the next step."""
        state = {
            "server": self.server.state_dict(copy),
            "workers": [w.state_dict(copy) for w in self.workers],
            "compute_rng": self.compute.rng.bit_generator.state,
            "group": self.group.state_dict(),
            "extra": capture(self, self.checkpointed),
        }
        # Only present when health tracking is on — keeps health-off
        # checkpoints byte-identical to builds without the subsystem.
        if self.health is not None:
            state["health"] = self.health.state_dict()
        # Same contract for the elastic subsystem: fixed-membership
        # checkpoints never carry the key.
        if self.elastic is not None:
            state["elastic"] = self.elastic.state_dict()
        return state

    def load_state_dict(self, state: Dict) -> None:
        if len(state["workers"]) != len(self.workers):
            if self.elastic is not None and "elastic" in state:
                self._rebuild_for_resume(state)
            else:
                raise ValueError(
                    f"checkpoint has {len(state['workers'])} workers, "
                    f"trainer has {len(self.workers)}"
                )
        self.server.load_state_dict(state["server"])
        for w, ws in zip(self.workers, state["workers"]):
            w.load_state_dict(ws)
        self.compute.rng.bit_generator.state = state["compute_rng"]
        self.group.load_state_dict(state["group"])
        if self.health is not None and "health" in state:
            self.health.load_state_dict(state["health"])
        if self.elastic is not None and "elastic" in state:
            self.elastic.load_state_dict(state["elastic"])
        restore(self, state["extra"], self.checkpointed)

    def _write_checkpoint(self, cfg: TrainConfig, next_step: int, log: RunLog) -> None:
        # The path stays out of the event: a trace must not differ just
        # because two otherwise-identical runs checkpoint to different
        # files (golden-trace byte comparisons depend on this). The run's
        # clock and patience state are not saved: :meth:`run` folds them
        # back out of the log.
        obs.emit("checkpoint_save", step=next_step - 1, next_step=next_step)
        save_checkpoint(
            {
                "version": CHECKPOINT_VERSION,
                "trainer": self.name,
                "step": next_step,
                "state": self.state_dict(copy=False),
                "log": self._log_lines.text(log),
            },
            cfg.checkpoint_path,
        )
        self._latest_checkpoint = cfg.checkpoint_path

    def _resume(self, cfg: TrainConfig) -> Tuple[int, RunLog]:
        ck = load_checkpoint(cfg.resume_from)
        if ck.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint version {ck.get('version')} != "
                f"{CHECKPOINT_VERSION} ({cfg.resume_from})"
            )
        if ck.get("trainer") != self.name:
            raise ValueError(
                f"checkpoint was written by trainer {ck.get('trainer')!r}, "
                f"cannot resume with {self.name!r}"
            )
        self.load_state_dict(ck["state"])
        self._latest_checkpoint = cfg.resume_from
        return int(ck["step"]), runlog_from_jsonable(ck["log"])

    # -- the run loop ---------------------------------------------------------
    def _note_eval(
        self, log: RunLog, step: int, epoch: float, sim_time: float, metric: float
    ) -> None:
        """Record one evaluation (``EvalRecord`` + ``eval`` event)."""
        log.record_eval(
            EvalRecord(
                step=step,
                epoch=epoch,
                sim_time=sim_time,
                metric=metric,
                metric_name="metric",
            )
        )
        obs.emit("eval", step=step, metric=metric, epoch=epoch, sim_time=sim_time,
                 metric_name="metric")

    # -- schedule hooks: what one step of the run loop is ---------------------
    def horizon(self, cfg: TrainConfig) -> int:
        """Steps in the run (asked once, as it opens): one per iteration."""
        return cfg.n_steps

    def eval_period(self, cfg: TrainConfig) -> int:
        """Steps between two evaluations."""
        return cfg.eval_every

    def eval_point(self, clock: float) -> Tuple[float, float]:
        """``(epoch, sim_time)`` an evaluation is recorded at."""
        return self.workers[0].epoch, clock

    def result(self, log: RunLog, best: Optional[float]) -> TrainResult:
        return TrainResult(
            log=log,
            final_metric=log.final_metric() if log.evals else None,
            best_metric=best,
            steps=log.n_steps,
            sim_time=log.total_sim_time,
            lssr=log.lssr() if log.n_steps else None,
        )

    def run(self, cfg: TrainConfig) -> TrainResult:
        log = RunLog(name=self.name)
        best: Optional[float] = None
        stale_evals = 0
        clock = 0.0
        start_step = 0
        if cfg.resume_from is not None:
            start_step, log = self._resume(cfg)
            # The clock and the patience state are folds over the log, in
            # the order the run made them (not ``total_sim_time``: ``sum``
            # over floats may round differently from ``+=``).
            for r in log.iterations:
                clock += r.sim_time
            for e in log.evals:
                best, stale_evals = patience_step(cfg, best, stale_evals, e.metric)
        self.fault_protocol.log = log
        horizon, period = self.horizon(cfg), self.eval_period(cfg)
        try:
            with obs.use(cfg.tracer):
                for i in range(start_step, horizon):
                    provision_s = 0.0
                    if self.elastic is not None:
                        provision_s = self._apply_membership(i)
                    obs.emit("step_begin", step=i)
                    rec = self.step(i)
                    if provision_s > 0.0:
                        # Joiner provisioning (boot + model pull) is charged
                        # in sim-seconds to the step that admitted them.
                        rec.sim_time += provision_s
                        rec.extra["provision_s"] = provision_s
                    clock += rec.sim_time
                    log.record_iteration(rec)
                    obs.emit("step_end", step=i, synced=rec.synced, sim_time=rec.sim_time,
                             comm_time=rec.comm_time, loss=rec.loss,
                             grad_change=rec.grad_change, extra=dict(rec.extra))
                    if self.elastic is not None:
                        self.elastic.observe_step(
                            i,
                            rec,
                            len(self.workers),
                            self.workers[0].loader.batch_size,
                            self.fault_protocol.compute_times,
                        )
                    if cfg.step_monitor is not None:
                        cfg.step_monitor(self, i)
                    last = i == horizon - 1
                    if cfg.eval_fn is not None and ((i + 1) % period == 0 or last):
                        metric = self.evaluate(cfg)
                        self._note_eval(log, i, *self.eval_point(clock), metric)
                        best, stale_evals = patience_step(cfg, best, stale_evals, metric)
                        if cfg.patience is not None and stale_evals >= cfg.patience:
                            break
                    if (
                        cfg.checkpoint_every is not None
                        and (i + 1) % cfg.checkpoint_every == 0
                    ):
                        self._write_checkpoint(cfg, i + 1, log)
                    if cfg.stop_after is not None and (i + 1) >= cfg.stop_after:
                        break  # simulated kill; the checkpoint is the survivor
        finally:
            self.fault_protocol.log = None
            settle_checkpoints()  # whatever ends the run, the file is published
        return self.result(log, best)
