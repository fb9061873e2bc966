"""Configuration dataclasses shared by all trainers."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.cluster.compute import ComputeModel
from repro.cluster.elastic import SCALE_POLICIES, ElasticController, make_scale_policy
from repro.cluster.executor import EXECUTOR_KINDS, WorkerExecutor, make_executor
from repro.cluster.faults import FaultInjector
from repro.comm.envelope import RetryPolicy
from repro.cluster.health import HealthTracker
from repro.comm.collectives import SimGroup
from repro.comm.network import LinkFaultModel, NetworkModel, make_link_faults
from repro.comm.sharding import ShardSpec
from repro.core.robust import AGGREGATORS, Aggregator, make_aggregator
from repro.utils.spec import Plan, parse_spec


@dataclass
class ClusterConfig:
    """Simulated cluster shape and timing sources.

    Attributes
    ----------
    n_workers:
        Cluster size N (the paper evaluates N=16 plus a PS).
    net / topology:
        Interconnect parameters and synchronization strategy.
    comm_bytes:
        Payload of one full-model synchronization. ``None`` uses the actual
        in-memory model size; experiments override with the paper-scale
        model size (e.g. 507 MB for VGG11) so communication/compute ratios
        match the testbed.
    flops_per_sample:
        Compute cost per sample. ``None`` uses the model's own estimate;
        experiments override with the paper-scale figure.
    device_flops / jitter_sigma / speeds:
        Passed through to :class:`ComputeModel`.
    """

    n_workers: int = 4
    net: NetworkModel = field(default_factory=NetworkModel)
    topology: str = "ps"
    comm_bytes: Optional[float] = None
    flops_per_sample: Optional[float] = None
    device_flops: float = 2.0e12
    jitter_sigma: float = 0.02
    speeds: Optional[list] = None
    seed: int = 0
    #: Fraction of the compute phase that synchronization can hide behind
    #: (PipeDream/GradientFlow/ByteScheduler-style overlap, §II-D). 0 means
    #: strictly sequential compute-then-communicate; 1 means communication
    #: can fully hide under compute.
    overlap_fraction: float = 0.0
    #: Backend for the per-worker gradient phase: ``"serial"`` (reference)
    #: or ``"process"`` (persistent process pool over shared-memory
    #: arenas) — byte-identical, see
    #: :mod:`repro.cluster.executor`. The ``REPRO_EXECUTOR`` environment
    #: variable overrides the default, so a whole test/CI run can be
    #: switched to another backend without touching call sites.
    executor: str = field(
        default_factory=lambda: os.environ.get("REPRO_EXECUTOR", "serial")
    )
    #: Process-pool width for the process executor; ``None`` sizes it to
    #: ``min(n_workers, cpu_count)``. Ignored by the serial backend.
    executor_procs: Optional[int] = None
    #: Fault-injection spec (grammar: :mod:`repro.utils.spec`; semantics:
    #: :mod:`repro.cluster.faults`), e.g.
    #: ``"crash:w2@50-120,straggle:w0x4@30+,drop:p=0.05"``. ``None``/empty
    #: disables injection — the simulation is then bitwise-identical to a
    #: cluster without the fault subsystem.
    fault_spec: Optional[str] = None
    #: Link-level fault spec (semantics: :mod:`repro.comm.network`), e.g.
    #: ``"partition:{w0,w1|w2..w7}@100-200,loss:p=0.02"``. ``None``/empty
    #: disables the resilient-collectives layer entirely — runs are then
    #: bitwise-identical to builds without it.
    net_fault_spec: Optional[str] = None
    #: Retries per enveloped message after the first attempt (0 = fail
    #: fast). Only consulted when ``net_fault_spec`` is set.
    retry_max: int = 4
    #: Backoff before the first retry, in milliseconds; doubles per retry up
    #: to :class:`~repro.comm.envelope.RetryPolicy`'s cap, with its jitter.
    retry_base_ms: float = 25.0
    #: Minimum number of workers that must contribute to an aggregation
    #: round; dropping below it raises
    #: :class:`~repro.cluster.faults.QuorumLostError` instead of silently
    #: averaging a partial mean. ``None`` means *all* workers (any loss of
    #: a contribution is loud); set lower to opt in to degraded-mode
    #: aggregation over the live subset. With health quarantine enabled,
    #: ``None`` falls back to a floor of 1 instead — quarantining any
    #: worker would otherwise always violate the all-workers quorum.
    min_quorum: Optional[int] = None
    #: Aggregation strategy for every synchronous round (see
    #: :mod:`repro.core.robust`): ``"mean"`` (the paper's protocol, exact
    #: legacy arithmetic — byte-identical to builds without the robust
    #: layer), ``"median"``, ``"trimmed_mean"``, ``"norm_clip"``,
    #: ``"krum"`` or ``"multi_krum"``.
    aggregator: str = "mean"
    #: Trim/Byzantine count f for ``trimmed_mean``/``krum``/``multi_krum``.
    trim_f: int = 1
    #: Norm cap multiplier for ``norm_clip`` (cap = factor × median norm).
    clip_factor: float = 3.0
    #: Number of parameter-server shards. 1 (the default) disables sharding
    #: entirely — runs are byte-identical to builds without the subsystem.
    #: With ``S > 1`` the flat parameter vector is partitioned into ``S``
    #: contiguous layer-aligned shards (see :mod:`repro.comm.sharding`)
    #: served by independent shard servers in parallel; requires the
    #: ``"ps"`` topology. The ``REPRO_PS_SHARDS`` environment variable
    #: overrides the default, so a whole test/CI run can be switched to a
    #: sharded server without touching call sites.
    ps_shards: int = field(
        default_factory=lambda: int(os.environ.get("REPRO_PS_SHARDS", "1"))
    )
    #: Enable per-worker health tracking and quarantine
    #: (:class:`repro.cluster.health.HealthTracker`). Off by default —
    #: health-off runs are byte-identical to builds without the subsystem.
    health: bool = False
    #: Quarantine when a worker's EWMA outlier score exceeds this.
    health_threshold: float = 3.0
    #: Steps a quarantined worker sits out before reinstatement.
    probation: int = 20
    #: Elastic membership plan spec (see :mod:`repro.cluster.elastic`),
    #: e.g. ``"join:+2@100,drain:w3@50,scale:4..12"``. ``None``/empty/
    #: ``"off"`` (the default) disables the elastic subsystem entirely —
    #: runs are then bitwise-identical to builds without it.
    elastic_spec: Optional[str] = None
    #: Metrics-driven autoscale policy (see
    #: :data:`repro.cluster.elastic.SCALE_POLICIES`): ``"none"`` (plan-only
    #: elasticity, the default), ``"goodput"`` or ``"comm"``. Any value
    #: other than ``"none"`` enables the elastic subsystem.
    scale_policy: str = "none"
    #: World-size bounds for the autoscaler. ``None`` defers to the plan's
    #: ``scale:MIN..MAX`` clause (or wide defaults). Explicit values win
    #: over the clause.
    min_workers: Optional[int] = None
    max_workers: Optional[int] = None
    #: The three specs, parsed once by ``__post_init__`` (``replace()`` runs
    #: it again) and handed to the ``make_*`` factories.
    _plans: Dict[str, Plan] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise ValueError(
                f"overlap_fraction must be in [0, 1], got {self.overlap_fraction}"
            )
        if self.executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"executor must be one of {EXECUTOR_KINDS}, got {self.executor!r}"
            )
        if self.executor_procs is not None and self.executor_procs < 1:
            raise ValueError(
                f"executor_procs must be >= 1, got {self.executor_procs}"
            )
        # Parse eagerly so a bad spec fails at configuration time, not at
        # step 50 of a long run. Building the injector range-checks worker
        # ids and refuses a plan that crashes every worker for good; the
        # membership plan is lenient about ranks — membership changes resize
        # n_workers mid-run via replace(), which reruns this hook against
        # the *current* size.
        self._plans = {
            "worker": parse_spec(self.fault_spec, "worker"),
            "link": parse_spec(self.net_fault_spec, "link"),
            "member": parse_spec(self.elastic_spec, "member"),
        }
        self.make_fault_injector()
        self._plans["link"].validate(self.n_workers)
        self.make_retry_policy()  # RetryPolicy validates retries / backoff
        if self.min_quorum is not None and not 1 <= self.min_quorum <= self.n_workers:
            raise ValueError(
                f"min_quorum must be in [1, {self.n_workers}], got {self.min_quorum}"
            )
        if self.aggregator not in AGGREGATORS:
            raise ValueError(
                f"aggregator must be one of {AGGREGATORS.names()}, "
                f"got {self.aggregator!r}"
            )
        if self.trim_f < 0:
            raise ValueError(f"trim_f must be >= 0, got {self.trim_f}")
        if self.clip_factor <= 0:
            raise ValueError(f"clip_factor must be > 0, got {self.clip_factor}")
        if self.ps_shards < 1:
            raise ValueError(f"ps_shards must be >= 1, got {self.ps_shards}")
        if self.ps_shards > 1 and self.topology != "ps":
            raise ValueError(
                f"ps_shards > 1 requires the 'ps' topology (shards are "
                f"parameter-server endpoints), got topology={self.topology!r}"
            )
        if self.health_threshold <= 0:
            raise ValueError(
                f"health_threshold must be > 0, got {self.health_threshold}"
            )
        if self.probation < 1:
            raise ValueError(f"probation must be >= 1, got {self.probation}")
        if self.scale_policy not in SCALE_POLICIES:
            raise ValueError(
                f"scale_policy must be one of "
                f"{sorted(SCALE_POLICIES)}, got {self.scale_policy!r}"
            )
        if self.min_workers is not None and self.min_workers < 1:
            raise ValueError(
                f"min_workers must be >= 1, got {self.min_workers}"
            )
        if (
            self.min_workers is not None
            and self.max_workers is not None
            and self.min_workers > self.max_workers
        ):
            raise ValueError(
                f"min_workers ({self.min_workers}) must be <= "
                f"max_workers ({self.max_workers})"
            )
        if self.elastic_enabled:
            if self.fault_spec:
                raise ValueError(
                    "elastic membership cannot be combined with fault_spec "
                    "(fault windows are keyed to fixed worker ids)"
                )
            if self.net_fault_spec:
                raise ValueError(
                    "elastic membership cannot be combined with "
                    "net_fault_spec (link faults are keyed to fixed ranks)"
                )
            if self.speeds is not None:
                raise ValueError(
                    "elastic membership cannot be combined with explicit "
                    "per-worker speeds (the speed vector is fixed-size)"
                )

    @property
    def elastic_enabled(self) -> bool:
        """True when any membership clause is scheduled or an autoscale
        policy is active — the opt-in gate for the elastic subsystem."""
        return not self._plans["member"].empty or self.scale_policy != "none"

    def make_elastic(self) -> Optional[ElasticController]:
        """Elastic membership controller, or ``None`` when the subsystem is
        off — callers short-circuit on ``None`` so fixed-membership runs
        never touch the elastic code path at all."""
        if not self.elastic_enabled:
            return None
        return ElasticController(
            self._plans["member"],
            policy=make_scale_policy(self.scale_policy),
            min_workers=self.min_workers,
            max_workers=self.max_workers,
            seed=self.seed,
        )

    @property
    def effective_quorum(self) -> int:
        """Quorum actually enforced: ``min_quorum``, or all workers — except
        under health quarantine, where the all-workers default collapses to
        1 (excluding a flagged worker must not instantly kill the run)."""
        if self.min_quorum is not None:
            return self.min_quorum
        return 1 if self.health else self.n_workers

    def make_aggregator(self) -> Optional[Aggregator]:
        """Robust aggregator instance, or ``None`` for the plain mean.

        ``"mean"`` maps to ``None`` so default runs bypass the robust layer
        entirely — no pre-filter pass, no decision events, bit-for-bit the
        original arithmetic. The registered mean strategy remains available
        for direct use and property tests.
        """
        if self.aggregator == "mean":
            return None
        return make_aggregator(
            self.aggregator, trim_f=self.trim_f, clip_factor=self.clip_factor
        )

    def make_health(self) -> Optional[HealthTracker]:
        if not self.health:
            return None
        # Quarantine floor: at least a strict majority stays active (and
        # never below the quorum). Isolating half the cluster or more means
        # the "consensus" the outlier scores compare against is itself
        # suspect — and coordinate-wise robust aggregators lose their
        # breakdown guarantee as the cohort shrinks.
        floor = max(self.effective_quorum, self.n_workers // 2 + 1)
        return HealthTracker(
            self.n_workers,
            threshold=self.health_threshold,
            probation=self.probation,
            min_active=min(floor, self.n_workers),
        )

    def make_fault_injector(self) -> FaultInjector:
        return FaultInjector(self._plans["worker"], self.n_workers, seed=self.seed)

    def make_link_faults(self) -> Optional[LinkFaultModel]:
        """Link-fault oracle, or ``None`` with no ``net_fault_spec`` —
        callers short-circuit on ``None`` so fault-free runs never touch
        the resilient layer."""
        return make_link_faults(self._plans["link"], self.n_workers, seed=self.seed)

    def make_retry_policy(self) -> RetryPolicy:
        return RetryPolicy(self.retry_max, base_s=self.retry_base_ms / 1000.0)

    def make_shard_spec(self, layer_sizes) -> Optional[ShardSpec]:
        """Shard geometry over the model's tensor sizes, or ``None`` when
        only one shard results (``ps_shards == 1``, or a one-tensor model)
        — the group and the server read ``None`` as the one shard
        ``slice(None)``."""
        if self.ps_shards <= 1:
            return None
        spec = ShardSpec.from_layers(layer_sizes, self.ps_shards)
        return spec if spec.n_shards > 1 else None

    def make_group(
        self,
        aggregator: Optional[Aggregator] = None,
        shard_spec: Optional[ShardSpec] = None,
    ) -> SimGroup:
        link_faults = self.make_link_faults()
        return SimGroup(
            self.n_workers,
            net=self.net,
            topology=self.topology,
            aggregator=aggregator,
            link_faults=link_faults,
            retry_policy=self.make_retry_policy() if link_faults else None,
            shard_spec=shard_spec,
        )

    def make_executor(self) -> WorkerExecutor:
        return make_executor(self.executor, procs=self.executor_procs)

    def make_compute(self) -> ComputeModel:
        return ComputeModel(
            self.n_workers,
            device_flops=self.device_flops,
            speeds=self.speeds,
            jitter_sigma=self.jitter_sigma,
            rng=self.seed,
        )


@dataclass
class TrainConfig:
    """Run-control parameters common to every trainer.

    Attributes
    ----------
    n_steps:
        Hard iteration cap.
    eval_every:
        Evaluate the deployable model every this many steps (and at the end).
    eval_fn:
        ``model -> float`` metric callback; higher_is_better tells the
        harness how to compare (accuracy vs perplexity).
    patience:
        Stop after this many consecutive evaluations without improvement;
        ``None`` disables early stopping (fixed-step runs). This implements
        the paper's "run until accuracy/perplexity does not improve further"
        protocol for Table I.
    checkpoint_every / checkpoint_path:
        Snapshot the full trainer state (global params, per-worker
        optimizer + loader RNG state, tracker state, step counter, run log)
        every this many steps into ``checkpoint_path``. The file is written
        atomically and overwritten each time (it is a resume point, not an
        archive).
    resume_from:
        Path of a checkpoint to restore before training; the run continues
        from the saved step and is bitwise-identical to one that was never
        interrupted.
    stop_after:
        Deterministic kill simulation: abort the run right after this many
        steps (post-checkpoint, without the final-step evaluation), as if
        the process died there. Everything else — LR schedule, data order,
        jitter stream — is configured exactly as the full run, which is
        what makes a later ``resume_from`` continuation bitwise-identical.
    tracer:
        Optional :class:`repro.obs.Tracer` installed for the duration of
        the run; every instrumented layer (trainers, collectives, network,
        executor, faults) emits typed events into it. ``None`` (the
        default) disables tracing entirely — traced-off runs are
        bitwise-identical to untraced ones.
    step_monitor:
        Optional ``(trainer, step) -> None`` callback invoked after every
        completed step. The recovery supervisor installs its divergence
        watchdog here (raising aborts the run and triggers rollback);
        ``None`` (the default) changes nothing — monitored-off runs are
        bitwise-identical.
    """

    n_steps: int = 200
    eval_every: int = 50
    eval_fn: Optional[Callable] = None
    higher_is_better: bool = True
    patience: Optional[int] = None
    checkpoint_every: Optional[int] = None
    checkpoint_path: Optional[str] = None
    resume_from: Optional[str] = None
    stop_after: Optional[int] = None
    tracer: Optional[object] = None
    step_monitor: Optional[Callable] = None

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.patience is not None and self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.checkpoint_every is not None and self.checkpoint_path is None:
            raise ValueError("checkpoint_every requires checkpoint_path")
        if self.stop_after is not None and self.stop_after < 1:
            raise ValueError(f"stop_after must be >= 1, got {self.stop_after}")
