"""Method dispatch: build and run any trainer on a built workload."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core import (
    BSPTrainer,
    EASGDTrainer,
    FedAvgTrainer,
    LocalSGDTrainer,
    SSPTrainer,
    SelSyncTrainer,
    TrainConfig,
)
from repro.core.trainer import DistributedTrainer, TrainResult
from repro.experiments.workloads import BuiltWorkload

_TRAINERS = {
    "bsp": BSPTrainer,
    "localsgd": LocalSGDTrainer,
    "fedavg": FedAvgTrainer,
    "ssp": SSPTrainer,
    "selsync": SelSyncTrainer,
    "easgd": EASGDTrainer,
}


@dataclass
class MethodSpec:
    """One row of a comparison grid: a trainer plus its hyperparameters.

    Examples: ``MethodSpec("fedavg", {"c_fraction": 0.5, "e_factor": 0.25})``,
    ``MethodSpec("selsync", {"delta": 0.3})``.
    """

    kind: str
    params: Dict = field(default_factory=dict)
    label: Optional[str] = None

    def __post_init__(self):
        if self.kind not in _TRAINERS:
            raise ValueError(
                f"unknown trainer {self.kind!r}; known: {sorted(_TRAINERS)}"
            )

    @property
    def display(self) -> str:
        if self.label:
            return self.label
        if not self.params:
            return self.kind
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.kind}({inner})"


def build_trainer(spec: MethodSpec, built: BuiltWorkload) -> DistributedTrainer:
    cls = _TRAINERS[spec.kind]
    trainer = cls(
        built.workers, built.cluster, schedule=built.schedule, **spec.params
    )
    if trainer.elastic is not None and built.elastic_context is not None:
        trainer.bind_elastic(built.elastic_context)
    return trainer


def run_method(
    spec: MethodSpec,
    built: BuiltWorkload,
    n_steps: int,
    eval_every: int = 50,
    patience: Optional[int] = None,
    higher_is_better: Optional[bool] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from: Optional[str] = None,
    stop_after: Optional[int] = None,
    tracer=None,
    supervisor=None,
    trainer: Optional[DistributedTrainer] = None,
) -> TrainResult:
    """Run one method on an already-built workload (workers are consumed:
    rebuild the workload for the next method so everyone starts fresh);
    ``trainer`` is one :func:`build_trainer` already made of the two.

    ``tracer`` (a :class:`repro.obs.Tracer`) is installed for the run and
    receives the reproducibility manifest as its metadata; the caller owns
    its lifecycle (``close()`` flushes the JSONL sink).

    ``supervisor`` (a :class:`repro.core.recovery.RecoverySupervisor`)
    wraps the run with rollback-and-retry on quorum loss / divergence;
    ``None`` runs the trainer directly.
    """
    if trainer is None:
        trainer = build_trainer(spec, built)
    manifest = _manifest(spec, built, n_steps)
    if tracer is not None and not tracer.meta:
        tracer.meta = manifest
    cfg = TrainConfig(
        n_steps=n_steps,
        eval_every=eval_every,
        eval_fn=built.eval_fn,
        higher_is_better=(
            built.higher_is_better if higher_is_better is None else higher_is_better
        ),
        patience=patience,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        resume_from=resume_from,
        stop_after=stop_after,
        tracer=tracer,
    )
    try:
        if supervisor is not None:
            result = supervisor.run(trainer, cfg)
        else:
            result = trainer.run(cfg)
    finally:
        # The trainer is dropped on return; release backend resources
        # (forked worker processes + shared segments) now
        # rather than at garbage collection.
        trainer.executor.shutdown()
    result.log.meta = manifest
    return result


def _manifest(spec: MethodSpec, built: BuiltWorkload, n_steps: int) -> Dict:
    """Reproducibility manifest stored in the run log header."""
    import json

    import repro

    def jsonable(v):
        try:
            json.dumps(v)
            return v
        except TypeError:
            return repr(v)

    return {
        "method": spec.display,
        "kind": spec.kind,
        "params": {k: jsonable(v) for k, v in spec.params.items()},
        "n_workers": built.cluster.n_workers,
        "n_steps": n_steps,
        "batch_size": built.batch_size,
        "partition": built.partition.scheme,
        "seed": built.cluster.seed,
        "repro_version": repro.__version__,
    }
