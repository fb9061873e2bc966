"""The four benchmark workloads.

Every workload is a closed loop: one process, the serial executor, one
training step in flight. Each goes through the public path
``Workload.build -> build_trainer -> trainer.run(TrainConfig(...))``;
``executor`` and ``ps_shards`` are always passed explicitly so the
``REPRO_*`` environment defaults cannot leak in.

The sim-clock budget is a pure function of ``--seconds``: ``rate`` is a
fixed nominal steps/second (this host's, rounded), never measured at run
time, so every sim-clock statistic depends only on (workload, seed,
seconds). A timed run goes on past that budget until ``--seconds`` of wall
time have passed, which only adds host-clock samples.

What ``--seed`` draws is what a rerun of the same job on the same cluster
would draw anew: per-worker compute jitter and the worker- and link-fault
fates (``ClusterConfig.seed``). Dataset, initial weights, partition and
batch order are part of the workload and stay at ``BASE_SEED``: on this
substrate another dataset/init seed moves time-to-target by 2-3x (README,
"What the seed varies"), wider than any regression bound could be.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.core.trainer import DistributedTrainer
from repro.experiments.runner import MethodSpec, build_trainer
from repro.experiments.workloads import BuiltWorkload, Workload, get_workload

#: The control-plane workload's model: a 768->128->100 MLP on the same
#: 100-class image task SmallVGG trains on. Compute per step is tiny, so
#: the trainer's fault/quorum bookkeeping, robust aggregation, the retrying
#: envelope, trace emission and checkpoint writes carry most of the time.
MLP_CIFAR100 = Workload(
    name="mlp_cifar100",
    model_name="mlp",
    model_kwargs={"in_features": 768, "n_classes": 100, "hidden": (128,)},
    dataset_name="cifar100_like",
    dataset_kwargs={"n_train": 3000, "n_test": 600, "n_classes": 100},
    batch_size=32,
    optimizer="sgd",
    optimizer_kwargs={"momentum": 0.9, "weight_decay": 5e-4},
    base_lr=0.05,
    metric="top1",
)

BASE_SEED = 0

_PLAIN = {"executor": "serial", "ps_shards": 1}
_SELSYNC = {"delta": 0.1, "aggregation": "params"}


@dataclass(frozen=True)
class Spec:
    """One benchmark workload (see the README's workload table)."""

    name: str
    why: str
    workload: Workload
    n_workers: int
    method: str
    block: int  # B = eval_every = checkpoint_every
    rate: float  # nominal steps/second that sizes the budget
    target: float  # quality target (top-1 to reach, or perplexity to get under)
    partition: str = "seldp"
    params: Dict = field(default_factory=dict)
    cluster: Dict = field(default_factory=lambda: dict(_PLAIN))
    dataset_overrides: Optional[Dict] = None
    #: Run with a ``Tracer`` writing JSONL and a checkpoint every block.
    observed: bool = False

    def sim_steps(self, seconds: float) -> int:
        """Steps every sim-clock statistic is read at: the whole blocks
        that fit in 0.6 x ``seconds`` at the nominal rate (at least two),
        so the budget is done well before the deadline on this host."""
        return max(2, round(0.6 * seconds * self.rate / self.block)) * self.block

    def max_steps(self, seconds: float) -> int:
        """Hard cap of a timed run, and the horizon the LR schedule is laid
        out on (fixed, so the schedule cannot depend on host speed)."""
        return 3 * self.sim_steps(seconds)

    def build(self, seed: int, n_steps: int) -> Tuple[BuiltWorkload, DistributedTrainer]:
        built = self.workload.build(
            n_workers=self.n_workers,
            n_steps=n_steps,
            partition_scheme=self.partition,
            data_scale=1.0,
            seed=BASE_SEED,
            cluster_kwargs=dict(self.cluster),
            dataset_overrides=self.dataset_overrides,
        )
        built.cluster = replace(built.cluster, seed=seed)
        return built, build_trainer(MethodSpec(self.method, dict(self.params)), built)


_VGG = get_workload("vgg_cifar100")

#: 20 of the 100 classes: with all 100 SmallVGG sits on its initial plateau
#: for ~120 steps, longer than the budget the driver's time limit allows.
_VGG_DATA = {"n_classes": 20}


SPECS: Tuple[Spec, ...] = (
    Spec(
        name="vgg8_bsp",
        why="BSP on SmallVGG/8w: conv-bound host time, a full 507 MB sync every step on the sim clock; the denominator of every SelSync speedup.",
        workload=_VGG,
        n_workers=8,
        method="bsp",
        partition="defdp",
        block=25,
        rate=12.5,
        target=0.8,
        dataset_overrides=_VGG_DATA,
    ),
    Spec(
        name="vgg8_selsync",
        why="Same model and cluster under SelSync: delta tracking, flag allgather and local steps every step, PS aggregation on a minority; paired with vgg8_bsp it is the paper's headline.",
        workload=_VGG,
        n_workers=8,
        method="selsync",
        params=dict(_SELSYNC),
        block=25,
        rate=12.5,
        target=0.8,
        dataset_overrides=_VGG_DATA,
    ),
    Spec(
        name="xfmr4_selsync",
        why="TinyTransformer/4w SelSync: attention, softmax, layernorm and embedding instead of conv, LSSR near 1 so comm is idle; a conv-only change must not move it.",
        workload=get_workload("transformer_wikitext"),
        n_workers=4,
        method="selsync",
        params=dict(_SELSYNC),
        block=50,
        rate=22.5,
        target=16.0,
    ),
    Spec(
        name="mlp16_chaos_traced",
        why="MLP/16w SelSync under crash, straggle, drop, corrupt and link faults with trimmed-mean, health, 4 PS shards, tracer and checkpoints on: control-plane code carries the time, nn does not.",
        workload=MLP_CIFAR100,
        n_workers=16,
        method="selsync",
        params=dict(_SELSYNC),
        block=50,
        rate=20.0,
        target=0.66,
        cluster={
            "executor": "serial",
            "ps_shards": 4,
            "fault_spec": "crash:w2@60-140,straggle:w0x4@20+,drop:p=0.05,corrupt:p=0.02",
            "net_fault_spec": "loss:p=0.02,delay:link(0,3)x5",
            "min_quorum": 8,
            "aggregator": "trimmed_mean",
            "trim_f": 2,
            "health": True,
        },
        observed=True,
    ),
)

BY_NAME: Dict[str, Spec] = {s.name: s for s in SPECS}
