"""Canonical workloads: the paper's four model/dataset pairs, downscaled.

Each :class:`Workload` bundles a model family, dataset generator, optimizer,
LR schedule and evaluation metric, together with the *paper-scale* model
size and per-sample FLOPs that drive the simulated clock — so communication
/compute ratios (and therefore all speedup shapes) match the 16×V100 testbed
even though the in-memory analog is tiny.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.elastic import ElasticContext
from repro.cluster.worker import SimWorker, build_worker_group
from repro.core.config import ClusterConfig
from repro.core.evaluation import accuracy_eval, perplexity_eval
from repro.data import (
    BatchLoader,
    build_dataset,
    default_partition,
    label_skew_partition,
    selsync_partition,
)
from repro.data.dataset import Dataset
from repro.data.partition import Partition
from repro.nn.models import build_model
from repro.optim import SGD, Adam, ConstantLR, IntervalDecay, LRSchedule, MultiStepDecay
from repro.utils.registry import Registry

WORKLOADS: Registry = Registry("workload")


@dataclass
class BuiltWorkload:
    """A workload instantiated on a concrete simulated cluster."""

    workers: List[SimWorker]
    cluster: ClusterConfig
    schedule: LRSchedule
    eval_fn: Callable
    higher_is_better: bool
    train: Dataset
    test: Dataset
    partition: Partition
    batch_size: int
    steps_per_epoch: int
    #: Factories for elastic membership changes (joiner replicas and
    #: repartitioned loaders built exactly like the initial ones); the
    #: runner binds this to the trainer whenever elasticity is enabled.
    elastic_context: Optional[ElasticContext] = None


@dataclass
class Workload:
    """Declarative spec of one paper workload (see module docstring).

    ``paper_comm_bytes`` / ``paper_flops_per_sample`` are the testbed-scale
    values; ``lr_milestone_fracs`` express the paper's LR-decay epochs as
    fractions of the training budget so runs of any length decay at the same
    relative point.
    """

    name: str
    model_name: str
    model_kwargs: Dict = field(default_factory=dict)
    dataset_name: str = "cifar10_like"
    dataset_kwargs: Dict = field(default_factory=dict)
    batch_size: int = 32
    optimizer: str = "sgd"  # "sgd" | "adam"
    optimizer_kwargs: Dict = field(default_factory=dict)
    base_lr: float = 0.1
    lr_milestone_fracs: Tuple[float, ...] = ()
    lr_gamma: float = 0.1
    lr_interval_frac: Optional[float] = None  # IntervalDecay (Transformer)
    metric: str = "top1"  # "top1" | "top5" | "ppl"
    paper_comm_bytes: float = 170e6
    paper_flops_per_sample: float = 2.5e9
    paper_deltas: Tuple[float, ...] = (0.3, 0.5)

    @property
    def higher_is_better(self) -> bool:
        return self.metric != "ppl"

    def make_schedule(self, n_steps: int) -> LRSchedule:
        if self.lr_interval_frac is not None:
            interval = max(1, int(round(self.lr_interval_frac * n_steps)))
            return IntervalDecay(self.base_lr, interval=interval, gamma=self.lr_gamma)
        if self.lr_milestone_fracs:
            milestones = [int(round(f * n_steps)) for f in self.lr_milestone_fracs]
            return MultiStepDecay(self.base_lr, milestones, gamma=self.lr_gamma)
        return ConstantLR(self.base_lr)

    def make_eval(self, test: Dataset, batch_size: int) -> Callable:
        """Evaluation runs in training-sized chunks: in the workspaces
        training already has, at the GEMM sizes it is best at."""
        if self.metric == "top1":
            return accuracy_eval(test, batch_size=batch_size, top_k=1)
        if self.metric == "top5":
            return accuracy_eval(test, batch_size=batch_size, top_k=5)
        if self.metric == "ppl":
            return perplexity_eval(test, batch_size=batch_size)
        raise ValueError(f"unknown metric {self.metric!r}")

    def build(
        self,
        n_workers: int = 4,
        n_steps: int = 400,
        partition_scheme: str = "seldp",
        labels_per_worker: int = 1,
        data_scale: float = 1.0,
        batch_size: Optional[int] = None,
        seed: int = 0,
        cluster_kwargs: Optional[Dict] = None,
        dataset_overrides: Optional[Dict] = None,
    ) -> BuiltWorkload:
        """Instantiate the workload on an N-worker simulated cluster.

        ``partition_scheme`` ∈ {"seldp", "defdp", "noniid"}; ``data_scale``
        shrinks/grows the generated dataset (tests use < 1 for speed);
        ``dataset_overrides`` merges into the generator kwargs (experiments
        use it to adjust class count or noise for a specific figure).
        """
        ds_kwargs = dict(self.dataset_kwargs)
        if dataset_overrides:
            ds_kwargs.update(dataset_overrides)
        for key in ("n_train", "n_test", "n_train_tokens", "n_test_tokens"):
            if key in ds_kwargs and data_scale != 1.0:
                ds_kwargs[key] = max(64, int(ds_kwargs[key] * data_scale))
        train, test = build_dataset(self.dataset_name, rng=seed, **ds_kwargs)

        b = self.batch_size if batch_size is None else batch_size
        # One (n_samples, n_workers, rng) -> Partition closure serves both
        # the initial split and any elastic repartition over a new world
        # size (SelDP re-rotates, DefDP re-splits, noniid re-skews).
        if partition_scheme == "seldp":
            partition_fn = selsync_partition
        elif partition_scheme == "defdp":
            partition_fn = default_partition
        elif partition_scheme == "noniid":
            def partition_fn(n_samples, n, rng=None):
                return label_skew_partition(
                    train.labels, n, labels_per_worker, rng=rng
                )
        else:
            raise ValueError(f"unknown partition scheme {partition_scheme!r}")
        part = partition_fn(len(train), n_workers, rng=seed + 1)

        loaders = BatchLoader.for_workers(train, part, batch_size=b, seed=seed + 2)

        def model_factory():
            return build_model(self.model_name, rng=seed + 3, **self.model_kwargs)

        if self.optimizer == "sgd":
            opt_factory = lambda m: SGD(m, lr=self.base_lr, **self.optimizer_kwargs)
        elif self.optimizer == "adam":
            opt_factory = lambda m: Adam(m, lr=self.base_lr, **self.optimizer_kwargs)
        else:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")

        workers = build_worker_group(
            n_workers, model_factory, opt_factory, loaders
        )
        cluster = ClusterConfig(
            n_workers=n_workers,
            comm_bytes=self.paper_comm_bytes,
            flops_per_sample=self.paper_flops_per_sample,
            seed=seed,
            **(cluster_kwargs or {}),
        )
        return BuiltWorkload(
            workers=workers,
            cluster=cluster,
            schedule=self.make_schedule(n_steps),
            eval_fn=self.make_eval(test, b),
            higher_is_better=self.higher_is_better,
            train=train,
            test=test,
            partition=part,
            batch_size=b,
            steps_per_epoch=loaders[0].steps_per_epoch,
            elastic_context=ElasticContext(
                model_factory=model_factory,
                optimizer_factory=opt_factory,
                dataset=train,
                batch_size=b,
                partition_fn=partition_fn,
            ),
        )


def _register(w: Workload) -> Workload:
    WORKLOADS.register(w.name)(lambda: w)
    return w


#: ResNet101 on CIFAR10 (paper: b=32, SGD lr 0.1, mom 0.9, wd 4e-4,
#: decay 10× after epochs 110/150 of ~160; top-1 accuracy).
RESNET_CIFAR10 = _register(
    Workload(
        name="resnet_cifar10",
        model_name="smallresnet",
        model_kwargs={"n_classes": 10},
        dataset_name="cifar10_like",
        dataset_kwargs={"n_train": 2000, "n_test": 500},
        batch_size=32,
        optimizer="sgd",
        optimizer_kwargs={"momentum": 0.9, "weight_decay": 4e-4},
        base_lr=0.1,
        lr_milestone_fracs=(0.69, 0.94),  # 110/160, 150/160
        metric="top1",
        paper_comm_bytes=170e6,   # ResNet101 fp32
        paper_flops_per_sample=2.5e9,
    )
)

#: VGG11 on CIFAR100 (paper: b=32, SGD lr 0.01, mom 0.9, wd 5e-4,
#: decay after epochs 50/75; top-1 accuracy). The 507 MB model is the
#: communication-heaviest workload — SelSync's biggest win (13.75×).
VGG_CIFAR100 = _register(
    Workload(
        name="vgg_cifar100",
        model_name="smallvgg",
        model_kwargs={"n_classes": 100},
        dataset_name="cifar100_like",
        dataset_kwargs={"n_train": 3000, "n_test": 600, "n_classes": 100},
        batch_size=32,
        optimizer="sgd",
        optimizer_kwargs={"momentum": 0.9, "weight_decay": 5e-4},
        base_lr=0.05,
        lr_milestone_fracs=(0.56, 0.83),  # 50/90, 75/90
        metric="top1",
        paper_comm_bytes=507e6,   # VGG11 fp32
        paper_flops_per_sample=0.9e9,
    )
)

#: AlexNet on ImageNet-1K (paper: b=128, Adam, fixed lr 1e-4; top-5
#: accuracy). Large dataset volume makes FedAvg's per-epoch schedule
#: degenerate (LSSR ≈ 0.99, Table I).
ALEXNET_IMAGENET = _register(
    Workload(
        name="alexnet_imagenet",
        model_name="smallalexnet",
        model_kwargs={"n_classes": 20},
        dataset_name="imagenet_like",
        dataset_kwargs={"n_train": 4000, "n_test": 800, "n_classes": 20},
        batch_size=64,
        optimizer="adam",
        base_lr=1e-3,
        metric="top5",
        paper_comm_bytes=233e6,   # AlexNet fp32
        paper_flops_per_sample=2.2e9,  # 224px inputs
    )
)

#: Transformer on WikiText-103 (paper: b=20, SGD lr 2.0 decayed 0.8× every
#: 2000 iters, 35 bptt; test perplexity). The 267k-token vocabulary puts
#: most bytes in the embedding/softmax — comm-heavy relative to compute.
TRANSFORMER_WIKITEXT = _register(
    Workload(
        name="transformer_wikitext",
        model_name="tinytransformer",
        model_kwargs={"vocab_size": 64, "max_len": 16},
        dataset_name="wikitext_like",
        dataset_kwargs={"n_train_tokens": 40_000, "n_test_tokens": 8_000, "bptt": 16},
        batch_size=20,
        optimizer="sgd",
        base_lr=0.5,
        lr_interval_frac=0.2,
        lr_gamma=0.8,
        metric="ppl",
        paper_comm_bytes=214e6,   # 53M-param embedding-dominated model
        paper_flops_per_sample=4.0e9,  # softmax over 267k vocab dominates
    )
)


def build_workload(name: str, **kwargs) -> BuiltWorkload:
    """Build a registered workload by name with :meth:`Workload.build` args."""
    return WORKLOADS.create(name).build(**kwargs)


def get_workload(name: str) -> Workload:
    return WORKLOADS.create(name)
