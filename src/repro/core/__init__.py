"""Core algorithms: SelSync and the baselines it is evaluated against."""

from repro.core.grad_tracker import RelativeGradChange
from repro.core.config import ClusterConfig, TrainConfig
from repro.core.trainer import DistributedTrainer, TrainResult
from repro.core.bsp import BSPTrainer
from repro.core.localsgd import LocalSGDTrainer
from repro.core.fedavg import FedAvgTrainer
from repro.core.ssp import SSPTrainer
from repro.core.selsync import SelSyncTrainer
from repro.core.easgd import EASGDTrainer
from repro.core.adaptive import (
    DeltaPolicy,
    FixedDelta,
    FractionOfMaxDelta,
    TargetLSSRDelta,
)
from repro.core.metrics import (
    relative_throughput,
    speedup_vs_bsp,
    time_to_metric,
)
from repro.core.hessian import hessian_top_eigenvalue
from repro.core.divergence import (
    DivergenceTracker,
    replica_spread,
)
from repro.core.robust import (
    AGGREGATORS,
    Aggregator,
    KrumAggregator,
    MeanAggregator,
    MedianAggregator,
    MultiKrumAggregator,
    NormClipAggregator,
    TrimmedMeanAggregator,
    make_aggregator,
)
from repro.core.recovery import DivergenceExceededError, RecoverySupervisor
from repro.core import compression

__all__ = [
    "RelativeGradChange",
    "ClusterConfig",
    "TrainConfig",
    "DistributedTrainer",
    "TrainResult",
    "BSPTrainer",
    "LocalSGDTrainer",
    "FedAvgTrainer",
    "SSPTrainer",
    "SelSyncTrainer",
    "EASGDTrainer",
    "DeltaPolicy",
    "FixedDelta",
    "FractionOfMaxDelta",
    "TargetLSSRDelta",
    "relative_throughput",
    "speedup_vs_bsp",
    "time_to_metric",
    "hessian_top_eigenvalue",
    "DivergenceTracker",
    "replica_spread",
    "AGGREGATORS",
    "Aggregator",
    "KrumAggregator",
    "MeanAggregator",
    "MedianAggregator",
    "MultiKrumAggregator",
    "NormClipAggregator",
    "TrimmedMeanAggregator",
    "make_aggregator",
    "DivergenceExceededError",
    "RecoverySupervisor",
    "compression",
]
