"""Per-figure experiment generators.

Each ``figN_*`` function regenerates the data behind one figure of the
paper's evaluation and returns plain dictionaries/lists; the benchmark
modules print them as the rows/series the paper plots. Scale knobs
(`n_workers`, `n_steps`, `data_scale`) default to fast settings; the paper's
shape claims hold at any scale because the cost model carries the
testbed-size constants.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.compute import K80_EFFECTIVE_FLOPS, ComputeModel
from repro.cluster.memory import MemoryModel
from repro.comm.network import NetworkModel
from repro.core import ClusterConfig, TrainConfig
from repro.core.grad_tracker import RelativeGradChange
from repro.core.hessian import hessian_top_eigenvalue
from repro.core.metrics import relative_throughput
from repro.data import build_dataset, default_partition, selsync_partition
from repro.data.injection import DataInjector, injected_batch_size
from repro.experiments.runner import MethodSpec, run_method
from repro.experiments.workloads import get_workload
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import build_model
from repro.optim import SGD

#: Paper-scale (comm_bytes, flops_per_sample, batch) per model family.
PAPER_PROFILES = {
    "resnet101": (170e6, 2.5e9, 32),
    "vgg11": (507e6, 0.9e9, 32),
    "alexnet": (233e6, 2.2e9, 128),
    "transformer": (214e6, 4.0e9, 20),
}

#: The paper's cluster shapes: N → GPUs per node (§II-A, Fig. 1a).
WORKERS_PER_NODE = {1: 1, 2: 1, 4: 1, 8: 2, 16: 4}

#: Dataset tweaks that keep each workload learnable at bench scale: the
#: 100-class CIFAR100 analog needs either far more data/steps or fewer
#: classes; 30 classes preserves the many-label character (10 labels/worker
#: in the non-IID split still covers only a third of them).
BENCH_DATASET_OVERRIDES = {"vgg_cifar100": {"n_classes": 30}}


# ---------------------------------------------------------------------------
# Fig. 1a — relative throughput vs cluster size
# ---------------------------------------------------------------------------

def fig1a_relative_throughput(
    cluster_sizes: Sequence[int] = (1, 2, 4, 8, 16),
    models: Optional[Sequence[str]] = None,
) -> Dict[str, List[float]]:
    """Relative training throughput (vs 1 worker) per model and N."""
    models = list(PAPER_PROFILES) if models is None else list(models)
    out: Dict[str, List[float]] = {}
    for name in models:
        comm_bytes, flops, batch = PAPER_PROFILES[name]
        series = []
        for n in cluster_sizes:
            net = NetworkModel(workers_per_node=WORKERS_PER_NODE.get(n, 4))
            series.append(
                relative_throughput(flops, batch, n, comm_bytes, net=net)
            )
        out[name] = series
    return out


# ---------------------------------------------------------------------------
# Fig. 1b — FedAvg: IID vs non-IID accuracy
# ---------------------------------------------------------------------------

def fig1b_fedavg_iid_vs_noniid(
    n_workers: int = 10,
    n_steps: int = 300,
    data_scale: float = 0.5,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """FedAvg (C=1, E=0.1) final accuracy on IID vs label-skewed data.

    Paper setup: CIFAR10 split 1 label/worker, CIFAR100 split 10 labels/worker
    over 10 V100s.
    """
    out: Dict[str, Dict[str, float]] = {}
    # (workload, labels/worker, dataset overrides). The CIFAR100-like case
    # is scaled to 30 classes so FedAvg can learn the IID variant within the
    # bench budget; the 10-labels-per-worker skew ratio matches the paper.
    cases = [
        ("resnet_cifar10", 1, None),
        ("vgg_cifar100", 10, {"n_classes": 30}),
    ]
    for wname, labels_per_worker, overrides in cases:
        w = get_workload(wname)
        row = {}
        for scheme, lpw in (("seldp", 1), ("noniid", labels_per_worker)):
            built = w.build(
                n_workers=n_workers,
                n_steps=n_steps,
                partition_scheme=scheme,
                labels_per_worker=lpw,
                data_scale=data_scale,
                seed=seed,
                dataset_overrides=overrides,
            )
            res = run_method(
                MethodSpec("fedavg", {"c_fraction": 1.0, "e_factor": 0.1}),
                built,
                n_steps=n_steps,
                eval_every=max(20, n_steps // 6),
            )
            row["iid" if scheme == "seldp" else "noniid"] = res.best_metric
        out[wname] = row
    return out


# ---------------------------------------------------------------------------
# Fig. 2 — compute time and memory vs batch size (the SSP Nb argument)
# ---------------------------------------------------------------------------

def fig2_batchsize_scaling(
    batch_sizes: Sequence[int] = (16, 32, 64, 128, 256, 512),
) -> Dict[str, Dict[str, List[float]]]:
    """Per-model compute time (K80 profile, paper FLOPs) and measured memory
    footprint of the analog models across batch sizes."""
    out: Dict[str, Dict[str, List[float]]] = {}
    analog = {
        "resnet101": ("smallresnet", {"n_classes": 10}),
        "vgg11": ("smallvgg", {"n_classes": 100}),
        "alexnet": ("smallalexnet", {"n_classes": 20}),
        "transformer": ("tinytransformer", {"vocab_size": 64, "max_len": 16}),
    }
    mem_model = MemoryModel(optimizer_slots=1)
    rng = np.random.default_rng(0)
    for name, (_, flops, _) in PAPER_PROFILES.items():
        cm = ComputeModel(1, device_flops=K80_EFFECTIVE_FLOPS, jitter_sigma=0.0)
        times = [cm.mean_time(flops, b) for b in batch_sizes]
        model_name, kwargs = analog[name]
        model = build_model(model_name, rng=0, **kwargs)
        mems = []
        for b in batch_sizes:
            if model_name == "tinytransformer":
                x = rng.integers(0, 64, size=(b, 16))
            else:
                x = rng.normal(size=(b, 3, 16, 16))
            mems.append(float(mem_model.measure(model, x)))
        out[name] = {"compute_time_s": times, "memory_bytes": mems}
    return out


# ---------------------------------------------------------------------------
# Fig. 3 — gradient KDE narrows over training
# ---------------------------------------------------------------------------

def fig3_gradient_kde(
    workload: str = "resnet_cifar10",
    n_workers: int = 4,
    early_steps: int = 10,
    late_steps: int = 200,
    data_scale: float = 0.3,
    seed: int = 0,
    grid_points: int = 101,
) -> Dict[str, Dict[str, np.ndarray]]:
    """Kernel density estimates of one layer's gradients, early vs late.

    Returns, per phase, the KDE evaluated on a shared grid plus the raw
    standard deviation — the paper's claim is that the late-phase density
    concentrates near zero.
    """
    w = get_workload(workload)
    built = w.build(
        n_workers=n_workers, n_steps=late_steps, data_scale=data_scale, seed=seed
    )
    from repro.core import BSPTrainer

    trainer = BSPTrainer(built.workers, built.cluster, schedule=built.schedule)
    params = built.workers[0].model.parameters()
    # Pick the largest conv/linear weight as the probed layer.
    probe = int(np.argmax([p.size for p in params]))

    snapshots: Dict[str, np.ndarray] = {}
    for i in range(late_steps):
        trainer.step(i)
        if i + 1 == early_steps:
            snapshots["early"] = params[probe].grad.ravel().copy()
    snapshots["late"] = params[probe].grad.ravel().copy()

    # Lazy: scipy.stats is ~490 modules (+64 MiB, +0.5 s) no CLI run needs.
    from scipy.stats import gaussian_kde

    span = max(np.abs(snapshots["early"]).max(), np.abs(snapshots["late"]).max())
    grid = np.linspace(-span, span, grid_points)
    out = {}
    for phase, g in snapshots.items():
        kde = gaussian_kde(g)
        out[phase] = {
            "grid": grid,
            "density": kde(grid),
            "std": float(g.std()),
        }
    return out


# ---------------------------------------------------------------------------
# Fig. 4 — Hessian top eigenvalue vs first-order gradient variance
# ---------------------------------------------------------------------------

def fig4_hessian_vs_gradient(
    n_steps: int = 60,
    n_features: int = 16,
    n_classes: int = 4,
    hessian_every: int = 2,
    seed: int = 0,
) -> Dict[str, np.ndarray]:
    """Per-iteration λ_max(H) and gradient variance on a small model.

    Returns both series and their Pearson correlation on normalized values —
    the paper's point is that the two *trajectories* agree though magnitudes
    differ.
    """
    rng = np.random.default_rng(seed)
    train, _ = build_dataset(
        "blobs", n_train=256, n_test=64, n_features=n_features,
        n_classes=n_classes, rng=seed,
    )
    model = build_model("mlp", in_features=n_features, n_classes=n_classes,
                        hidden=(16,), rng=seed)
    opt = SGD(model, lr=0.1, momentum=0.9)
    steps, eigs, variances = [], [], []
    for i in range(n_steps):
        idx = rng.integers(0, len(train), 32)
        x, y = train.get_batch(idx)
        model.zero_grad()
        loss = CrossEntropyLoss()
        loss.forward(model.forward(x), y)
        model.backward(loss.backward())
        # Copy: the Hessian power iteration below reruns backward passes,
        # which would overwrite a live arena view before ``g @ g`` is read.
        g = model.get_flat_grads(copy=True)
        if i % hessian_every == 0:
            lam, _ = hessian_top_eigenvalue(model, x, y, n_iters=8, rng=seed + i)
            steps.append(i)
            eigs.append(lam)
            variances.append(float(g @ g))
        opt.step()
    eigs_a = np.array(eigs)
    var_a = np.array(variances)

    def norm(a):
        s = a.std()
        return (a - a.mean()) / s if s > 0 else a * 0.0

    corr = float(np.corrcoef(norm(eigs_a), norm(var_a))[0, 1])
    return {
        "steps": np.array(steps),
        "hessian_eig": eigs_a,
        "grad_variance": var_a,
        "correlation": corr,
    }


# ---------------------------------------------------------------------------
# Fig. 5 — Δ(g_i) tracks the convergence curve (via δ=0 SelSync ≡ BSP)
# ---------------------------------------------------------------------------

def fig5_gradchange_vs_convergence(
    workload: str = "resnet_cifar10",
    n_workers: int = 4,
    n_steps: int = 300,
    data_scale: float = 0.3,
    eval_every: int = 25,
    seed: int = 0,
    noise: float = 1.2,
) -> Dict[str, np.ndarray]:
    """BSP training (SelSync with δ=0 syncs every step) while recording
    Δ(g_i) and the test metric; the two series move together (Fig. 5),
    including the spike at the LR-decay milestone.

    ``noise`` raises the dataset's irreducible error so the loss has a
    positive floor — on a memorizable set the loss decays exponentially
    forever and Δ(g) never settles, which real datasets (and the paper's)
    do not exhibit.
    """
    w = get_workload(workload)
    built = w.build(
        n_workers=n_workers,
        n_steps=n_steps,
        data_scale=data_scale,
        seed=seed,
        dataset_overrides={"noise": noise},
    )
    res = run_method(
        MethodSpec("selsync", {"delta": 0.0}),
        built,
        n_steps=n_steps,
        eval_every=eval_every,
    )
    eval_steps, metrics = res.log.eval_curve()
    return {
        "grad_change": res.log.grad_changes(),
        "eval_steps": eval_steps,
        "metric": metrics,
        "lr_milestones": np.array(
            [int(round(f * n_steps)) for f in w.lr_milestone_fracs]
        ),
    }


# ---------------------------------------------------------------------------
# Fig. 6 — the δ dial between BSP and pure local-SGD
# ---------------------------------------------------------------------------

def fig6_delta_dial(
    deltas: Sequence[float] = (0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 1e9),
    workload: str = "resnet_cifar10",
    n_workers: int = 4,
    n_steps: int = 150,
    data_scale: float = 0.25,
    seed: int = 0,
) -> Dict[float, Dict[str, float]]:
    """LSSR per δ: 0 ⇒ pure BSP (LSSR 0), δ > M ⇒ pure local-SGD (LSSR → 1)."""
    w = get_workload(workload)
    out: Dict[float, Dict[str, float]] = {}
    for d in deltas:
        built = w.build(
            n_workers=n_workers, n_steps=n_steps, data_scale=data_scale, seed=seed
        )
        res = run_method(
            MethodSpec("selsync", {"delta": d}),
            built,
            n_steps=n_steps,
            eval_every=n_steps,
        )
        out[d] = {
            "lssr": res.lssr,
            "metric": res.final_metric,
            "sim_time": res.sim_time,
        }
    return out


# ---------------------------------------------------------------------------
# Fig. 8a — Δ(g_i)+EWMA overhead vs window size (real wall time)
# ---------------------------------------------------------------------------

def fig8a_tracker_overhead(
    windows: Sequence[int] = (25, 50, 100, 200),
    grad_size: int = 200_000,
    n_updates: int = 300,
    seed: int = 0,
) -> Dict[int, float]:
    """Measured milliseconds per tracked iteration (‖g‖² + EWMA + Δ) as the
    smoothing window grows; the windowed EWMA recompute is O(w), matching
    the growth the paper reports."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=grad_size)
    out: Dict[int, float] = {}
    for w in windows:
        tracker = RelativeGradChange(alpha=0.16, window=w)
        # Warm the window so every timed update pays the full O(w) pass.
        for _ in range(w):
            tracker.update(float(g @ g))
        t0 = time.perf_counter()
        for _ in range(n_updates):
            sq = float(g @ g)
            tracker.update(sq)
        out[w] = (time.perf_counter() - t0) * 1e3 / n_updates
    return out


# ---------------------------------------------------------------------------
# Fig. 8b — SelDP vs DefDP partitioning overhead (real wall time)
# ---------------------------------------------------------------------------

def fig8b_partition_overhead(
    dataset_sizes: Optional[Dict[str, int]] = None,
    n_workers: int = 16,
    repeats: int = 3,
) -> Dict[str, Dict[str, float]]:
    """One-time partitioning cost at the paper's true dataset scales.

    Partitioning is pure index arithmetic, so the real sample counts
    (50K CIFAR, 1.28M ImageNet, 2.8M WikiText windows) are measured directly.
    """
    if dataset_sizes is None:
        dataset_sizes = {
            "cifar10": 50_000,
            "cifar100": 50_000,
            "imagenet": 1_281_167,
            "wikitext103": 2_857_142,  # 100M tokens / 35 bptt
        }
    out: Dict[str, Dict[str, float]] = {}
    for name, n in dataset_sizes.items():
        best_def, best_sel = float("inf"), float("inf")
        for r in range(repeats):
            t0 = time.perf_counter()
            default_partition(n, n_workers, rng=r)
            t1 = time.perf_counter()
            selsync_partition(n, n_workers, rng=r)
            best_def = min(best_def, t1 - t0)
            best_sel = min(best_sel, time.perf_counter() - t1)
        out[name] = {"defdp_s": best_def, "seldp_s": best_sel}
    return out


# ---------------------------------------------------------------------------
# Fig. 9 — SelSync (GA) with SelDP vs DefDP
# ---------------------------------------------------------------------------

def fig9_seldp_vs_defdp(
    workloads: Sequence[str] = ("resnet_cifar10", "vgg_cifar100"),
    delta: float = 0.1,
    n_workers: int = 4,
    n_steps: int = 300,
    data_scale: float = 0.3,
    eval_every: int = 50,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Final metric of SelSync with gradient aggregation under each
    partitioning scheme; SelDP should dominate (Fig. 9).

    ``delta=0.1`` is the paper's δ=0.25 mapped onto this substrate's Δ(g)
    scale (see EXPERIMENTS.md: matched by LSSR, not by raw threshold).
    """
    out: Dict[str, Dict[str, float]] = {}
    for wname in workloads:
        w = get_workload(wname)
        row = {}
        for scheme in ("seldp", "defdp"):
            built = w.build(
                n_workers=n_workers,
                n_steps=n_steps,
                partition_scheme=scheme,
                data_scale=data_scale,
                seed=seed,
                dataset_overrides=BENCH_DATASET_OVERRIDES.get(wname),
            )
            res = run_method(
                MethodSpec("selsync", {"delta": delta, "aggregation": "grads"}),
                built,
                n_steps=n_steps,
                eval_every=eval_every,
            )
            row[scheme] = res.best_metric
        out[wname] = row
    return out


# ---------------------------------------------------------------------------
# Fig. 10 — SelSync: parameter vs gradient aggregation
# ---------------------------------------------------------------------------

def fig10_pa_vs_ga(
    workloads: Sequence[str] = ("resnet_cifar10", "vgg_cifar100"),
    delta: float = 0.1,
    n_workers: int = 4,
    n_steps: int = 300,
    data_scale: float = 0.3,
    eval_every: int = 50,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Final metric of SelSync-PA vs SelSync-GA on SelDP partitions."""
    out: Dict[str, Dict[str, float]] = {}
    for wname in workloads:
        w = get_workload(wname)
        row = {}
        for agg in ("params", "grads"):
            built = w.build(
                n_workers=n_workers,
                n_steps=n_steps,
                data_scale=data_scale,
                seed=seed,
                dataset_overrides=BENCH_DATASET_OVERRIDES.get(wname),
            )
            res = run_method(
                MethodSpec("selsync", {"delta": delta, "aggregation": agg}),
                built,
                n_steps=n_steps,
                eval_every=eval_every,
            )
            row["pa" if agg == "params" else "ga"] = res.best_metric
        out[wname] = row
    return out


# ---------------------------------------------------------------------------
# Fig. 11 — weight-distribution alignment: BSP vs SelSync-PA vs SelSync-GA
# ---------------------------------------------------------------------------

def fig11_weight_distributions(
    workload: str = "resnet_cifar10",
    delta: float = 0.1,
    n_workers: int = 4,
    n_steps: int = 200,
    data_scale: float = 0.3,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Probe-layer weight statistics after training under each method.

    The paper's claim (Fig. 11): PA's weight density stays aligned with
    BSP's while GA's drifts (narrower/shifted). We report the probe layer's
    std plus the Wasserstein-1 distance of each method's weights to BSP's.
    """
    from repro.core import BSPTrainer, SelSyncTrainer

    w = get_workload(workload)
    weights: Dict[str, np.ndarray] = {}
    for label in ("bsp", "pa", "ga"):
        built = w.build(
            n_workers=n_workers, n_steps=n_steps, data_scale=data_scale, seed=seed
        )
        if label == "bsp":
            trainer = BSPTrainer(built.workers, built.cluster, schedule=built.schedule)
        else:
            trainer = SelSyncTrainer(
                built.workers,
                built.cluster,
                schedule=built.schedule,
                delta=delta,
                aggregation="params" if label == "pa" else "grads",
            )
        cfg = TrainConfig(n_steps=n_steps, eval_every=n_steps, eval_fn=None)
        trainer.run(cfg)
        params = built.workers[0].model.parameters()
        probe = int(np.argmax([p.size for p in params]))
        # For GA the replicas have drifted: use the deployable average, the
        # same model the accuracy numbers describe.
        flat_mean = trainer.mean_params()
        built.workers[0].set_params(flat_mean)
        weights[label] = params[probe].data.ravel().copy()

    from scipy.stats import wasserstein_distance  # lazy: see fig3_gradient_kde

    out: Dict[str, Dict[str, float]] = {}
    for label, vec in weights.items():
        out[label] = {
            "std": float(vec.std()),
            "wasserstein_to_bsp": float(
                wasserstein_distance(vec, weights["bsp"])
            ),
        }
    return out


# ---------------------------------------------------------------------------
# Fig. 12 — non-IID: SelSync + data injection vs FedAvg
# ---------------------------------------------------------------------------

def fig12_noniid_injection(
    workload: str = "resnet_cifar10",
    # The paper's (α, β, δ) triples with δ mapped onto this substrate's Δ(g)
    # scale (0.05→0.02, 0.3→0.1); α/β are the paper's values verbatim.
    configs: Sequence[tuple] = ((0.5, 0.5, 0.02), (0.5, 0.5, 0.1), (0.75, 0.75, 0.1)),
    n_workers: int = 5,
    labels_per_worker: int = 1,
    n_steps: int = 300,
    data_scale: float = 0.3,
    eval_every: int = 50,
    seed: int = 0,
) -> Dict[str, float]:
    """Best accuracy of FedAvg vs SelSync-(α, β, δ) on label-skewed data.

    The paper's ordering: accuracy rises with the injection strength, and
    every SelSync config beats FedAvg.
    """
    w = get_workload(workload)
    out: Dict[str, float] = {}

    built = w.build(
        n_workers=n_workers,
        n_steps=n_steps,
        partition_scheme="noniid",
        labels_per_worker=labels_per_worker,
        data_scale=data_scale,
        seed=seed,
    )
    res = run_method(
        MethodSpec("fedavg", {"c_fraction": 1.0, "e_factor": 0.1}),
        built,
        n_steps=n_steps,
        eval_every=eval_every,
    )
    out["fedavg"] = res.best_metric

    for alpha, beta, delta in configs:
        b_prime = injected_batch_size(w.batch_size, alpha, beta, n_workers)
        built = w.build(
            n_workers=n_workers,
            n_steps=n_steps,
            partition_scheme="noniid",
            labels_per_worker=labels_per_worker,
            data_scale=data_scale,
            batch_size=b_prime,
            seed=seed,
        )
        injector = DataInjector(
            alpha, beta, n_workers,
            sample_nbytes=built.train.sample_nbytes, rng=seed + 13,
        )
        res = run_method(
            MethodSpec("selsync", {"delta": delta, "injector": injector}),
            built,
            n_steps=n_steps,
            eval_every=eval_every,
        )
        out[f"selsync({alpha},{beta},{delta})"] = res.best_metric
    return out
