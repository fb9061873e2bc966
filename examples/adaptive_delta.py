#!/usr/bin/env python
"""Extension demo: choosing δ online, and watching replica divergence.

The paper sets δ before launch and notes its useful range [0, M] depends on
the workload. This example shows the two adaptive policies shipped as
extensions — δ as a fraction of the observed Δ(g) extremum, and a feedback
controller targeting a communication budget (LSSR) — plus the
replica-divergence tracker that makes §III-C's PA-bounds-divergence argument
visible.

Run:  python examples/adaptive_delta.py
"""

import numpy as np

from repro.core import (
    DivergenceTracker,
    FractionOfMaxDelta,
    SelSyncTrainer,
    TargetLSSRDelta,
    TrainConfig,
)
from repro.experiments.reporting import render_table
from repro.experiments.workloads import get_workload

N_WORKERS = 4
N_STEPS = 150


def run_policy(label, **selsync_kwargs):
    built = get_workload("resnet_cifar10").build(
        n_workers=N_WORKERS, n_steps=N_STEPS, data_scale=0.25, seed=0
    )
    trainer = SelSyncTrainer(
        built.workers, built.cluster, schedule=built.schedule, **selsync_kwargs
    )
    divergence = DivergenceTracker()
    # Drive the step loop by hand so we can snapshot replica spread.
    n_synced = 0
    for i in range(N_STEPS):
        n_synced += trainer.step(i).synced
        divergence.snapshot(i, built.workers)
    acc = built.eval_fn(trainer_deploy(trainer, built))
    lssr = 1.0 - n_synced / N_STEPS
    return [label, round(acc, 3), round(lssr, 3),
            round(divergence.max_spread, 3), round(divergence.final_spread, 3)]


def trainer_deploy(trainer, built):
    model, saved = trainer.deploy_model()
    model.eval()
    return model


def main() -> None:
    rows = [
        run_policy("fixed d=0.3", delta=0.3),
        run_policy("fraction_of_max 0.5",
                   delta_policy=FractionOfMaxDelta(0.5, warmup=15)),
        run_policy("target_lssr 0.85",
                   delta_policy=TargetLSSRDelta(0.85, initial_delta=0.05, gain=0.2)),
    ]
    print(
        render_table(
            ["policy", "acc", "lssr", "max_spread", "final_spread"],
            rows,
            title="Adaptive delta policies + replica divergence (ResNet-like, N=4)",
        )
    )
    print(
        "\nmax_spread shows how far replicas drifted between syncs; PA pulls "
        "final_spread back toward 0 whenever a sync fires."
    )


if __name__ == "__main__":
    main()
