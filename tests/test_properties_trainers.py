"""Hypothesis property tests over trainer invariants.

These run tiny real training loops with randomized hyperparameters and check
the structural invariants that must hold for ANY configuration — the
relationships every figure/table in the paper silently assumes.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BSPTrainer, SelSyncTrainer, TrainConfig
from repro.core.config import ClusterConfig
from repro.cluster.worker import build_worker_group
from repro.data import ArrayDataset, BatchLoader, selsync_partition
from repro.nn.models import build_model
from repro.optim import SGD

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def tiny_cluster(n_workers, seed, delta_data=1.0):
    rng = np.random.default_rng(0)
    ds = ArrayDataset(
        rng.normal(size=(96, 8)) * delta_data, rng.integers(0, 3, 96)
    )
    part = selsync_partition(len(ds), n_workers, rng=seed)
    loaders = BatchLoader.for_workers(ds, part, batch_size=8, seed=seed + 1)
    workers = build_worker_group(
        n_workers,
        lambda: build_model("mlp", in_features=8, n_classes=3, hidden=(8,), rng=5),
        lambda m: SGD(m, lr=0.05),
        loaders,
    )
    cluster = ClusterConfig(
        n_workers=n_workers, seed=seed, comm_bytes=1e6, flops_per_sample=1e6
    )
    return workers, cluster


@given(
    n_workers=st.integers(2, 5),
    delta=st.floats(0.0, 2.0),
    seed=st.integers(0, 50),
)
@SLOW
def test_selsync_invariants(n_workers, delta, seed):
    workers, cluster = tiny_cluster(n_workers, seed)
    trainer = SelSyncTrainer(workers, cluster, delta=delta)
    cfg = TrainConfig(n_steps=12, eval_every=12, eval_fn=None)
    res = trainer.run(cfg)

    # 1. LSSR always in [0, 1]; first step always syncs.
    assert 0.0 <= res.lssr <= 1.0
    assert res.log.iterations[0].synced

    # 2. Simulated time strictly positive and comm_time <= sim_time.
    for r in res.log.iterations:
        assert r.sim_time > 0.0
        assert 0.0 <= r.comm_time <= r.sim_time

    # 3. Sync count equals the group's accounting: one full round per
    #    synced step in the byte ledger.
    assert trainer.group.bytes_synced == res.log.n_synced * int(cluster.comm_bytes) * n_workers

    # 4. After a PA sync step, replicas are byte-identical.
    if res.log.iterations[-1].synced:
        p0 = workers[0].get_params()
        for w in workers[1:]:
            assert np.array_equal(p0, w.get_params())

    # 5. Finite parameters throughout.
    assert np.isfinite(workers[0].get_params()).all()


@given(n_workers=st.integers(2, 5), seed=st.integers(0, 50))
@SLOW
def test_bsp_lockstep_invariants(n_workers, seed):
    workers, cluster = tiny_cluster(n_workers, seed)
    trainer = BSPTrainer(workers, cluster)
    cfg = TrainConfig(n_steps=8, eval_every=8, eval_fn=None)
    res = trainer.run(cfg)
    assert res.lssr == 0.0
    # Lock-step property holds at every step, not just at the end.
    p0 = workers[0].get_params()
    for w in workers[1:]:
        assert np.allclose(p0, w.get_params())


@given(
    delta_small=st.floats(0.0, 0.1),
    delta_big=st.floats(0.5, 5.0),
    seed=st.integers(0, 20),
)
@SLOW
def test_larger_delta_never_syncs_more(delta_small, delta_big, seed):
    """Monotonicity of the dial on a *fixed* trajectory prefix.

    A strictly larger δ cannot flag more steps on the same gradient-change
    sequence — we verify by replaying the recorded Δ(g) trace of the small-δ
    run against both thresholds.
    """
    workers, cluster = tiny_cluster(3, seed)
    trainer = SelSyncTrainer(workers, cluster, delta=delta_small)
    cfg = TrainConfig(n_steps=10, eval_every=10, eval_fn=None)
    res = trainer.run(cfg)
    trace = res.log.grad_changes()
    syncs_small = int(np.sum(trace >= delta_small))
    syncs_big = int(np.sum(trace >= delta_big))
    assert syncs_big <= syncs_small
