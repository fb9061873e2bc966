"""Cross-module integration tests: the paper's headline claims at test scale.

These are slower than unit tests (real training runs) but pinned to small
models/datasets so the whole module stays under a couple of minutes.
"""

import numpy as np
import pytest

from repro.core import (
    BSPTrainer,
    FedAvgTrainer,
    LocalSGDTrainer,
    SelSyncTrainer,
    TrainConfig,
)
from repro.core.evaluation import accuracy_eval
from repro.data import build_dataset, default_partition, label_skew_partition, selsync_partition
from repro.data.injection import DataInjector, injected_batch_size
from repro.data.loader import BatchLoader
from repro.cluster.worker import build_worker_group
from repro.core.config import ClusterConfig
from repro.nn.models import build_model
from repro.optim import SGD


def build_cluster(train, n_workers=4, partition="seldp", batch_size=16,
                  labels_per_worker=1, seed=0, lr=0.05, n_classes=4):
    if partition == "seldp":
        part = selsync_partition(len(train), n_workers, rng=seed + 1)
    elif partition == "defdp":
        part = default_partition(len(train), n_workers, rng=seed + 1)
    else:
        part = label_skew_partition(train.labels, n_workers, labels_per_worker, rng=seed + 1)
    loaders = BatchLoader.for_workers(train, part, batch_size=batch_size, seed=seed + 2)
    workers = build_worker_group(
        n_workers,
        lambda: build_model(
            "mlp", in_features=16, n_classes=n_classes, hidden=(24,), rng=7
        ),
        lambda m: SGD(m, lr=lr, momentum=0.9),
        loaders,
    )
    cluster = ClusterConfig(
        n_workers=n_workers, seed=seed, comm_bytes=170e6, flops_per_sample=2.5e9
    )
    return workers, cluster


@pytest.fixture(scope="module")
def data():
    return build_dataset(
        "blobs", n_train=512, n_test=128, n_features=16, n_classes=4,
        noise=1.2, rng=0,
    )


def cfg_for(test, n_steps=150, eval_every=30):
    return TrainConfig(n_steps=n_steps, eval_every=eval_every,
                       eval_fn=accuracy_eval(test))


class TestHeadlineClaims:
    def test_selsync_matches_bsp_with_less_time(self, data):
        """Paper abstract: same-or-better accuracy than BSP, big time cut."""
        train, test = data
        cfg = cfg_for(test)
        workers, cluster = build_cluster(train)
        bsp = BSPTrainer(workers, cluster).run(cfg)
        workers, cluster = build_cluster(train)
        sel = SelSyncTrainer(workers, cluster, delta=0.3).run(cfg)
        assert sel.best_metric >= bsp.best_metric - 0.03
        assert sel.sim_time < bsp.sim_time
        assert sel.lssr > 0.2

    def test_lssr_predicts_comm_reduction(self, data):
        train, test = data
        cfg = cfg_for(test)
        workers, cluster = build_cluster(train)
        sel = SelSyncTrainer(workers, cluster, delta=0.3)
        res = sel.run(cfg)
        syncs = res.log.n_synced
        # One full round per synced step in the group's byte ledger.
        assert sel.group.bytes_synced == syncs * int(sel.comm_bytes) * len(workers)
        # Communication reduction w.r.t. BSP is 1 / (1 - LSSR).
        assert 1.0 / (1.0 - res.lssr) == pytest.approx(
            res.steps / max(1, syncs), rel=1e-6
        )

    def test_seldp_beats_defdp_under_mostly_local_training(self, data):
        """§III-D: with a high δ (mostly local updates), DefDP workers learn
        only their shard; SelDP workers see everything."""
        train, test = data
        cfg = cfg_for(test)
        workers, cluster = build_cluster(train, partition="seldp")
        sel = SelSyncTrainer(workers, cluster, delta=1e12, aggregation="grads").run(cfg)
        workers, cluster = build_cluster(train, partition="defdp")
        def_ = SelSyncTrainer(workers, cluster, delta=1e12, aggregation="grads").run(cfg)
        assert sel.best_metric >= def_.best_metric - 0.02

    def test_pa_keeps_replicas_closer_than_ga(self, data):
        """§III-C: after equal training, PA's replicas sit nearer the global
        mean than GA's."""
        train, test = data
        cfg = cfg_for(test, n_steps=100)

        def spread(aggregation):
            workers, cluster = build_cluster(train)
            SelSyncTrainer(
                workers, cluster, delta=0.4, aggregation=aggregation
            ).run(cfg)
            params = np.stack([w.get_params() for w in workers])
            return float(np.linalg.norm(params - params.mean(axis=0), axis=1).mean())

        assert spread("params") < spread("grads")

    def test_noniid_injection_beats_plain_fedavg(self):
        """§IV-E: data injection repairs label-skewed training. Uses a
        harder 8-class task where 1-label-per-worker shards genuinely
        cripple FedAvg."""
        train, test = build_dataset(
            "blobs", n_train=512, n_test=128, n_features=16, n_classes=8,
            noise=2.0, rng=0,
        )
        n = 4
        cfg = cfg_for(test, n_steps=200)
        workers, cluster = build_cluster(
            train, n_workers=n, partition="noniid", labels_per_worker=1,
            n_classes=8,
        )
        fed = FedAvgTrainer(workers, cluster, c_fraction=1.0, e_factor=1.0).run(cfg)

        b_prime = injected_batch_size(16, 0.75, 0.75, n)
        workers, cluster = build_cluster(
            train, n_workers=n, partition="noniid", labels_per_worker=1,
            batch_size=b_prime, n_classes=8,
        )
        inj = DataInjector(0.75, 0.75, n, sample_nbytes=128, rng=3)
        sel = SelSyncTrainer(workers, cluster, delta=0.3, injector=inj).run(cfg)
        assert sel.best_metric > fed.best_metric

    def test_localsgd_fast_but_divergent(self, data):
        train, test = data
        cfg = cfg_for(test)
        workers, cluster = build_cluster(train)
        local = LocalSGDTrainer(workers, cluster).run(cfg)
        workers, cluster = build_cluster(train)
        bsp = BSPTrainer(workers, cluster).run(cfg)
        assert local.sim_time < 0.2 * bsp.sim_time


class TestDeterminism:
    def test_identical_seeds_identical_runs(self, data):
        train, test = data
        cfg = cfg_for(test, n_steps=50)

        def run():
            workers, cluster = build_cluster(train, seed=11)
            res = SelSyncTrainer(workers, cluster, delta=0.3).run(cfg)
            return res.final_metric, res.lssr, res.sim_time

        assert run() == run()

    def test_different_seeds_differ(self, data):
        train, test = data
        cfg = cfg_for(test, n_steps=50)

        def run(seed):
            workers, cluster = build_cluster(train, seed=seed)
            res = SelSyncTrainer(workers, cluster, delta=0.3).run(cfg)
            return res.sim_time

        assert run(1) != run(2)
