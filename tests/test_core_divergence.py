"""Tests for replica-divergence diagnostics."""

import pytest

from repro.core import BSPTrainer, LocalSGDTrainer, SelSyncTrainer, TrainConfig
from repro.core.divergence import DivergenceTracker, replica_spread
from tests.conftest import make_mlp_cluster


class TestReplicaSpread:
    def test_zero_for_identical_replicas(self, mlp_cluster):
        workers, _ = mlp_cluster
        assert replica_spread(workers) == 0.0

    def test_positive_after_local_training(self, mlp_cluster, quick_cfg):
        workers, cluster = mlp_cluster
        LocalSGDTrainer(workers, cluster).run(quick_cfg)
        assert replica_spread(workers) > 0.0

    def test_zero_under_bsp(self, mlp_cluster, quick_cfg):
        workers, cluster = mlp_cluster
        BSPTrainer(workers, cluster).run(quick_cfg)
        assert replica_spread(workers) == pytest.approx(0.0, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            replica_spread([])


class TestTracker:
    def test_records_trajectory(self, blobs_data, quick_cfg):
        train, _ = blobs_data
        workers, cluster = make_mlp_cluster(train)
        trainer = SelSyncTrainer(workers, cluster, delta=1e12)
        tracker = DivergenceTracker()
        for i in range(20):
            trainer.step(i)
            tracker.snapshot(i, workers)
        assert tracker.steps == list(range(20))
        # Pure local training: spread grows from ~0.
        assert tracker.final_spread > tracker.spreads[0]
        assert tracker.max_spread >= tracker.final_spread

    def test_pa_sync_resets_spread(self, blobs_data):
        """A PA sync collapses spread back to zero — §III-C's bound."""
        train, _ = blobs_data
        workers, cluster = make_mlp_cluster(train)
        trainer = SelSyncTrainer(workers, cluster, delta=1e12)
        tracker = DivergenceTracker()
        for i in range(10):
            trainer.step(i)
            tracker.snapshot(i, workers)
        assert tracker.final_spread > 0.0
        trainer.delta = 0.0  # force a sync
        trainer.step(10)
        assert tracker.snapshot(10, workers) == pytest.approx(0.0, abs=1e-12)

    def test_empty_tracker_raises(self):
        t = DivergenceTracker()
        with pytest.raises(ValueError):
            _ = t.max_spread
