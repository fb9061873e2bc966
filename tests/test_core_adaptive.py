"""Tests for the adaptive δ policies (extension beyond the paper)."""

import pytest

from repro.core import (
    FixedDelta,
    FractionOfMaxDelta,
    SelSyncTrainer,
    TargetLSSRDelta,
    TrainConfig,
)
from tests.conftest import make_mlp_cluster


class TestFixedDelta:
    def test_matches_plain_delta(self, blobs_data, quick_cfg):
        train, _ = blobs_data
        workers, cluster = make_mlp_cluster(train)
        plain = SelSyncTrainer(workers, cluster, delta=0.3).run(quick_cfg)
        workers, cluster = make_mlp_cluster(train)
        policy = SelSyncTrainer(
            workers, cluster, delta=999.0, delta_policy=FixedDelta(0.3)
        ).run(quick_cfg)
        assert policy.lssr == plain.lssr
        assert policy.final_metric == plain.final_metric

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedDelta(-1.0)


class TestFractionOfMax:
    def test_warmup_is_bsp(self, mlp_cluster, quick_cfg):
        workers, cluster = mlp_cluster
        policy = FractionOfMaxDelta(fraction=0.5, warmup=quick_cfg.n_steps)
        res = SelSyncTrainer(workers, cluster, delta_policy=policy).run(quick_cfg)
        assert res.lssr == 0.0  # warmup covers the whole run ⇒ all synced

    def test_goes_local_after_warmup(self, blobs_data):
        """As the running extremum M grows, δ = 0.9·M rises and local steps
        appear — concentrated late in the run (the adaptation direction)."""
        train, _ = blobs_data
        workers, cluster = make_mlp_cluster(train)
        policy = FractionOfMaxDelta(fraction=0.9, warmup=5)
        cfg = TrainConfig(n_steps=100, eval_every=100, eval_fn=None)
        res = SelSyncTrainer(workers, cluster, delta_policy=policy).run(cfg)
        assert res.lssr > 0.05
        # The forced-warmup prefix is synced.
        assert all(r.synced for r in res.log.iterations[:5])
        # Local steps skew toward the end of the run.
        local_idx = [r.step for r in res.log.iterations if not r.synced]
        assert sum(local_idx) / len(local_idx) > 100 / 2

    def test_validation(self):
        with pytest.raises(ValueError):
            FractionOfMaxDelta(fraction=0.0)
        with pytest.raises(ValueError):
            FractionOfMaxDelta(warmup=0)


class TestTargetLSSR:
    def test_controller_approaches_target(self, blobs_data):
        train, test = blobs_data
        from repro.core.evaluation import accuracy_eval

        cfg = TrainConfig(n_steps=150, eval_every=150, eval_fn=accuracy_eval(test))
        workers, cluster = make_mlp_cluster(train)
        policy = TargetLSSRDelta(target_lssr=0.7, initial_delta=0.05, gain=0.2)
        res = SelSyncTrainer(workers, cluster, delta_policy=policy).run(cfg)
        assert res.lssr == pytest.approx(0.7, abs=0.25)

    def test_delta_rises_when_oversyncing(self):
        policy = TargetLSSRDelta(target_lssr=0.9, initial_delta=0.1, warmup=1)
        d0 = policy.delta
        for _ in range(20):
            policy.observe(synced=True)  # realized LSSR 0 << 0.9
        assert policy.delta > d0

    def test_delta_falls_when_undersyncing(self):
        policy = TargetLSSRDelta(target_lssr=0.2, initial_delta=0.1, warmup=1)
        d0 = policy.delta
        for _ in range(20):
            policy.observe(synced=False)  # realized LSSR 1 >> 0.2
        assert policy.delta < d0

    def test_validation(self):
        with pytest.raises(ValueError):
            TargetLSSRDelta(target_lssr=1.0)
        with pytest.raises(ValueError):
            TargetLSSRDelta(initial_delta=0.0)
        with pytest.raises(ValueError):
            TargetLSSRDelta(gain=0.0)
