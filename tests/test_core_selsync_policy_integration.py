"""Integration of SelSync with delta policies under realistic dynamics."""

import numpy as np
import pytest

from repro.core import (
    FractionOfMaxDelta,
    SelSyncTrainer,
    TargetLSSRDelta,
    TrainConfig,
)
from repro.core.adaptive import FixedDelta
from tests.conftest import make_mlp_cluster


class TestPolicyPrecedence:
    def test_policy_overrides_delta_argument(self, blobs_data):
        """When a policy is supplied, the raw δ argument must be ignored."""
        train, _ = blobs_data
        workers, cluster = make_mlp_cluster(train)
        trainer = SelSyncTrainer(
            workers, cluster, delta=1e12, delta_policy=FixedDelta(0.0)
        )
        cfg = TrainConfig(n_steps=10, eval_every=10, eval_fn=None)
        res = trainer.run(cfg)
        assert res.lssr == 0.0  # FixedDelta(0) == BSP despite delta=1e12


class TestControllerConvergenceAcrossTargets:
    @pytest.mark.parametrize("target", [0.5, 0.8])
    def test_controller_tracks_target(self, blobs_data, target):
        train, _ = blobs_data
        workers, cluster = make_mlp_cluster(train)
        policy = TargetLSSRDelta(
            target_lssr=target, initial_delta=0.05, gain=0.3, warmup=5
        )
        cfg = TrainConfig(n_steps=150, eval_every=150, eval_fn=None)
        res = SelSyncTrainer(workers, cluster, delta_policy=policy).run(cfg)
        assert res.lssr == pytest.approx(target, abs=0.25)


class TestFractionPolicyInteractsWithTrackers:
    def test_threshold_scales_with_observed_extremum(self, blobs_data):
        train, _ = blobs_data
        workers, cluster = make_mlp_cluster(train)
        policy = FractionOfMaxDelta(fraction=0.5, warmup=3)
        trainer = SelSyncTrainer(workers, cluster, delta_policy=policy)
        for i in range(10):
            trainer.step(i)
        m = trainer.max_observed_delta
        assert policy.effective_delta(trainer, step=10) == pytest.approx(0.5 * m)
