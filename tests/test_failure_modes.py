"""Failure-injection tests: the library must fail loudly and precisely.

A distributed-training library that silently mangles shapes or swallows
NaNs produces wrong papers; these tests pin the error behaviour.
"""

import numpy as np
import pytest

from repro.cluster.faults import QuorumLostError
from repro.core import (
    BSPTrainer,
    ClusterConfig,
    SSPTrainer,
    SelSyncTrainer,
    TrainConfig,
)
from repro.core.grad_tracker import RelativeGradChange
from repro.cluster.server import ParameterServer
from repro.cluster.worker import build_worker_group
from repro.data import ArrayDataset, BatchLoader, selsync_partition
from repro.nn.models import build_model
from repro.optim import SGD
from repro.utils.ewma import Ewma


def _mlp_workers(n, lr=0.1, n_samples=64, batch_size=8):
    rng = np.random.default_rng(0)
    ds = ArrayDataset(rng.normal(size=(n_samples, 8)), rng.integers(0, 3, n_samples))
    part = selsync_partition(n_samples, n, rng=1)
    loaders = BatchLoader.for_workers(ds, part, batch_size=batch_size, seed=2)
    return build_worker_group(
        n,
        lambda: build_model("mlp", in_features=8, n_classes=3, rng=5),
        lambda m: SGD(m, lr=lr),
        loaders,
    )


def _cluster(n=4, **kw):
    return ClusterConfig(n_workers=n, comm_bytes=1e6, flops_per_sample=1e6, **kw)


def _cfg(steps=10):
    return TrainConfig(n_steps=steps, eval_every=steps, eval_fn=None)


class TestNanPropagation:
    def test_ewma_rejects_nan_grad_norm(self):
        """A NaN gradient norm (diverged model) must raise, not smooth."""
        tracker = RelativeGradChange()
        with pytest.raises(ValueError, match="non-finite"):
            tracker.update(float("nan"))

    def test_exploding_lr_produces_detectable_divergence(self):
        """With an absurd LR the loss blows up; the library must keep
        reporting rather than crash mid-run, and the numbers must reveal
        the explosion (no silent clipping)."""
        rng = np.random.default_rng(0)
        ds = ArrayDataset(rng.normal(size=(64, 8)), rng.integers(0, 3, 64))
        part = selsync_partition(64, 2, rng=1)
        loaders = BatchLoader.for_workers(ds, part, batch_size=8, seed=2)
        workers = build_worker_group(
            2,
            lambda: build_model("mlp", in_features=8, n_classes=3, rng=5),
            lambda m: SGD(m, lr=50.0),
            loaders,
        )
        cluster = ClusterConfig(n_workers=2, comm_bytes=1e6, flops_per_sample=1e6)
        trainer = SelSyncTrainer(workers, cluster, delta=0.3)
        res = trainer.run(TrainConfig(n_steps=15, eval_every=15, eval_fn=None))
        losses = res.log.losses()
        assert losses[-1] > losses[0] or not np.isfinite(losses[-1])


class TestShapeMismatches:
    def test_ps_rejects_foreign_model(self):
        ps = ParameterServer(np.zeros(10))
        with pytest.raises(ValueError):
            ps.aggregate_params([np.zeros(11)])

    def test_worker_rejects_foreign_gradient(self):
        rng = np.random.default_rng(0)
        ds = ArrayDataset(rng.normal(size=(32, 8)), rng.integers(0, 3, 32))
        loaders = [BatchLoader(ds, np.arange(32), batch_size=8, rng=0)]
        workers = build_worker_group(
            1,
            lambda: build_model("mlp", in_features=8, n_classes=3, rng=5),
            lambda m: SGD(m, lr=0.1),
            loaders,
        )
        with pytest.raises(ValueError):
            workers[0].apply_gradient(np.zeros(3), lr=0.1)


class TestEmptyAndDegenerate:
    def test_single_worker_cluster_works(self):
        """N=1 degenerates gracefully: no communication cost anywhere."""
        rng = np.random.default_rng(0)
        ds = ArrayDataset(rng.normal(size=(32, 8)), rng.integers(0, 3, 32))
        loaders = [BatchLoader(ds, np.arange(32), batch_size=8, rng=0)]
        workers = build_worker_group(
            1,
            lambda: build_model("mlp", in_features=8, n_classes=3, rng=5),
            lambda m: SGD(m, lr=0.1),
            loaders,
        )
        cluster = ClusterConfig(n_workers=1, comm_bytes=1e9, flops_per_sample=1e6)
        trainer = SelSyncTrainer(workers, cluster, delta=0.0)
        res = trainer.run(TrainConfig(n_steps=5, eval_every=5, eval_fn=None))
        assert res.log.total_comm_time == 0.0

    def test_ewma_window_one_degenerates_to_identity(self):
        e = Ewma(alpha=0.5, window=1)
        assert e.update(3.0) == 3.0
        assert e.update(9.0) == 9.0

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(n_steps=0)
        with pytest.raises(ValueError):
            TrainConfig(eval_every=0)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)

    def test_cluster_config_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_workers=0)


class TestFaultScenariosSelSync:
    def test_crash_and_rejoin_completes_with_records(self):
        workers = _mlp_workers(4)
        cluster = _cluster(fault_spec="crash:w2@3-7", min_quorum=2)
        trainer = SelSyncTrainer(workers, cluster, delta=0.1)
        res = trainer.run(_cfg(12))
        assert res.steps == 12
        crashes = res.log.faults_of_kind("crash")
        rejoins = res.log.faults_of_kind("rejoin")
        assert [(f.step, f.worker) for f in crashes] == [(3, 2)]
        assert [(f.step, f.worker) for f in rejoins] == [(7, 2)]

    def test_delta_tracker_covers_live_workers_only(self):
        """A crashed worker computes no gradient, so its Δ(g) tracker must
        not advance while it is down."""
        workers = _mlp_workers(4)
        cluster = _cluster(fault_spec="crash:w2@3-7", min_quorum=2)
        trainer = SelSyncTrainer(workers, cluster, delta=0.1)
        trainer.run(_cfg(12))
        assert trainer.trackers[2].n_updates < trainer.trackers[0].n_updates

    def test_quorum_lost_raises_loudly(self):
        workers = _mlp_workers(4)
        cluster = _cluster(
            fault_spec="crash:w1@4+,crash:w2@4+,crash:w3@4+", min_quorum=2
        )
        trainer = SelSyncTrainer(workers, cluster, delta=0.1)
        with pytest.raises(QuorumLostError, match="min_quorum=2"):
            trainer.run(_cfg(10))

    def test_default_quorum_is_all_workers(self):
        """Without min_quorum, losing any worker is fatal — partial means
        never happen silently."""
        workers = _mlp_workers(4)
        cluster = _cluster(fault_spec="crash:w3@5+")
        trainer = SelSyncTrainer(workers, cluster, delta=0.1)
        with pytest.raises(QuorumLostError, match="step 5"):
            trainer.run(_cfg(10))

    def test_corruption_excluded_from_vote_and_mean(self):
        workers = _mlp_workers(4)
        cluster = _cluster(fault_spec="corrupt:w1@2-4", min_quorum=3)
        trainer = SelSyncTrainer(workers, cluster, delta=0.0)  # sync always
        res = trainer.run(_cfg(8))
        assert [(f.step, f.worker) for f in res.log.faults_of_kind("corrupt")] == [
            (2, 1), (3, 1),
        ]
        # PA sync every step: the corrupted pushes were excluded, so no NaN
        # ever reached the global model.
        for w in workers:
            assert np.isfinite(w.get_params()).all()

    def test_inert_spec_is_bitwise_transparent(self):
        """A plan whose window never fires must leave the run bitwise
        identical to a no-fault run — the hooks themselves are free."""
        params = []
        for spec in (None, "drop:p=0.5@1000+"):
            workers = _mlp_workers(4)
            trainer = SelSyncTrainer(workers, _cluster(fault_spec=spec), delta=0.1)
            trainer.run(_cfg(10))
            params.append([w.get_params() for w in workers])
        for a, b in zip(*params):
            np.testing.assert_array_equal(a, b)


class TestFaultScenariosBSP:
    def test_straggler_slows_the_whole_round(self):
        times = {}
        for spec in (None, "straggle:w0x5@0+"):
            workers = _mlp_workers(4)
            # Compute-dominated cluster: the 5x straggler should stretch
            # every lock-step round by nearly 5x.
            cluster = ClusterConfig(
                n_workers=4, comm_bytes=1e3, flops_per_sample=1e9,
                fault_spec=spec,
            )
            trainer = BSPTrainer(workers, cluster)
            res = trainer.run(_cfg(8))
            times[spec] = res.sim_time
        assert times["straggle:w0x5@0+"] > 3.0 * times[None]

    def test_certain_drop_excludes_worker_but_run_survives(self):
        workers = _mlp_workers(4)
        cluster = _cluster(fault_spec="drop:w1:p=1.0", min_quorum=3)
        trainer = BSPTrainer(workers, cluster)
        res = trainer.run(_cfg(6))
        drops = res.log.faults_of_kind("drop")
        assert len(drops) == 6 and all(f.worker == 1 for f in drops)
        assert all(f.detail["lost"] == 1 for f in drops)
        # The excluded worker is healed by the pull: replicas stay equal.
        np.testing.assert_array_equal(
            workers[0].get_params(), workers[1].get_params()
        )

    def test_crash_mid_run_with_quorum(self):
        workers = _mlp_workers(4)
        cluster = _cluster(fault_spec="crash:w3@2-5", min_quorum=2)
        trainer = BSPTrainer(workers, cluster)
        res = trainer.run(_cfg(8))
        assert res.steps == 8
        assert res.log.n_faults == 2  # crash + rejoin


class TestFaultScenariosSSP:
    def test_transient_crash_recovers(self):
        workers = _mlp_workers(4)
        cluster = _cluster(fault_spec="crash:w1@2-4", min_quorum=2)
        trainer = SSPTrainer(workers, cluster, staleness=50)
        res = trainer.run(_cfg(8))
        kinds = [f.kind for f in res.log.faults]
        assert "crash" in kinds and "rejoin" in kinds
        assert res.steps == 8

    def test_permanent_crash_below_quorum_raises(self):
        workers = _mlp_workers(4)
        cluster = _cluster(fault_spec="crash:w1@2+", min_quorum=4)
        trainer = SSPTrainer(workers, cluster, staleness=50)
        with pytest.raises(QuorumLostError):
            trainer.run(_cfg(8))

    def test_permanent_crash_above_quorum_survivors_finish(self):
        workers = _mlp_workers(4)
        cluster = _cluster(fault_spec="crash:w1@2+", min_quorum=2)
        trainer = SSPTrainer(workers, cluster, staleness=50)
        res = trainer.run(_cfg(8))
        assert res.steps == 8  # survivors reach the iteration cap
