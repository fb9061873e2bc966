"""Tests for the SelSync trainer — Alg. 1 semantics."""

import dataclasses

import numpy as np
import pytest

from repro.core import SelSyncTrainer, TrainConfig
from repro.data.injection import DataInjector
from repro.obs import Tracer
from tests.conftest import make_mlp_cluster


class TestDeltaExtremes:
    def test_delta_zero_is_bsp(self, mlp_cluster, quick_cfg):
        """δ=0 ⇒ Δ(g) ≥ 0 ≥ δ always ⇒ every step syncs (Fig. 6)."""
        workers, cluster = mlp_cluster
        res = SelSyncTrainer(workers, cluster, delta=0.0).run(quick_cfg)
        assert res.lssr == 0.0

    def test_huge_delta_is_local_sgd(self, mlp_cluster, quick_cfg):
        """δ > M ⇒ only the forced first step syncs (Δ₀ = ∞)."""
        workers, cluster = mlp_cluster
        res = SelSyncTrainer(workers, cluster, delta=1e12).run(quick_cfg)
        assert res.log.n_synced == 1
        assert res.log.iterations[0].synced

    def test_intermediate_delta_mixes(self, mlp_cluster, quick_cfg):
        workers, cluster = mlp_cluster
        res = SelSyncTrainer(workers, cluster, delta=0.3).run(quick_cfg)
        assert 0.0 < res.lssr < 1.0


class TestAlgorithmSemantics:
    def test_first_step_always_syncs(self, mlp_cluster, quick_cfg):
        workers, cluster = mlp_cluster
        res = SelSyncTrainer(workers, cluster, delta=5.0).run(quick_cfg)
        assert res.log.iterations[0].synced

    def test_pa_sync_makes_replicas_consistent(self, mlp_cluster):
        workers, cluster = mlp_cluster
        trainer = SelSyncTrainer(workers, cluster, delta=0.0, aggregation="params")
        trainer.step(0)
        p0 = workers[0].get_params()
        for w in workers[1:]:
            assert np.allclose(p0, w.get_params())

    def test_ga_sync_leaves_replicas_divergent(self, blobs_data):
        """GA applies the mean gradient to divergent replicas (§III-C):
        after local steps then a GA sync, replicas must still differ."""
        train, _ = blobs_data
        workers, cluster = make_mlp_cluster(train)
        trainer = SelSyncTrainer(workers, cluster, delta=1e12, aggregation="grads")
        # Step 0 syncs (inf) on identical replicas; then local steps diverge.
        for i in range(5):
            trainer.step(i)
        # Force a GA sync on divergent replicas.
        trainer.delta = 0.0
        trainer.step(5)
        assert not np.allclose(workers[0].get_params(), workers[1].get_params())

    def test_local_steps_charge_no_model_sync(self, mlp_cluster, quick_cfg):
        workers, cluster = mlp_cluster
        res = SelSyncTrainer(workers, cluster, delta=1e12).run(quick_cfg)
        local = [r for r in res.log.iterations if not r.synced]
        synced = [r for r in res.log.iterations if r.synced]
        assert max(r.comm_time for r in local) < min(r.comm_time for r in synced)

    def test_flag_allgather_charged_every_step(self, mlp_cluster, quick_cfg):
        workers, cluster = mlp_cluster
        tracer = Tracer(name="flags")
        trainer = SelSyncTrainer(workers, cluster, delta=1e12)
        res = trainer.run(dataclasses.replace(quick_cfg, tracer=tracer))
        assert all(r.comm_time > 0 for r in res.log.iterations)
        flags = [
            e for e in tracer.events
            if e.etype == "collective" and e.data["op"] == "allgather_flags"
        ]
        assert len(flags) == res.steps

    def test_grad_change_recorded(self, mlp_cluster, quick_cfg):
        workers, cluster = mlp_cluster
        res = SelSyncTrainer(workers, cluster, delta=0.3).run(quick_cfg)
        gc = res.log.grad_changes()
        assert np.isfinite(gc[1:]).all()  # step 0 is inf by construction
        assert (gc[np.isfinite(gc)] >= 0).all()

    def test_any_vote_one_worker_triggers_all(self, mlp_cluster):
        """Alg. 1: a single raised flag synchronizes the whole cluster."""
        workers, cluster = mlp_cluster
        trainer = SelSyncTrainer(workers, cluster, delta=0.3)
        trainer.step(0)
        # Manually poison one tracker so only worker 2 exceeds δ next step.
        for i, t in enumerate(trainer.trackers):
            t._prev_smoothed = 1.0 if i == 2 else None
        # Recreate a consistent state by stepping again and asserting the
        # recorded flags: any worker's flag syncs everyone.
        rec = trainer.step(1)
        if rec.extra["n_flags"] >= 1:
            assert rec.synced

    def test_majority_vote_syncs_no_more_than_any(self, blobs_data, quick_cfg):
        """Ablation mode: a majority quorum can only reduce sync frequency
        relative to Alg. 1's any-worker rule (same data, same seeds)."""
        train, _ = blobs_data
        workers, cluster = make_mlp_cluster(train)
        res_any = SelSyncTrainer(
            workers, cluster, delta=0.5, sync_vote="any"
        ).run(quick_cfg)
        workers, cluster = make_mlp_cluster(train)
        res_maj = SelSyncTrainer(
            workers, cluster, delta=0.5, sync_vote="majority"
        ).run(quick_cfg)
        assert res_maj.lssr >= res_any.lssr - 1e-9

    def test_majority_vote_counts_only_this_steps_voters(self, blobs_data):
        """Half the cluster crashed: the four survivors all vote to sync
        (delta=0), which is a majority of those able to vote — not 4 > 8//2
        against the nominal world size, which could never pass."""
        train, _ = blobs_data
        workers, cluster = make_mlp_cluster(train, n_workers=8)
        cluster = dataclasses.replace(
            cluster,
            fault_spec="crash:w0@0+,crash:w1@0+,crash:w2@0+,crash:w3@0+",
            min_quorum=4,
        )
        res = SelSyncTrainer(
            workers, cluster, delta=0.0, sync_vote="majority"
        ).run(TrainConfig(n_steps=6, eval_every=6))
        assert [r.synced for r in res.log.iterations] == [True] * 6
        assert [r.extra["n_flags"] for r in res.log.iterations] == [4.0] * 6

    def test_max_observed_delta_tracked(self, mlp_cluster, quick_cfg):
        workers, cluster = mlp_cluster
        trainer = SelSyncTrainer(workers, cluster, delta=0.3)
        trainer.run(quick_cfg)
        assert trainer.max_observed_delta > 0.0

    def test_validation(self, mlp_cluster):
        workers, cluster = mlp_cluster
        with pytest.raises(ValueError):
            SelSyncTrainer(workers, cluster, delta=-0.1)
        with pytest.raises(ValueError):
            SelSyncTrainer(workers, cluster, aggregation="weights")
        with pytest.raises(ValueError):
            SelSyncTrainer(workers, cluster, sync_vote="unanimous")


class TestConvergence:
    def test_selsync_matches_bsp_accuracy(self, blobs_data):
        """The headline claim: SelSync reaches BSP-level accuracy with far
        less communication."""
        from repro.core import BSPTrainer
        from repro.core.evaluation import accuracy_eval

        train, test = blobs_data
        cfg = TrainConfig(
            n_steps=120, eval_every=40, eval_fn=accuracy_eval(test)
        )
        workers, cluster = make_mlp_cluster(train)
        bsp = BSPTrainer(workers, cluster).run(cfg)
        workers, cluster = make_mlp_cluster(train)
        sel = SelSyncTrainer(workers, cluster, delta=0.3).run(cfg)
        assert sel.best_metric >= bsp.best_metric - 0.05
        assert sel.log.total_comm_time < bsp.log.total_comm_time

    def test_delta_overhead_only_on_selsync(self, mlp_cluster, quick_cfg, monkeypatch):
        from repro.core import selsync

        monkeypatch.setattr(selsync, "DELTA_OVERHEAD_S", 0.5)
        workers, cluster = mlp_cluster
        trainer = SelSyncTrainer(workers, cluster, delta=1e12)
        res = trainer.run(quick_cfg)
        # 0.5s per step dominates everything else on local steps.
        local = [r for r in res.log.iterations if not r.synced]
        assert min(r.sim_time for r in local) > 0.5


class TestDataInjection:
    @pytest.mark.parametrize(
        "elastic", [{"elastic_spec": "join:+2@8"}, {"scale_policy": "goodput"}]
    )
    def test_injector_refuses_elastic_membership(self, blobs_data, elastic):
        """The P2P plan is built for N ranks: refused up front, typed, not
        left to the injector's ``expected 4 batches, got 6`` at the first join."""
        train, _ = blobs_data
        workers, cluster = make_mlp_cluster(train, batch_size=8)
        inj = DataInjector(0.5, 0.5, 4, sample_nbytes=128, rng=0)
        with pytest.raises(NotImplementedError, match="injector.*elastic_spec / scale_policy"):
            SelSyncTrainer(
                workers, dataclasses.replace(cluster, **elastic), delta=0.3, injector=inj
            )

    def test_injection_cost_charged(self, blobs_data, quick_cfg):
        train, _ = blobs_data
        workers, cluster = make_mlp_cluster(train, batch_size=8)
        inj = DataInjector(0.5, 0.5, 4, sample_nbytes=128, rng=0)
        trainer = SelSyncTrainer(workers, cluster, delta=0.3, injector=inj)
        res = trainer.run(quick_cfg)
        assert res.final_metric is not None
        # Batches grew beyond the loader's base size.
        assert res.steps == quick_cfg.n_steps
