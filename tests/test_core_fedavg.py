"""Tests for the FedAvg trainer."""

import dataclasses

import numpy as np
import pytest

from repro.core import FedAvgTrainer, TrainConfig
from repro.obs import Tracer
from tests.conftest import make_mlp_cluster


class TestSyncSchedule:
    def test_sync_interval_from_e_factor(self, mlp_cluster):
        workers, cluster = mlp_cluster
        spe = workers[0].loader.steps_per_epoch
        t = FedAvgTrainer(workers, cluster, e_factor=0.25)
        assert t.sync_interval == max(1, round(0.25 * spe))

    def test_lssr_matches_interval(self, mlp_cluster, quick_cfg):
        workers, cluster = mlp_cluster
        t = FedAvgTrainer(workers, cluster, e_factor=0.5)
        res = t.run(quick_cfg)
        expected_syncs = quick_cfg.n_steps // t.sync_interval
        assert res.log.n_synced == expected_syncs

    def test_high_e_means_high_lssr(self, blobs_data, quick_cfg):
        """Fewer syncs per epoch ⇒ higher LSSR (paper Table I trend)."""
        train, _ = blobs_data
        workers, cluster = make_mlp_cluster(train)
        frequent = FedAvgTrainer(workers, cluster, e_factor=0.25).run(quick_cfg)
        workers, cluster = make_mlp_cluster(train)
        rare = FedAvgTrainer(workers, cluster, e_factor=1.0).run(quick_cfg)
        assert rare.lssr > frequent.lssr


class TestParticipation:
    def test_participant_count(self, mlp_cluster):
        workers, cluster = mlp_cluster
        assert FedAvgTrainer(workers, cluster, c_fraction=0.5).n_participants() == 2
        assert FedAvgTrainer(workers, cluster, c_fraction=1.0).n_participants() == 4
        assert FedAvgTrainer(workers, cluster, c_fraction=0.1).n_participants() == 1

    def test_full_participation_resyncs_all(self, mlp_cluster):
        workers, cluster = mlp_cluster
        t = FedAvgTrainer(workers, cluster, c_fraction=1.0, e_factor=0.25)
        for i in range(t.sync_interval):
            t.step(i)
        p0 = workers[0].get_params()
        for w in workers[1:]:
            assert np.allclose(p0, w.get_params())

    def test_partial_participation_still_broadcasts(self, mlp_cluster):
        """Even with C<1, all workers pull the new global model."""
        workers, cluster = mlp_cluster
        t = FedAvgTrainer(workers, cluster, c_fraction=0.5, e_factor=0.25)
        for i in range(t.sync_interval):
            t.step(i)
        p0 = workers[0].get_params()
        for w in workers[1:]:
            assert np.allclose(p0, w.get_params())

    def test_validation(self, mlp_cluster):
        workers, cluster = mlp_cluster
        with pytest.raises(ValueError):
            FedAvgTrainer(workers, cluster, c_fraction=0.0)
        with pytest.raises(ValueError):
            FedAvgTrainer(workers, cluster, e_factor=1.5)


class TestByteLedger:
    def test_a_sampled_round_reaches_the_byte_ledger(self, mlp_cluster):
        """Each round charges its C-sample's pushes: bytes_synced is
        Σ_rounds len(pushers) · comm_bytes, and the trace's ``collective``
        events and ``comm.bytes`` metric say the same."""
        workers, cluster = mlp_cluster
        cluster = dataclasses.replace(cluster, ps_shards=1)
        t = FedAvgTrainer(workers, cluster, c_fraction=0.5, e_factor=0.25)
        tracer = Tracer(name="fedavg-ledger")
        res = t.run(TrainConfig(n_steps=12, eval_fn=None, tracer=tracer))
        pushers = [
            e.data["n_contrib"] for e in tracer.events if e.etype == "aggregation"
        ]
        assert len(pushers) == res.log.n_synced >= 2 and set(pushers) == {2}
        expected = sum(pushers) * int(cluster.comm_bytes)
        assert t.group.bytes_synced == expected
        collective = [e for e in tracer.events if e.etype == "collective"]
        assert len([e for e in collective if e.data["op"] != "pull"]) == len(pushers)
        assert sum(e.data["bytes"] for e in collective) == expected
        assert tracer.metrics.get("comm.bytes") == expected


class TestPullBack:
    def test_pull_back_is_half_a_round_over_the_live_workers(self, mlp_cluster):
        """A round's pull-back reaches the live workers only: while w1 is
        down its ``collective(op="pull")`` has ``ranks`` equal to the live
        count and ``seconds`` equal to half the topology's round over them,
        outside the byte ledger."""
        workers, cluster = mlp_cluster
        cluster = dataclasses.replace(
            cluster, topology="ring", ps_shards=1, fault_spec="crash:w1@2-9", min_quorum=1
        )
        t = FedAvgTrainer(workers, cluster, c_fraction=0.5, e_factor=0.25)
        tracer = Tracer(name="fedavg-pull")
        t.run(TrainConfig(n_steps=12, eval_fn=None, tracer=tracer))
        pulls = {
            e.step: e.data for e in tracer.events
            if e.etype == "collective" and e.data["op"] == "pull"
        }
        assert sorted(pulls) == [3, 7, 11]
        half = {
            k: t.group.topology.sync_time(t.comm_bytes, k, cluster.net) / 2.0 for k in (3, 4)
        }
        assert half[3] != half[4]
        for step, live in ((3, 3), (7, 3), (11, 4)):
            assert pulls[step]["ranks"] == live
            assert pulls[step]["seconds"] == half[live]
            assert pulls[step]["bytes"] == 0.0

    def test_no_pull_back_when_every_live_worker_pushed(self, blobs_data):
        """With C=1 every live worker pushes and takes the round's result,
        so while w1 is down (the rounds at steps 3 and 7) no pull-back is
        charged: those steps are shorter by the half-round over the three
        live workers than in a run that pulls back whenever a worker is
        missing, and every other step is the same."""
        train, _ = blobs_data

        class PullsWhenAnyoneIsMissing(FedAvgTrainer):
            def exchange(self, pushers, vectors, round_kw):
                out = super().exchange(pushers, vectors, round_kw)
                if len(pushers) == len(self.fault_protocol.live) < len(self.workers):
                    self.group.pull(self.comm_bytes, self.fault_protocol.live)
                return out

        def run(cls):
            workers, cluster = make_mlp_cluster(train)
            cluster = dataclasses.replace(
                cluster, topology="ring", ps_shards=1, fault_spec="crash:w1@2-9",
                min_quorum=1,
            )
            t = cls(workers, cluster, c_fraction=1.0, e_factor=0.25)
            tracer = Tracer(name="fedavg-c1")
            res = t.run(TrainConfig(n_steps=12, eval_fn=None, tracer=tracer))
            pulls = [e.step for e in tracer.events
                     if e.etype == "collective" and e.data["op"] == "pull"]
            return t, res, pulls

        t, res, pulls = run(FedAvgTrainer)
        _, ref, ref_pulls = run(PullsWhenAnyoneIsMissing)
        assert pulls == [] and ref_pulls == [3, 7]
        half = t.group.topology.sync_time(t.comm_bytes, 3, t.cluster.net) / 2.0
        for r, r_ref in zip(res.log.iterations, ref.log.iterations):
            if r.step in (3, 7):
                assert r.sim_time == pytest.approx(r_ref.sim_time - half, rel=1e-12)
            else:
                assert r.sim_time == r_ref.sim_time


class TestConvergence:
    def test_learns_blobs(self, mlp_cluster, quick_cfg):
        workers, cluster = mlp_cluster
        res = FedAvgTrainer(workers, cluster, c_fraction=1.0, e_factor=0.25).run(quick_cfg)
        assert res.final_metric > 0.7

    def test_cheaper_than_bsp(self, blobs_data, quick_cfg):
        from repro.core import BSPTrainer

        train, _ = blobs_data
        workers, cluster = make_mlp_cluster(train)
        bsp = BSPTrainer(workers, cluster).run(quick_cfg)
        workers, cluster = make_mlp_cluster(train)
        fed = FedAvgTrainer(workers, cluster, e_factor=0.5).run(quick_cfg)
        assert fed.log.total_comm_time < bsp.log.total_comm_time
