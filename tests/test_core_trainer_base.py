"""Tests for the DistributedTrainer base machinery."""

import dataclasses

import numpy as np
import pytest

from repro.cluster.faults import QuorumLostError
from repro.core import (
    BSPTrainer,
    EASGDTrainer,
    FedAvgTrainer,
    SelSyncTrainer,
    TrainConfig,
)
from repro.core.config import ClusterConfig
from repro.core.trainer import DistributedTrainer
from repro.obs import Tracer
from repro.obs.sink import read_trace
from repro.optim import MultiStepDecay
from repro.utils.serialization import runlog_to_jsonable
from tests.conftest import make_mlp_cluster


class TestDeployModel:
    def test_deploy_is_worker_average(self, mlp_cluster):
        workers, cluster = mlp_cluster
        trainer = BSPTrainer(workers, cluster)
        # Displace replicas so the average is distinct from any one replica.
        for i, w in enumerate(workers):
            w.set_params(np.full_like(w.get_params(), float(i)))
        model, saved = trainer.deploy_model()
        assert np.allclose(model.get_flat_params(), 1.5)  # mean of 0..3
        trainer.restore_model(saved)
        assert np.allclose(workers[0].get_params(), 0.0)

    def test_evaluate_restores_state_and_mode(self, mlp_cluster, blobs_data):
        from repro.core.evaluation import accuracy_eval

        _, test = blobs_data
        workers, cluster = mlp_cluster
        trainer = BSPTrainer(workers, cluster)
        before = workers[0].get_params()
        cfg = TrainConfig(n_steps=1, eval_every=1, eval_fn=accuracy_eval(test))
        trainer.evaluate(cfg)
        assert np.array_equal(before, workers[0].get_params())
        assert workers[0].model.training  # back in train mode


class TestEarlyStopping:
    def _run_with_metrics(self, metrics, patience, higher=True):
        """Drive the loop with a scripted eval function."""
        workers, cluster = make_mlp_cluster(self._train)
        trainer = BSPTrainer(workers, cluster)
        it = iter(metrics)
        cfg = TrainConfig(
            n_steps=10 * len(metrics),
            eval_every=10,
            eval_fn=lambda model: next(it),
            higher_is_better=higher,
            patience=patience,
        )
        return trainer.run(cfg)

    @pytest.fixture(autouse=True)
    def _data(self, blobs_data):
        self._train, _ = blobs_data

    def test_stops_after_patience_exhausted(self):
        res = self._run_with_metrics([0.5, 0.6, 0.6, 0.6, 0.9, 0.9], patience=2)
        # Improvement at evals 1,2; stale at 3,4 → stop before seeing 0.9.
        assert res.steps == 40
        assert res.best_metric == 0.6

    def test_no_patience_runs_to_cap(self):
        res = self._run_with_metrics([0.5, 0.5, 0.5], patience=None)
        assert res.steps == 30

    def test_lower_is_better_direction(self):
        res = self._run_with_metrics([90.0, 80.0, 85.0, 86.0], patience=2, higher=False)
        assert res.best_metric == 80.0
        assert res.steps == 40  # stopped after two non-improving evals


class TestTimeComposition:
    def test_lr_follows_schedule(self, mlp_cluster):
        workers, cluster = mlp_cluster
        trainer = BSPTrainer(
            workers, cluster, schedule=MultiStepDecay(1.0, [5], gamma=0.1)
        )
        assert trainer.lr(0) == 1.0
        assert trainer.lr(5) == pytest.approx(0.1)

    def test_comm_bytes_defaults_to_model_size(self, blobs_data):
        train, _ = blobs_data
        workers, _ = make_mlp_cluster(train)
        cluster = ClusterConfig(n_workers=4, comm_bytes=None, flops_per_sample=1e6)
        trainer = BSPTrainer(workers, cluster)
        assert trainer.comm_bytes == workers[0].model.nbytes

    def test_flops_defaults_to_model_estimate(self, blobs_data):
        train, _ = blobs_data
        workers, _ = make_mlp_cluster(train)
        cluster = ClusterConfig(n_workers=4, comm_bytes=1e6, flops_per_sample=None)
        trainer = BSPTrainer(workers, cluster)
        assert trainer.flops_per_sample == workers[0].model.flops_per_sample

# -- the step pipeline's seam -------------------------------------------------


class EveryHTrainer(DistributedTrainer):
    """A complete sync rule — parameter averaging every ``H`` steps — that
    calls no protocol helper: faults, screening, quorum, wire, the PS round,
    overlap and the record all come from ``DistributedTrainer``."""

    name = "every_h"
    H = 3

    def decide(self, i, ok, rec):
        return (i + 1) % self.H == 0, ok


class TestPipelineSeam:
    FAULTS = "crash:w1@5-9,drop:p=0.3,corrupt:p=0.15"

    def _trainer(self, train):
        workers, cluster = make_mlp_cluster(train, n_workers=6)
        cluster = dataclasses.replace(
            cluster,
            fault_spec=self.FAULTS,
            aggregator="trimmed_mean",
            health=True,
            probation=5,
            ps_shards=3,
        )
        return EveryHTrainer(workers, cluster)

    def _run(self, train, ck, tracer=None, **cfg_kw):
        trainer = self._trainer(train)
        cfg = TrainConfig(
            n_steps=30, eval_fn=None, checkpoint_every=10,
            checkpoint_path=str(ck), tracer=tracer, **cfg_kw,
        )
        try:
            res = trainer.run(cfg)
        finally:
            trainer.executor.shutdown()
        return trainer, res

    def test_in_test_rule_runs_the_whole_protocol(self, blobs_data, tmp_path):
        train, _ = blobs_data
        tracer = Tracer(path=tmp_path / "t.jsonl", name="every_h")
        trainer, res = self._run(train, tmp_path / "full.npz", tracer=tracer)
        tracer.close()
        log = res.log
        assert log.n_steps == 30 and log.n_synced == 30 // EveryHTrainer.H
        assert all(np.isfinite(r.loss) for r in log.iterations)
        kinds = {f.kind for f in log.faults}
        assert {"crash", "rejoin", "drop", "corrupt", "quarantine"} <= kinds
        # The three byte ledgers agree: trace events, metrics view, counter.
        _, events = read_trace(tmp_path / "t.jsonl")
        trace_bytes = sum(
            e.data["bytes"] for e in events if e.etype == "collective"
        )
        assert trace_bytes == tracer.metrics.get("comm.bytes")
        assert trace_bytes == float(trainer.group.bytes_synced) > 0

    def test_in_test_rule_resumes_bitwise(self, blobs_data, tmp_path):
        train, _ = blobs_data
        full, res_full = self._run(train, tmp_path / "full.npz")
        ck = tmp_path / "ck.npz"
        self._run(train, ck, stop_after=20)
        resumed, res = self._run(train, ck, resume_from=str(ck))
        for a, b in zip(full.workers, resumed.workers):
            assert np.array_equal(a.get_params(), b.get_params())
        assert runlog_to_jsonable(res.log) == runlog_to_jsonable(res_full.log)
        assert resumed.group.bytes_synced == full.group.bytes_synced


SYNCING_RULES = {
    "bsp": lambda w, c: BSPTrainer(w, c),
    "selsync": lambda w, c: SelSyncTrainer(w, c, delta=0.0),
    "fedavg": lambda w, c: FedAvgTrainer(w, c, c_fraction=1.0, e_factor=0.05),
    "easgd": lambda w, c: EASGDTrainer(w, c, rho=0.1, tau=1),
}


class TestPushRoundQuorum:
    @pytest.mark.parametrize("rule", sorted(SYNCING_RULES))
    def test_push_round_below_quorum_raises_before_any_exchange(
        self, rule, blobs_data
    ):
        """All four workers are live (the step opens fine) but worker 1's
        upload is always abandoned, so the push round has 3 < quorum."""
        train, _ = blobs_data
        workers, cluster = make_mlp_cluster(train)
        cluster = dataclasses.replace(
            cluster, fault_spec="drop:w1:p=1.0", min_quorum=4
        )
        trainer = SYNCING_RULES[rule](workers, cluster)
        server_before = trainer.server.pull(copy=True)
        center_before = getattr(trainer, "center", np.zeros(0)).copy()
        tracer = Tracer(name=rule)
        with pytest.raises(QuorumLostError) as ei:
            trainer.run(TrainConfig(n_steps=3, eval_fn=None, tracer=tracer))
        err = ei.value
        assert (err.step, err.contributing, err.quorum) == (0, 3, 4)
        lost = [
            e for e in tracer.events
            if e.etype == "fault" and e.data["fault_kind"] == "quorum_lost"
        ]
        assert len(lost) == 1 and lost[0].data["contributing"] == 3
        assert np.array_equal(trainer.server.pull(copy=False), server_before)
        assert np.array_equal(getattr(trainer, "center", np.zeros(0)), center_before)
        assert trainer.group.bytes_synced == 0
        assert not any(e.etype == "aggregation" for e in tracer.events)

    def test_fault_free_short_round_is_still_a_loud_error(self, mlp_cluster):
        """Only a degraded-capable run may hand the group fewer vectors
        than workers; fault-free, SimGroup's guard must still fire."""
        workers, cluster = mlp_cluster
        trainer = BSPTrainer(workers, dataclasses.replace(cluster, min_quorum=2))
        assert not trainer.fault_protocol.degraded_mode
        trainer.uploaders = lambda live, ok: ok[:-1]
        with pytest.raises(ValueError, match="expected 4 vectors, got 3"):
            trainer.step(0)
