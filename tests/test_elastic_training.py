"""Integration tests for elastic membership through the trainer stack.

The contracts under test, on a tiny seeded SelSync workload:

* a planned mid-run join + drain completes with finite loss, emits the
  typed ``membership``/``repartition``/``scale_decision`` events, and
  every post-event partition union covers the full dataset;
* elastic runs are executor-independent — the serial and process
  backends produce byte-identical traces and parameters;
* ``--elastic off`` is free: the trajectory is bitwise identical to a
  config that never mentions elasticity, no elastic event ever appears,
  and checkpoints carry no ``elastic`` section;
* kill-and-resume across a membership change is bitwise identical to the
  uninterrupted run (the resumed trainer rebuilds the grown worker group
  from a config that still says ``n_workers=3``);
* a drain under health tracking renumbers the step's live set before the
  joiners bootstrap from it;
* SSP's event-driven loop refuses elasticity loudly.
"""

import numpy as np
import pytest

from repro.cluster import ElasticContext
from repro.cluster.worker import build_worker_group
from repro.core import ClusterConfig, SSPTrainer, SelSyncTrainer, TrainConfig
from repro.data import ArrayDataset, BatchLoader, selsync_partition
from repro.nn.models import build_model
from repro.obs import Tracer
from repro.optim import SGD
from repro.utils.flatten import mean_into
from tests.conftest import event_lines

N_WORKERS = 3
N_STEPS = 14
N_SAMPLES = 96
PLAN = "join:+2@4,drain:w1@8"


def _dataset():
    rng = np.random.default_rng(0)
    return ArrayDataset(
        rng.normal(size=(N_SAMPLES, 8)), rng.integers(0, 3, N_SAMPLES)
    )


def _build(elastic_spec=None, executor="serial", **cluster_kw):
    ds = _dataset()
    part = selsync_partition(N_SAMPLES, N_WORKERS, rng=1)
    loaders = BatchLoader.for_workers(ds, part, batch_size=8, seed=2)
    model_factory = lambda: build_model("mlp", in_features=8, n_classes=3, rng=5)
    opt_factory = lambda m: SGD(m, lr=0.1, momentum=0.9)
    workers = build_worker_group(N_WORKERS, model_factory, opt_factory, loaders)
    cluster = ClusterConfig(
        n_workers=N_WORKERS,
        comm_bytes=1e6,
        flops_per_sample=1e6,
        executor=executor,
        elastic_spec=elastic_spec,
        **cluster_kw,
    )
    trainer = SelSyncTrainer(workers, cluster, delta=0.1)
    if trainer.elastic is not None:
        trainer.bind_elastic(
            ElasticContext(
                model_factory=model_factory,
                optimizer_factory=opt_factory,
                dataset=ds,
                batch_size=8,
                partition_fn=selsync_partition,
            )
        )
    return trainer


def _run(elastic_spec=None, executor="serial", trace_path=None, **cfg_kw):
    trainer = _build(elastic_spec=elastic_spec, executor=executor)
    tracer = Tracer(path=trace_path, name="elastic") if trace_path else None
    try:
        res = trainer.run(
            TrainConfig(n_steps=N_STEPS, eval_fn=None, tracer=tracer, **cfg_kw)
        )
    finally:
        trainer.executor.shutdown()
        if tracer is not None:
            tracer.close()
    return trainer, res


def _of_type(tracer_or_events, etype):
    events = getattr(tracer_or_events, "events", tracer_or_events)
    return [e for e in events if e.etype == etype]


class TestJoinDrainMechanics:
    @pytest.fixture(scope="class")
    def traced_run(self):
        trainer = _build(elastic_spec=PLAN)
        tracer = Tracer(name="elastic")
        res = trainer.run(
            TrainConfig(n_steps=N_STEPS, eval_fn=None, tracer=tracer)
        )
        return trainer, tracer, res

    def test_run_completes_with_finite_loss(self, traced_run):
        trainer, _, res = traced_run
        assert len(trainer.workers) == N_WORKERS + 2 - 1
        assert all(np.isfinite(r.loss) for r in res.log.iterations)

    def test_membership_events_are_typed(self, traced_run):
        _, tracer, _ = traced_run
        events = _of_type(tracer, "membership")
        joins = [e for e in events if e.data["action"] == "join"]
        drains = [e for e in events if e.data["action"] == "drain"]
        assert [e.step for e in joins] == [4, 4]
        assert sorted(e.data["uid"] for e in joins) == [3, 4]
        assert all(e.data["bootstrap"] == "donor_consensus" for e in joins)
        assert [e.step for e in drains] == [8]
        assert drains[0].data["uid"] == 1
        assert (drains[0].data["size_before"], drains[0].data["size_after"]) == (5, 4)

    def test_repartition_covers_full_dataset(self, traced_run):
        """Every membership change re-rotates SelDP over the new world
        size; the union of the new partition must cover every sample."""
        _, tracer, _ = traced_run
        reparts = _of_type(tracer, "repartition")
        assert [e.step for e in reparts] == [4, 8]
        for e in reparts:
            assert e.data["scheme"] == "seldp"
            assert e.data["coverage"] == 1.0
            assert e.data["n_samples"] == N_SAMPLES

    def test_final_partition_union_covers_dataset(self, traced_run):
        trainer, _, _ = traced_run
        seen = np.concatenate(
            [np.unique(w.loader.order) for w in trainer.workers]
        )
        assert np.array_equal(np.unique(seen), np.arange(N_SAMPLES))

    def test_world_size_gauge_tracks_membership(self, traced_run):
        _, tracer, _ = traced_run
        assert tracer.metrics.get("cluster.world_size") == 4.0
        assert tracer.metrics.get("elastic.joins") == 2.0
        assert tracer.metrics.get("elastic.drains") == 1.0

    def test_provisioning_charged_in_sim_seconds(self, traced_run):
        """The join step carries the boot + transfer charge on the clock."""
        _, _, res = traced_run
        recs = res.log.iterations
        assert recs[4].extra.get("provision_s", 0.0) > 0.0
        assert recs[4].sim_time > recs[3].sim_time


class TestExecutorIndependence:
    def test_traces_and_params_byte_identical(self, tmp_path):
        params, traces = {}, {}
        for ex in ("serial", "process"):
            path = tmp_path / f"{ex}.jsonl"
            trainer, _ = _run(elastic_spec=PLAN, executor=ex, trace_path=path)
            params[ex] = [w.get_params() for w in trainer.workers]
            traces[ex] = path.read_bytes()
        assert traces["serial"] == traces["process"]
        for a, b in zip(params["serial"], params["process"]):
            np.testing.assert_array_equal(a, b)


class TestElasticOffIsFree:
    def test_off_matches_never_configured(self, tmp_path):
        t_base, r_base = _run(elastic_spec=None)
        t_off, r_off = _run(
            elastic_spec="off", trace_path=tmp_path / "off.jsonl"
        )
        for a, b in zip(t_base.workers, t_off.workers):
            np.testing.assert_array_equal(a.get_params(), b.get_params())
        assert [r.loss for r in r_base.log.iterations] == [
            r.loss for r in r_off.log.iterations
        ]
        assert [r.sim_time for r in r_base.log.iterations] == [
            r.sim_time for r in r_off.log.iterations
        ]
        for line in event_lines(tmp_path / "off.jsonl"):
            assert '"membership"' not in line
            assert '"scale_decision"' not in line
            assert '"repartition"' not in line

    def test_off_checkpoint_has_no_elastic_section(self):
        trainer = _build(elastic_spec="off")
        assert trainer.elastic is None
        assert "elastic" not in trainer.state_dict()

    def test_on_checkpoint_has_elastic_section(self):
        trainer = _build(elastic_spec=PLAN)
        state = trainer.state_dict()
        assert len(state["workers"]) == N_WORKERS
        assert state["elastic"]["uids"] == [0, 1, 2]
        # The controller's own state, minus what nothing reads back.
        assert not {"world_size", "seed", "_sync_ewma"} & set(state["elastic"])


class TestKillAndResume:
    @pytest.mark.parametrize("kill_at", [6, 3], ids=["after-change", "before-change"])
    def test_bitwise_identical_across_membership_change(self, tmp_path, kill_at):
        """Checkpoint after the join (resume must rebuild a 5-worker group
        from a 3-worker config) or before any change (plain path) — either
        way the continuation is bitwise identical to the full run."""
        ck_full = str(tmp_path / "full.npz")
        ck = str(tmp_path / "kill.npz")
        t_full, r_full = _run(
            elastic_spec=PLAN, checkpoint_every=kill_at, checkpoint_path=ck_full
        )
        _run(
            elastic_spec=PLAN,
            checkpoint_every=kill_at,
            checkpoint_path=ck,
            stop_after=kill_at,
        )
        t_res, r_res = _run(
            elastic_spec=PLAN,
            checkpoint_every=kill_at,
            checkpoint_path=ck,
            resume_from=ck,
        )
        assert len(t_res.workers) == len(t_full.workers)
        for a, b in zip(t_full.workers, t_res.workers):
            np.testing.assert_array_equal(a.get_params(), b.get_params())
        full = {r.step: r for r in r_full.log.iterations}
        for r in r_res.log.iterations:
            assert r.loss == full[r.step].loss
            assert r.sim_time == full[r.step].sim_time


class TestElasticUnderHealth:
    def test_drain_and_join_at_one_step_bootstrap_from_survivors(self):
        """Draining the last rank while a joiner arrives: the joiner starts
        on the mean of the surviving live replicas, and the run finishes
        (the live set of the step before the change must not index the
        shrunken worker list)."""
        trainer = _build(elastic_spec="join:+1@4,drain:w2@4", health=True)
        seen = {}

        def monitor(t, i):
            if i == 3:
                seen["live"] = list(t.fault_protocol.live)

        step = trainer.step

        def spy(i):
            if i == 4:
                survivors = [w for w in seen["live"] if w != 2]
                seen["expected"] = mean_into(
                    [trainer.workers[w].get_params(copy=False) for w in survivors]
                )
                seen["joiner"] = trainer.workers[-1].get_params()
            return step(i)

        trainer.step = spy
        res = trainer.run(
            TrainConfig(n_steps=N_STEPS, eval_fn=None, step_monitor=monitor)
        )
        assert res.steps == N_STEPS
        assert len(trainer.workers) == N_WORKERS
        assert seen["joiner"].tobytes() == seen["expected"].tobytes()


class TestSSPGate:
    def test_ssp_refuses_elasticity(self):
        ds = _dataset()
        part = selsync_partition(N_SAMPLES, N_WORKERS, rng=1)
        loaders = BatchLoader.for_workers(ds, part, batch_size=8, seed=2)
        workers = build_worker_group(
            N_WORKERS,
            lambda: build_model("mlp", in_features=8, n_classes=3, rng=5),
            lambda m: SGD(m, lr=0.1),
            loaders,
        )
        cluster = ClusterConfig(
            n_workers=N_WORKERS,
            comm_bytes=1e6,
            flops_per_sample=1e6,
            elastic_spec="join:+1@5",
        )
        with pytest.raises(NotImplementedError, match="elastic scaling"):
            SSPTrainer(workers, cluster)
