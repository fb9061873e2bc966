"""Network fault model: parsing, injection, healing, and byte identity.

Covers the resilient-collectives acceptance criteria that run fast:

* the link-level grammar round-trips (``parse`` → ``to_spec`` → ``parse``)
  for every registered clause form, and unknown/misplaced kinds produce
  one unified error listing both registries;
* the :class:`LinkFaultModel` oracle is deterministic and honours window,
  flap duty-cycle, and partition semantics;
* runs with link faults are byte-identical across the serial and process
  executors (the fault draws are keyed, never order-derived);
* a mid-run ring partition emits a typed ``reroute`` event and training
  continues on the majority side — and under a
  :class:`RecoverySupervisor` the quorum loss becomes a typed
  ``recovery`` record;
* collective event bytes still reconcile exactly with ``bytes_synced``
  when retries are charged (retries add seconds, never bytes).

The slow SmallVGG/8w accuracy regression lives in
``test_net_faults_training.py`` (marked ``slow``).
"""

import hashlib
from functools import partial

import numpy as np
import pytest

from repro.cluster.worker import build_worker_group
from repro.comm import network
from repro.core import ClusterConfig, TrainConfig
from repro.core.bsp import BSPTrainer
from repro.core.recovery import RecoverySupervisor
from repro.core.selsync import SelSyncTrainer
from repro.core.ssp import SSPTrainer
from repro.data import ArrayDataset, BatchLoader, selsync_partition
from repro.nn.models import build_model
from repro.obs import Tracer
from repro.obs import views
from repro.obs.sink import read_trace
from repro.optim import SGD
from repro.utils.spec import KINDS, parse_spec

parse_net_fault_spec = partial(parse_spec, family="link")


def make_link_faults(spec, n_workers, seed=0):
    return network.make_link_faults(parse_net_fault_spec(spec), n_workers, seed=seed)


ISSUE_SPEC = (
    "partition:{w0,w1|w2..w7}@100-200,flap:link(2,5)x3@50+,"
    "loss:p=0.02,dup:p=0.005,delay:link(0,3)x5"
)


# -- grammar -----------------------------------------------------------------


@pytest.mark.parametrize(
    "clause",
    [
        "partition:{w0,w1|w2..w7}@100-200",
        "flap:link(2,5)x3@50+",
        "loss:p=0.02",
        "dup:p=0.005",
        "delay:link(0,3)x5",
        "loss:link(1,4):p=0.1@10-20",
        "partition:{w0..w2|w3|w4..w7}@5+",
        ISSUE_SPEC,
    ],
)
def test_spec_round_trips(clause):
    canon = parse_net_fault_spec(clause).to_spec()
    assert parse_net_fault_spec(canon).to_spec() == canon
    # Round-trip is structural, not just textual.
    assert parse_net_fault_spec(canon) == parse_net_fault_spec(clause)


def test_empty_and_none_specs_are_empty_plans():
    assert parse_net_fault_spec(None).empty
    assert parse_net_fault_spec("").empty
    assert parse_net_fault_spec("  ").empty
    assert make_link_faults(None, 8) is None
    assert make_link_faults("", 8) is None


def test_unknown_kind_lists_both_registries():
    with pytest.raises(ValueError) as ei:
        parse_net_fault_spec("blackhole:link(0,1)")
    msg = str(ei.value)
    for kind in KINDS.values():
        assert kind.hint in msg
    assert "--fault-spec" in msg and "--net-faults" in msg and "--elastic" in msg


def test_misplaced_kind_is_redirected():
    # A link-level clause handed to the worker-level parser (and vice
    # versa) names the right home instead of a generic parse failure.
    with pytest.raises(ValueError, match="link-level fault kind.*--net-faults"):
        parse_spec("loss:p=0.1", "worker")
    with pytest.raises(ValueError, match="worker-level fault kind.*--fault-spec"):
        parse_net_fault_spec("crash:w2@50-120")


@pytest.mark.parametrize(
    "bad",
    [
        "partition:{w0,w1}",          # single group severs nothing
        "partition:{w0|w0,w1}@3",     # overlapping groups
        "loss:p=1.5",                 # probability out of range
        "loss:p=0",                   # zero-probability loss is a typo
        "flap:link(2,2)x3",           # self-loop
        "delay:link(0,3)x0.5@",       # dangling window marker
        "partition:{w0,w1|w2..w7",    # unbalanced braces
    ],
)
def test_malformed_clauses_raise(bad):
    with pytest.raises(ValueError):
        parse_net_fault_spec(bad)


def test_validate_rejects_out_of_range_ranks():
    plan = parse_net_fault_spec("flap:link(2,9)x3")
    with pytest.raises(ValueError):
        plan.validate(8)
    plan.validate(10)


# -- oracle semantics --------------------------------------------------------


def test_partition_severs_cross_links_and_picks_majority():
    lf = make_link_faults("partition:{w0,w1|w2..w7}@100-200", 8, seed=0)
    assert lf.majority_side(99) is None
    assert lf.majority_side(150) == tuple(range(2, 8))
    assert lf.majority_side(201) is None
    # Cross-group links down, intra-group links up, PS rides majority.
    assert lf.link_down(0, 2, 150)
    assert lf.link_down(1, 7, 150)
    assert not lf.link_down(0, 1, 150)
    assert not lf.link_down(3, 6, 150)
    assert lf.link_down(0, lf.ps_rank, 150)      # minority → PS severed
    assert not lf.link_down(5, lf.ps_rank, 150)  # majority → PS intact
    assert not lf.link_down(0, 2, 99)


def test_flap_duty_cycle():
    lf = make_link_faults("flap:link(2,5)x3@50+", 8, seed=0)
    for step in range(50, 80):
        phase = (step - 50) // 3
        assert lf.link_down(2, 5, step) == (phase % 2 == 0)
        assert not lf.link_down(2, 6, step)
    assert not lf.link_down(2, 5, 49)


def test_loss_probabilities_compose_independently():
    lf = make_link_faults("loss:p=0.1,loss:link(0,1):p=0.2", 8, seed=0)
    assert lf.loss_prob(0, 1, 5) == pytest.approx(1 - 0.9 * 0.8)
    assert lf.loss_prob(0, 2, 5) == pytest.approx(0.1)
    # Empirical rate over keyed draws tracks the configured probability.
    draws = [lf.message_lost(0, 2, s, 0) for s in range(4000)]
    assert abs(np.mean(draws) - 0.1) < 0.02


# -- executor byte-identity under faults -------------------------------------

N_WORKERS = 4
FAULTY = "loss:p=0.15,delay:link(0,1)x3,flap:link(1,2)x4@2+"


def _workers(n=N_WORKERS, momentum=0.9):
    rng = np.random.default_rng(0)
    ds = ArrayDataset(rng.normal(size=(80, 8)), rng.integers(0, 3, 80))
    part = selsync_partition(80, n, rng=1)
    loaders = BatchLoader.for_workers(ds, part, batch_size=8, seed=2)
    return build_worker_group(
        n,
        lambda: build_model("mlp", in_features=8, n_classes=3, rng=5),
        lambda m: SGD(m, lr=0.1, momentum=momentum),
        loaders,
    )


def _traced_run(tmp_path, tag, trainer_cls, executor, n_steps=12, **kw):
    cluster_kw = dict(
        n_workers=N_WORKERS,
        comm_bytes=1e6,
        flops_per_sample=1e6,
        executor=executor,
        net_fault_spec=FAULTY,
    )
    cluster_kw.update(kw.pop("cluster_kw", {}))
    workers = _workers(cluster_kw["n_workers"], momentum=kw.pop("momentum", 0.9))
    trainer = trainer_cls(workers, ClusterConfig(**cluster_kw), **kw)
    path = tmp_path / f"{tag}.jsonl"
    tracer = Tracer(path=path, name="netfaults")
    res = trainer.run(TrainConfig(n_steps=n_steps, eval_fn=None, tracer=tracer))
    tracer.close()
    return workers, res, tracer, path


@pytest.mark.parametrize(
    "trainer_cls,kw",
    [(BSPTrainer, {}), (SelSyncTrainer, {"delta": 0.1})],
    ids=["bsp", "selsync"],
)
def test_faulty_runs_byte_identical_across_executors(tmp_path, trainer_cls, kw):
    digests = {}
    params = {}
    for ex in ("serial", "process"):
        ws, _, _, path = _traced_run(tmp_path, ex, trainer_cls, ex, **dict(kw))
        digests[ex] = hashlib.sha256(path.read_bytes()).hexdigest()
        params[ex] = ws[0].get_params()
    assert digests["serial"] == digests["process"]
    np.testing.assert_array_equal(params["serial"], params["process"])


def test_faulty_run_emits_retry_events_and_charges_time(tmp_path):
    _, res, tracer, _ = _traced_run(tmp_path, "ev", BSPTrainer, "serial")
    retries = views.events_of_type(tracer.events, "retry")
    assert retries, "loss:p=0.15 over 12 steps must retry at least once"
    assert tracer.metrics.get("comm.retries") >= len(retries)
    assert tracer.metrics.get("comm.retry_wait_s") > 0.0
    series = views.retry_series(tracer.events)
    assert series is not None and series.sum() >= len(retries)
    assert np.isfinite(res.log.iterations[-1].loss)


def test_bytes_reconcile_with_retries_charged(tmp_path):
    _, _, tracer, _ = _traced_run(tmp_path, "bytes", BSPTrainer, "serial")
    coll = views.events_of_type(tracer.events, "collective")
    event_bytes = sum(float(e.data.get("bytes", 0.0)) for e in coll)
    assert event_bytes == pytest.approx(tracer.metrics.get("comm.bytes"), abs=0.0)


def test_metrics_are_the_fold_over_the_written_file(tmp_path):
    """Run totals are a view of the trace: mid-run over the ``.part``
    segments and the pending tail, and after ``close`` over the file, the
    same flat dict — sums run in file order, not emission order."""
    workers = _workers()
    cluster = ClusterConfig(
        n_workers=N_WORKERS, comm_bytes=1e6, flops_per_sample=1e6,
        net_fault_spec=FAULTY, ps_shards=3, min_quorum=1,
    )
    trainer = BSPTrainer(workers, cluster)
    path = tmp_path / "fold.jsonl"
    tracer = Tracer(path=path, name="fold")
    trainer.run(TrainConfig(n_steps=12, eval_fn=None, tracer=tracer))
    in_run = tracer.metrics
    tracer.close()
    assert in_run["comm.retries"] > 0 and in_run["comm.shard_rounds"] > 0
    assert views.metrics(read_trace(path)[1]) == in_run == tracer.metrics


# -- ring partition: reroute + majority-side continuation --------------------

RING_PARTITION = "partition:{w0|w1,w2,w3}@4-8"


def test_ring_partition_reroutes_and_majority_continues(tmp_path):
    # Momentum-free SGD: after the heal resyncs the cut replica, exact
    # reconsensus is well-defined (momentum buffers reset on re-entry,
    # so a momentum run re-diverges by design — same as crash rejoin).
    ws, res, tracer, _ = _traced_run(
        tmp_path, "ring", BSPTrainer, "serial", n_steps=14, momentum=0.0,
        cluster_kw={
            "net_fault_spec": RING_PARTITION,
            "topology": "ring",
            "min_quorum": 3,
            # Sharding is PS-only; pin it off so REPRO_PS_SHARDS legs
            # don't trip the ring-topology validation.
            "ps_shards": 1,
        },
    )
    reroutes = views.events_of_type(tracer.events, "reroute")
    assert reroutes, "partitioned ring must emit a typed reroute event"
    assert any(e.data["mode"] == "rerouted" for e in reroutes)
    parts = views.events_of_type(tracer.events, "partition_detected")
    assert len(parts) == 1 and parts[0].step == 4
    assert sorted(parts[0].data["majority"]) == [1, 2, 3]
    # Typed partition fault record, then training ran to completion.
    assert any(f.kind == "partition" for f in res.log.faults)
    assert len(res.log.iterations) == 14
    assert np.isfinite(res.log.iterations[-1].loss)
    # The heal resynced w0 and recorded its re-entry.
    heals = [f for f in res.log.faults if f.detail.get("healed_partition")]
    assert [f.worker for f in heals] == [0]
    # Majority replicas stay bitwise identical throughout; the rejoined
    # one re-enters at consensus (mean of 3 identical vectors — 1 ULP).
    np.testing.assert_array_equal(ws[1].get_params(), ws[2].get_params())
    np.testing.assert_array_equal(ws[1].get_params(), ws[3].get_params())
    np.testing.assert_allclose(
        ws[0].get_params(), ws[1].get_params(), rtol=0, atol=1e-12
    )


def test_back_to_back_partitions_record_one_onset(tmp_path):
    """Onset is "partitioned now, not one step ago", read off the plan: two
    clauses that meet at step 6 are one outage, healed once at 9."""
    _, res, tracer, _ = _traced_run(
        tmp_path, "b2b", BSPTrainer, "serial", n_steps=12,
        cluster_kw={
            "net_fault_spec": "partition:{w0|w1,w2,w3}@3-6,partition:{w0|w1,w2,w3}@6-9",
            "min_quorum": 3,
        },
    )
    parts = views.events_of_type(tracer.events, "partition_detected")
    assert [e.step for e in parts] == [3]
    assert [f.step for f in res.log.faults if f.kind == "partition"] == [3]
    heals = [f for f in res.log.faults if f.detail.get("healed_partition")]
    assert [(f.step, f.worker) for f in heals] == [(9, 0)]


def test_heal_rebases_whoever_is_cut_at_the_heal(tmp_path):
    """The heal rebases the live workers on the minority side of the
    partition's last step — not a list remembered from the onset. w0 is down
    at the onset (step 4) and back up on the minority side at the heal
    (step 8): rebased. w1 is up at the onset and down at the heal: no
    ``rejoin`` from the heal (its own crash rejoin at 10 restores it)."""
    _, res, _, _ = _traced_run(
        tmp_path, "heal", BSPTrainer, "serial", n_steps=12,
        cluster_kw={
            "n_workers": 5,
            "net_fault_spec": "partition:{w0,w1|w2,w3,w4}@4-8",
            "fault_spec": "crash:w0@3-6,crash:w1@7-10",
            "min_quorum": 2,
        },
    )
    onset = [f for f in res.log.faults if f.kind == "partition"]
    assert [(f.step, f.detail["cut"]) for f in onset] == [(4, [1])]
    heals = [f for f in res.log.faults if f.detail.get("healed_partition")]
    assert [(f.step, f.worker) for f in heals] == [(8, 0)]
    rejoins = [(f.step, f.worker) for f in res.log.faults if f.kind == "rejoin"]
    assert rejoins == [(6, 0), (8, 0), (10, 1)]


def test_ssp_detects_a_partition_once_per_worker(tmp_path):
    """SSP keys link faults on each worker's own iteration, so its pushes
    interleave steps inside and outside the window; every worker crosses
    the onset once, at its own 4th iteration, however the pushes
    interleave. The event is the landed push's (the run's step axis)."""
    _, res, tracer, _ = _traced_run(
        tmp_path, "ssp", SSPTrainer, "serial", n_steps=12, staleness=3,
        cluster_kw={"net_fault_spec": "partition:{w0|w1,w2,w3}@4-8", "min_quorum": 2},
    )
    parts = views.events_of_type(tracer.events, "partition_detected")
    pusher = [int(r.extra["worker"]) for r in res.log.iterations]
    crossed = [(pusher[e.step], pusher[: e.step].count(pusher[e.step])) for e in parts]
    assert sorted(crossed) == [(w, 4) for w in range(N_WORKERS)]


def test_partition_under_supervisor_records_recovery(tmp_path):
    # Default quorum (= all workers) makes the partition a quorum loss;
    # the supervisor relaxes to the majority side and retries, leaving a
    # typed recovery record alongside the reroutes.
    cluster = ClusterConfig(
        n_workers=N_WORKERS,
        comm_bytes=1e6,
        flops_per_sample=1e6,
        net_fault_spec=RING_PARTITION,
        topology="ring",
        ps_shards=1,  # sharding is PS-only (see the reroute test above)
    )
    trainer = BSPTrainer(_workers(), cluster)
    sup = RecoverySupervisor(max_recoveries=2)
    path = tmp_path / "sup.jsonl"
    tracer = Tracer(path=path, name="sup")
    res = sup.run(
        trainer, TrainConfig(n_steps=14, eval_fn=None, tracer=tracer)
    )
    tracer.close()
    recs = [f for f in res.log.faults if f.kind == "recovery"]
    assert recs and recs[0].detail["reason"] == "quorum_lost"
    assert views.events_of_type(tracer.events, "reroute")
    assert np.isfinite(res.log.iterations[-1].loss)
    # The retry restarts before the onset and crosses it again: the
    # transitions are read off the plan, so the log holds one onset and one
    # heal (no flag outlives the restart to "heal" at step 0).
    assert [f.step for f in res.log.faults if f.kind == "partition"] == [4]
    heals = [f for f in res.log.faults if f.detail.get("healed_partition")]
    assert [(f.step, f.worker) for f in heals] == [(8, 0)]


# -- config / CLI surface ----------------------------------------------------


def test_cluster_config_validates_spec_against_n_workers():
    with pytest.raises(ValueError):
        ClusterConfig(n_workers=4, net_fault_spec="flap:link(2,9)x3")
    with pytest.raises(ValueError):
        ClusterConfig(n_workers=4, net_fault_spec="loss:p=0.1", retry_max=-1)
    cfg = ClusterConfig(n_workers=4, net_fault_spec="loss:p=0.1", retry_max=0)
    assert cfg.make_retry_policy().max_attempts == 1


def test_cli_accepts_net_fault_flags():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        [
            "run", "--workload", "resnet_cifar10", "--steps", "2",
            "--net-faults", "loss:p=0.1", "--retry-max", "2",
            "--topology", "ring",
        ]
    )
    assert args.net_fault_spec == "loss:p=0.1"
    assert args.retry_max == 2
    assert args.topology == "ring"


def test_state_dict_net_keys_only_when_active():
    clean = ClusterConfig(n_workers=4).make_group()
    faulty = ClusterConfig(n_workers=4, net_fault_spec="loss:p=0.1").make_group()
    assert "net" not in clean.state_dict()
    assert "net" in faulty.state_dict()
    state = faulty.state_dict()
    faulty2 = ClusterConfig(
        n_workers=4, net_fault_spec="loss:p=0.1"
    ).make_group()
    faulty2.load_state_dict(state)
    assert faulty2.state_dict() == state
