"""Differential tests: sharded vs unsharded parameter-server runs.

The sharding contract, exercised end-to-end on BSP and SelSync across all
three executor backends:

* **Arithmetic is shard-count-invariant.** ``ps_shards ∈ {1, 2, 5}``
  produce bitwise-identical final global params, worker replicas, losses
  and sync decisions — fault-free, under worker ``crash`` faults, and
  under link ``loss`` faults whose retries all eventually deliver (the
  envelope's per-shard messages draw independent fates, so a *terminally*
  lost shard push is the one mechanism that legitimately makes a sharded
  trajectory diverge: it degrades one shard's round, which is the
  tentpole feature, not a bug — covered separately below).
* **Only the clock changes.** RunLog iteration records agree on every
  field except ``sim_time``/``comm_time`` (shards served in parallel are
  exactly a timing statement), and the sharded round is never slower.
* **Kill-and-resume is exact.** A sharded run checkpointed, killed, and
  resumed is bitwise identical to the uninterrupted run — the shard
  bounds travel through the checkpoint and are checked on resume.
"""

import numpy as np
import pytest

from repro.cluster.faults import QuorumLostError
from repro.cluster.server import ParameterServer
from repro.cluster.worker import build_worker_group
from repro.comm import SimGroup
from repro.comm.sharding import ShardSpec
from repro.core import ClusterConfig, SelSyncTrainer, TrainConfig
from repro.core.bsp import BSPTrainer
from repro.core.robust import MedianAggregator, TrimmedMeanAggregator
from repro.data import ArrayDataset, BatchLoader, selsync_partition
from repro.nn.layers.linear import Linear
from repro.nn.models import build_model
from repro.obs import Tracer
from repro.optim import SGD
from repro.utils.flatten import mean_into, reduce_slices
from repro.utils.serialization import RunLogLines
from tests.conftest import event_lines

N_WORKERS = 3
N_STEPS = 10
SHARD_COUNTS = (1, 2, 5)
EXECUTORS = ("serial", "process")


def _workers():
    rng = np.random.default_rng(0)
    ds = ArrayDataset(rng.normal(size=(60, 8)), rng.integers(0, 3, 60))
    part = selsync_partition(60, N_WORKERS, rng=1)
    loaders = BatchLoader.for_workers(ds, part, batch_size=8, seed=2)
    return build_worker_group(
        N_WORKERS,
        lambda: build_model("mlp", in_features=8, n_classes=3, rng=5),
        lambda m: SGD(m, lr=0.1, momentum=0.9),
        loaders,
    )


def _run(method, shards, executor="serial", cluster_kw=None, **cfg_kw):
    workers = _workers()
    kw = dict(
        n_workers=N_WORKERS,
        comm_bytes=1e6,
        flops_per_sample=1e6,
        executor=executor,
        ps_shards=shards,
    )
    kw.update(cluster_kw or {})
    cluster = ClusterConfig(**kw)
    if method == "selsync":
        trainer = SelSyncTrainer(workers, cluster, delta=0.1)
    else:
        trainer = BSPTrainer(workers, cluster)
    res = trainer.run(TrainConfig(n_steps=N_STEPS, eval_fn=None, **cfg_kw))
    return trainer, res


def _fingerprint(trainer, res):
    """Everything that must be shard-count-invariant, as raw bytes."""
    recs = res.log.iterations
    return (
        trainer.server.pull().tobytes(),
        trainer.mean_params().tobytes(),
        res.log.losses().tobytes(),
        tuple((r.step, r.synced, r.grad_change) for r in recs),
    )


def _timing(res):
    return [(r.sim_time, r.comm_time) for r in res.log.iterations]


# -- shard-count invariance -------------------------------------------------
@pytest.mark.parametrize("method", ["bsp", "selsync"])
@pytest.mark.parametrize("executor", EXECUTORS)
def test_params_and_decisions_identical_across_shard_counts(method, executor):
    t1, r1 = _run(method, 1, executor=executor)
    ref = _fingerprint(t1, r1)
    ref_timing = _timing(r1)
    for shards in SHARD_COUNTS[1:]:
        tS, rS = _run(method, shards, executor=executor)
        assert _fingerprint(tS, rS) == ref
        # The clock is the only thing sharding changes: each step is at
        # least as fast, and the run strictly faster overall.
        for (s1, _), (sS, _) in zip(ref_timing, _timing(rS)):
            assert sS <= s1 + 1e-12
        assert rS.log.total_sim_time < r1.log.total_sim_time
        assert tS.server.spec is tS.shard_spec
        # The effective shard count clamps to the tensor count.
        assert tS.shard_spec.n_shards == min(
            shards, len(tS.workers[0].model.parameters())
        )


@pytest.mark.parametrize("method", ["bsp", "selsync"])
def test_byte_ledger_identical_across_shard_counts(method):
    t1, r1 = _run(method, 1)
    for shards in SHARD_COUNTS[1:]:
        tS, rS = _run(method, shards)
        assert tS.group.bytes_synced == t1.group.bytes_synced
        assert rS.log.n_synced == r1.log.n_synced


# -- fault specs ------------------------------------------------------------
@pytest.mark.parametrize("method", ["bsp", "selsync"])
@pytest.mark.parametrize(
    "cluster_kw",
    [
        {"fault_spec": "crash:w1@3-6", "min_quorum": 1},
        {"net_fault_spec": "loss:p=0.05", "min_quorum": 1},
    ],
    ids=["crash", "loss"],
)
def test_identical_across_shard_counts_under_faults(method, cluster_kw):
    """Worker crashes are shard-agnostic; a low-p lossy link retries every
    shard push to delivery (abandonment odds ~p^5), so the arithmetic stays
    shard-count-invariant while waits/timing differ per stream."""
    t1, r1 = _run(method, 1, cluster_kw=cluster_kw)
    ref = _fingerprint(t1, r1)
    for shards in SHARD_COUNTS[1:]:
        tracer = Tracer(name="shards")
        tS, rS = _run(method, shards, cluster_kw=cluster_kw, tracer=tracer)
        assert _fingerprint(tS, rS) == ref
        # No terminal shard drop happened, so no shard round degraded.
        assert tracer.metrics.get("comm.degraded_shard_rounds") == 0


@pytest.mark.parametrize("executor", EXECUTORS)
def test_degraded_shard_rounds_self_consistent(executor):
    """An aggressively lossy uplink terminally drops some shard pushes:
    the run survives (degraded shard rounds instead of lost workers), the
    ledger moves, and the trajectory is executor-independent."""
    kw = {"net_fault_spec": "loss:p=0.6", "min_quorum": 1, "retry_max": 1}
    tr_ref = Tracer(name="ref")
    t_ref, r_ref = _run("bsp", 2, executor="serial", cluster_kw=kw, tracer=tr_ref)
    degraded = tr_ref.metrics.get("comm.degraded_shard_rounds")
    assert degraded > 0
    assert np.isfinite(t_ref.server.pull()).all()
    # Sharded degradation keeps every worker in the round: link_drop faults
    # carry a shard index and never escalate to a whole-worker loss.
    drops = r_ref.log.faults_of_kind("link_drop")
    assert drops and all("shard" in f.detail for f in drops)
    if executor != "serial":
        tr_x = Tracer(name="x")
        t_x, r_x = _run("bsp", 2, executor=executor, cluster_kw=kw, tracer=tr_x)
        assert _fingerprint(t_x, r_x) == _fingerprint(t_ref, r_ref)
        assert tr_x.metrics.get("comm.degraded_shard_rounds") == degraded


def _one_tensor_run(shards, trace_path, **cluster_kw):
    """SelSync δ = 0 on ``Linear(8, 3, bias=False)`` under lossy links: the
    RunLog lines, the trace lines, or the type of the error it raised."""
    rng = np.random.default_rng(0)
    ds = ArrayDataset(rng.normal(size=(64, 8)), rng.integers(0, 3, 64))
    loaders = BatchLoader.for_workers(
        ds, selsync_partition(64, 4, rng=1), batch_size=8, seed=2
    )
    workers = build_worker_group(
        4, lambda: Linear(8, 3, bias=False, rng=5), lambda m: SGD(m, lr=0.1), loaders
    )
    cluster = ClusterConfig(
        n_workers=4, comm_bytes=1e6, flops_per_sample=1e6, ps_shards=shards,
        net_fault_spec="loss:p=0.5", **cluster_kw,
    )
    trainer = SelSyncTrainer(workers, cluster, delta=0.0)
    tracer = Tracer(path=trace_path, name="one-tensor")
    try:
        res = trainer.run(TrainConfig(n_steps=10, eval_fn=None, tracer=tracer))
    except Exception as e:
        return type(e)
    finally:
        trainer.executor.shutdown()
        tracer.close()
    return RunLogLines().text(res.log), event_lines(trace_path)


@pytest.mark.parametrize("cluster_kw", [{}, {"retry_max": 0}], ids=["retries", "no-retry"])
def test_a_one_tensor_model_runs_as_unsharded_at_any_shard_count(tmp_path, cluster_kw):
    """A one-tensor model cannot be split, so ``ps_shards=2`` is one shard:
    the same messages, clock, RunLog and trace as ``ps_shards=1`` — and,
    with no retries, the same quorum loss."""
    want = _one_tensor_run(1, tmp_path / "s1.jsonl", **cluster_kw)
    got = _one_tensor_run(2, tmp_path / "s2.jsonl", **cluster_kw)
    assert got == want
    if cluster_kw:
        assert want is QuorumLostError


# -- kill-and-resume --------------------------------------------------------
@pytest.mark.parametrize("method", ["bsp", "selsync"])
@pytest.mark.parametrize("shards", [2, 5])
def test_kill_and_resume_bitwise(tmp_path, method, shards):
    ck_full = str(tmp_path / "full.npz")
    ck = str(tmp_path / "kill.npz")
    t_full, r_full = _run(
        method, shards, checkpoint_every=5, checkpoint_path=ck_full
    )
    _run(
        method,
        shards,
        checkpoint_every=5,
        checkpoint_path=ck,
        stop_after=5,
    )
    t_res, r_res = _run(
        method, shards, checkpoint_every=5, checkpoint_path=ck, resume_from=ck
    )
    assert _fingerprint(t_res, r_res) == _fingerprint(t_full, r_full)
    assert _timing(r_res) == _timing(r_full)


def test_resume_rejects_mismatched_shard_layout(tmp_path):
    ck = str(tmp_path / "ck.npz")
    _run("bsp", 2, checkpoint_every=5, checkpoint_path=ck, stop_after=5)
    with pytest.raises(ValueError, match="shard"):
        _run("bsp", 5, checkpoint_every=5, checkpoint_path=ck, resume_from=ck)


# -- server unit behavior ---------------------------------------------------
def test_sharded_server_mean_matches_unsharded_with_absences_empty():
    rng = np.random.default_rng(3)
    init = rng.standard_normal(40)
    spec = ShardSpec.from_layers([10, 10, 20], 3)
    plain = ParameterServer(init)
    sharded = ParameterServer(init, spec=spec)
    pushed = [rng.standard_normal(40) for _ in range(4)]
    assert np.array_equal(
        plain.aggregate_params([p.copy() for p in pushed]),
        sharded.aggregate_params([p.copy() for p in pushed]),
    )


def test_sharded_server_absence_degrades_one_shard_only():
    rng = np.random.default_rng(4)
    init = rng.standard_normal(30)
    spec = ShardSpec.from_layers([10, 20], 2)
    server = ParameterServer(init, spec=spec)
    pushed = [rng.standard_normal(30) for _ in range(3)]
    out = server.aggregate_params(pushed, absent={1: {0}})
    # Shard 0 averages all three; shard 1 averages only pushers 1 and 2.
    np.testing.assert_array_equal(
        out[:10], np.mean(np.stack([p[:10] for p in pushed]), axis=0)
    )
    np.testing.assert_array_equal(
        out[10:], np.mean(np.stack([p[10:] for p in pushed[1:]]), axis=0)
    )


def test_sharded_server_all_absent_shard_keeps_previous_params():
    rng = np.random.default_rng(5)
    init = rng.standard_normal(30)
    spec = ShardSpec.from_layers([10, 20], 2)
    server = ParameterServer(init, spec=spec)
    pushed = [rng.standard_normal(30) for _ in range(2)]
    out = server.aggregate_params(pushed, absent={0: {0, 1}})
    np.testing.assert_array_equal(out[:10], init[:10])


def test_sharded_server_rejects_wrong_spec_size():
    with pytest.raises(ValueError, match="shard spec"):
        ParameterServer(np.zeros(10), spec=ShardSpec.from_layers([4, 4], 2))


# -- the one reduce kernel ---------------------------------------------------
LAYERS = [7, 1, 12, 5, 9]
AGGREGATORS = {
    "mean": lambda: None,
    "trimmed_mean": lambda: TrimmedMeanAggregator(f=1),
    "median": MedianAggregator,
}


def _four_loop_reference(vectors, prev, spec, absent, agg, keep_empty):
    """What the four loops `reduce_slices` replaced computed: the unsharded
    group / server bodies reduce the whole vectors in one call; the sharded
    ones walk the spec's slices, skip each shard's absentees, and leave an
    empty shard at its previous values (params) or at zero (grads, and the
    group's mean)."""
    out = prev.copy()
    if spec is None and not absent:
        if agg is None:
            return mean_into(vectors, out=out)
        return agg.reduce(vectors, out=out)
    slices = (slice(None),) if spec is None else spec.slices()
    for s, sl in enumerate(slices):
        gone = absent.get(s, frozenset())
        vecs = [v[sl] for i, v in enumerate(vectors) if i not in gone]
        if not vecs:
            if not keep_empty:
                out[sl] = 0.0
        elif agg is None:
            mean_into(vecs, out=out[sl])
        else:
            agg.reduce(vecs, out=out[sl])
    return out


@pytest.mark.parametrize("keep_empty", [True, False], ids=["params", "grads"])
@pytest.mark.parametrize("absence", ["none", "partly", "fully"])
@pytest.mark.parametrize("agg_name", sorted(AGGREGATORS))
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_reduce_kernel_matches_four_loop_reference(
    shards, agg_name, absence, keep_empty
):
    rng = np.random.default_rng(17)
    k, d = 6, sum(LAYERS)
    vectors = [rng.standard_normal(d) * 10.0 ** rng.integers(-2, 3) for _ in range(k)]
    prev = rng.standard_normal(d)
    spec = ShardSpec.from_layers(LAYERS, shards) if shards > 1 else None
    slices = (slice(None),) if spec is None else spec.slices()
    last = len(slices) - 1
    absent = {
        "none": {},
        "partly": {last: {0, 2}},
        "fully": {0: set(range(k))},
    }[absence]
    agg = AGGREGATORS[agg_name]()
    want = _four_loop_reference(vectors, prev, spec, absent, agg, keep_empty)
    out = prev.copy()
    reduce_slices(vectors, out, slices, absent, agg, "test", keep_empty=keep_empty)
    assert out.tobytes() == want.tobytes()
    if absent and spec is None:
        return  # the public entries take absences on sharded layouts only
    # The public entries over the kernel: the server's two conventions, and
    # the group's mean (which zeroes an empty shard, as grads do).
    server = ParameterServer(prev, aggregator=agg, spec=spec)
    entry = server.aggregate_params if keep_empty else server.aggregate_grads
    assert entry(vectors, absent=absent).tobytes() == want.tobytes()
    if not keep_empty:
        group = SimGroup(k, aggregator=agg, shard_spec=spec)
        mean = group.allreduce_mean(vectors, absent=absent)
        assert mean.tobytes() == want.tobytes()


def test_reduce_kernel_rejects_out_of_range_shard():
    vectors = [np.zeros(4), np.zeros(4)]
    with pytest.raises(ValueError, match=r"shard 2 out of range \[0, 2\)"):
        reduce_slices(
            vectors, np.zeros(4), (slice(0, 2), slice(2, 4)), absent={2: {0}}
        )


def test_sharded_robust_rounds_say_which_shard_decided(tmp_path):
    """One ``where`` convention: BSP's sharded robust rounds name the shard
    (``allreduce/shard{s}``), as the server's always did."""
    tracer = Tracer(name="where")
    trainer, _ = _run(
        "bsp", 2, cluster_kw={"aggregator": "median"}, tracer=tracer
    )
    wheres = {
        e.data["where"] for e in tracer.events if e.etype == "aggregator_decision"
    }
    assert wheres == {"allreduce/shard0", "allreduce/shard1"}


def test_aborted_round_leaves_no_shard_absence_behind():
    """Step 0 loses shard pushes *and* a whole upload, so the push round
    fails its quorum after `upload_penalty` recorded the shard losses. The
    next step's round must not inherit them: absences are arguments of the
    round they were drawn for, not state."""
    workers = _workers()
    cluster = ClusterConfig(
        n_workers=N_WORKERS,
        comm_bytes=1e6,
        flops_per_sample=1e6,
        ps_shards=2,
        fault_spec="drop:w1:p=1.0@0-1",
        net_fault_spec="loss:p=0.9@0-1",
        retry_max=0,
        min_quorum=N_WORKERS,
    )
    trainer = BSPTrainer(workers, cluster)
    penalties = []
    upload_penalty = trainer.upload_penalty
    trainer.upload_penalty = lambda pushers, step: (
        penalties.append(upload_penalty(pushers, step)) or penalties[-1]
    )
    with pytest.raises(QuorumLostError):
        trainer.step(0)
    _, lost, shard_lost = penalties[0]
    assert lost == [1] and any(shard_lost.values())
    assert trainer.group.bytes_synced == 0  # no round ran
    rec = trainer.step(1)
    assert rec.synced and penalties[1][1:] == ([], {})
    # One whole round: every shard from every worker, once.
    assert trainer.group.bytes_synced == int(1e6) * N_WORKERS
