"""Golden-trace regression: traces are byte-identical across run shapes.

Three contracts, each checked on the same tiny seeded SelSync workload:

1. **Executor independence** — the serial and process executors produce
   byte-for-byte identical trace files (event payloads carry no backend
   name and, in deterministic mode, no wall-clock).
2. **Resume concatenation** — a run killed at step K (``stop_after``) plus
   its resumed continuation emit exactly the event lines of the
   uninterrupted run: ``lines(part) + lines(rest) == lines(full)``.
3. **Zero perturbation** — running with a tracer attached leaves the
   training trajectory bitwise unchanged (params, losses, sim clock).

Plus a structural golden: the per-step event-type skeleton of every sync
rule's step is pinned so accidental re-ordering or dropped instrumentation
fails loudly rather than silently shifting every downstream view.
"""

import numpy as np
import pytest

from repro.cluster.worker import build_worker_group
from repro.core import (
    BSPTrainer,
    ClusterConfig,
    EASGDTrainer,
    FedAvgTrainer,
    LocalSGDTrainer,
    SelSyncTrainer,
    TrainConfig,
)
from repro.data import ArrayDataset, BatchLoader, selsync_partition
from repro.data.injection import DataInjector
from repro.nn.models import build_model
from repro.obs import Tracer
from repro.optim import SGD
from tests.conftest import event_lines

N_WORKERS = 3
N_STEPS = 10
KILL_AT = 6


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


def _selsync(workers, cluster):
    return SelSyncTrainer(workers, cluster, delta=0.1)


def _run(trace_path=None, executor="serial", ps_shards=1, make=_selsync, **cfg_kw):
    """One fresh leg: rebuilt workload, same seeds, optional tracing.

    ``ps_shards`` is pinned (default 1) rather than inherited from the
    environment: the golden skeletons below are shard-layout-specific, so
    a ``REPRO_PS_SHARDS`` override must not silently reshape them.
    """
    workers = _workers()
    cluster = ClusterConfig(
        n_workers=N_WORKERS,
        comm_bytes=1e6,
        flops_per_sample=1e6,
        executor=executor,
        ps_shards=ps_shards,
    )
    trainer = make(workers, cluster)
    tracer = None
    if trace_path is not None:
        tracer = Tracer(path=trace_path, name="golden")
    try:
        res = trainer.run(
            TrainConfig(n_steps=N_STEPS, eval_fn=None, tracer=tracer, **cfg_kw)
        )
    finally:
        trainer.executor.shutdown()
    if tracer is not None:
        tracer.close()
    return workers, res


def _run_traced(trace_path, ps_shards=1):
    """Like :func:`_run` but keeps the trainer and tracer for ledger checks."""
    workers = _workers()
    cluster = ClusterConfig(
        n_workers=N_WORKERS,
        comm_bytes=1e6,
        flops_per_sample=1e6,
        ps_shards=ps_shards,
    )
    trainer = SelSyncTrainer(workers, cluster, delta=0.1)
    tracer = Tracer(path=trace_path, name="golden")
    res = trainer.run(TrainConfig(n_steps=N_STEPS, eval_fn=None, tracer=tracer))
    tracer.close()
    return trainer, tracer, res


def test_trace_byte_identical_across_executors(tmp_path):
    p_serial = tmp_path / "serial.jsonl"
    p_process = tmp_path / "process.jsonl"
    _run(trace_path=p_serial, executor="serial")
    _run(trace_path=p_process, executor="process")
    assert p_serial.read_bytes() == p_process.read_bytes()


def test_resume_concatenation_equals_full_trace(tmp_path):
    ck_full = str(tmp_path / "ck_full.npz")
    ck = str(tmp_path / "ck.npz")
    p_full = tmp_path / "full.jsonl"
    p_part = tmp_path / "part.jsonl"
    p_rest = tmp_path / "rest.jsonl"

    # Checkpoint cadence is part of the trajectory (checkpoint_save events),
    # so all three legs share it; only stop_after/resume_from differ.
    _run(trace_path=p_full, checkpoint_every=KILL_AT, checkpoint_path=ck_full)
    _run(
        trace_path=p_part,
        checkpoint_every=KILL_AT,
        checkpoint_path=ck,
        stop_after=KILL_AT,
    )
    _run(
        trace_path=p_rest,
        checkpoint_every=KILL_AT,
        checkpoint_path=ck,
        resume_from=ck,
    )

    full = event_lines(p_full)
    part = event_lines(p_part)
    rest = event_lines(p_rest)
    assert part and rest  # both legs actually traced something
    assert part + rest == full


def test_tracing_does_not_perturb_training(tmp_path):
    workers_off, res_off = _run(trace_path=None)
    workers_on, res_on = _run(trace_path=tmp_path / "on.jsonl")
    for a, b in zip(workers_off, workers_on):
        np.testing.assert_array_equal(a.get_params(), b.get_params())
    assert [r.loss for r in res_off.log.iterations] == [
        r.loss for r in res_on.log.iterations
    ]
    assert [r.sim_time for r in res_off.log.iterations] == [
        r.sim_time for r in res_on.log.iterations
    ]


# Cluster-level (worker == -1) event order of one step, per sync rule:
# (rule, its sync step, its local step); ``None`` = the rule has no such
# step. Collectives are spelled ``collective:<op>`` — the two mean-and-charge
# routes (allreduce vs server + sync) are told apart by ``op``.
_VOTE = ["collective:allgather_flags", "sync_decision"]
_SKELETONS = {
    "bsp": (
        BSPTrainer,
        ["collective:allreduce", "aggregation"],
        None,
    ),
    "localsgd": (LocalSGDTrainer, None, []),
    # A C-sample round, then the pull-back half-round to every worker.
    "fedavg": (
        lambda w, c: FedAvgTrainer(w, c, c_fraction=0.5),
        ["collective:sync", "aggregation", "collective:pull"],
        [],
    ),
    # The center update is recorded before the round is charged.
    "easgd": (
        lambda w, c: EASGDTrainer(w, c, rho=0.1, tau=2),
        ["aggregation", "collective:sync"],
        [],
    ),
    "selsync": (_selsync, _VOTE + ["collective:sync", "aggregation"], _VOTE),
    "selsync_ga": (
        lambda w, c: SelSyncTrainer(w, c, delta=0.1, aggregation="grads"),
        _VOTE + ["collective:sync", "aggregation"],
        _VOTE,
    ),
}


@pytest.mark.parametrize("rule", sorted(_SKELETONS))
def test_golden_step_skeleton(tmp_path, rule):
    """Pin the event-type skeleton of one step of every sync rule.

    The exact floats are workload-dependent, but the *structure* — which
    events fire, for which workers, in canonical order — is part of the
    schema contract that views/dashboards build on:
    ``step_begin → [p2p] → compute_phase → [vote round] → collective →
    aggregation → step_end``, with each rule's own deviations spelled out
    in ``_SKELETONS``.
    """
    import json

    make, sync_body, local_body = _SKELETONS[rule]
    p = tmp_path / "g.jsonl"
    _run(trace_path=p, make=make)
    recs = [json.loads(line) for line in event_lines(p)]

    def spell(r):
        op = r["data"].get("op") if r["etype"] == "collective" else None
        return r["etype"] if op is None else f"collective:{op}"

    synced = {
        r["step"]: r["data"]["synced"] for r in recs if r["etype"] == "step_end"
    }
    assert sorted(synced) == list(range(N_STEPS))
    for want_sync, body in ((True, sync_body), (False, local_body)):
        steps = [s for s, did in synced.items() if did == want_sync]
        if body is None:
            assert not steps
            continue
        assert steps, f"{rule} never took a {'sync' if want_sync else 'local'} step"
        for s in steps:
            cluster_level = [
                spell(r) for r in recs if r["step"] == s and r["worker"] == -1
            ]
            assert cluster_level == (
                ["step_begin", "compute_phase"] + body + ["step_end"]
            ), (rule, s)
    # Every traced step carries the same per-worker events, after the
    # cluster-level block: one exec_task each, plus SelSync's Δ(g) vote.
    per_worker = ["exec_task"] + (["delta_eval"] if rule.startswith("selsync") else [])
    for s in range(N_STEPS):
        tail = [
            (r["etype"], r["worker"])
            for r in recs
            if r["step"] == s and r["worker"] != -1
        ]
        assert tail == [(t, w) for w in range(N_WORKERS) for t in per_worker]


def test_injection_p2p_precedes_compute_phase(tmp_path):
    """Data injection's P2P transfer is charged before the compute phase
    opens — the one event a rule emits ahead of ``compute_phase``."""
    import json

    def make(workers, cluster):
        inj = DataInjector(0.5, 0.5, N_WORKERS, sample_nbytes=64, rng=0)
        return SelSyncTrainer(workers, cluster, delta=0.1, injector=inj)

    p = tmp_path / "inj.jsonl"
    _run(trace_path=p, make=make)
    recs = [json.loads(line) for line in event_lines(p)]
    step0 = [r for r in recs if r["step"] == 0 and r["worker"] == -1]
    assert [r["etype"] for r in step0[:3]] == [
        "step_begin", "collective", "compute_phase"
    ]
    assert step0[1]["data"]["op"] == "p2p"


def test_golden_sharded_step_skeleton(tmp_path):
    """Pin the event skeleton of a sharded SelSync step.

    With ``ps_shards=2`` the single parameter-averaging ``collective``
    becomes one per-shard ``collective`` (each tagged ``shard=s`` and
    carrying exactly the bytes it added to the ledger) followed by one
    ``shard_round`` summary. Everything else — vote round, aggregation
    record, per-worker events — is untouched by sharding.
    """
    import json

    p = tmp_path / "g2.jsonl"
    _run(trace_path=p, ps_shards=2)
    recs = [json.loads(line) for line in event_lines(p)]
    step0 = [(r["etype"], r["worker"]) for r in recs if r["step"] == 0]
    assert step0 == [
        ("step_begin", -1),
        ("compute_phase", -1),
        ("collective", -1),     # allgather_flags (unsharded vote round)
        ("sync_decision", -1),
        ("collective", -1),     # PA traffic, shard 0
        ("collective", -1),     # PA traffic, shard 1
        ("shard_round", -1),    # round summary (max-over-shards timing)
        ("aggregation", -1),
        ("step_end", -1),
        ("exec_task", 0),
        ("delta_eval", 0),
        ("exec_task", 1),
        ("delta_eval", 1),
        ("exec_task", 2),
        ("delta_eval", 2),
    ]
    # The per-shard collectives split the full payload without losing a
    # byte, and each is tagged with its shard index.
    shard_evs = [
        r for r in recs
        if r["step"] == 0 and r["etype"] == "collective"
        and "shard" in r["data"]
    ]
    assert [r["data"]["shard"] for r in shard_evs] == [0, 1]
    assert sum(r["data"]["payload"] for r in shard_evs) == 1e6
    for r in shard_evs:
        assert r["data"]["bytes"] == int(r["data"]["payload"]) * N_WORKERS
    # Every synced step has exactly one shard_round; local steps have none.
    for s in range(N_STEPS):
        step = [r for r in recs if r["step"] == s]
        synced = any(
            r["etype"] == "sync_decision" and r["data"].get("synced")
            for r in step
        )
        rounds = [r for r in step if r["etype"] == "shard_round"]
        assert len(rounds) == (1 if synced else 0)
        if rounds:
            d = rounds[0]["data"]
            assert d["n_shards"] == 2 and d["n_degraded"] == 0


def test_trace_bytes_reconcile_three_ways(tmp_path):
    """trace events == metrics counter == cost-model charge, any shard count.

    The ``bytes`` field of every ``collective`` event is defined as exactly
    what that operation added to ``SimGroup.bytes_synced``; the metrics view
    sums those same fields into ``comm.bytes``. This pins the three ledgers
    to each other for both the unsharded and the sharded path (where
    ``shard_round`` summaries must recap — not double-count — the bytes).
    """
    import json

    for shards in (1, 2):
        p = tmp_path / f"ledger_s{shards}.jsonl"
        trainer, tracer, _ = _run_traced(p, ps_shards=shards)
        recs = [json.loads(line) for line in event_lines(p)]
        ev_bytes = sum(
            r["data"]["bytes"] for r in recs if r["etype"] == "collective"
        )
        assert ev_bytes == tracer.metrics.get("comm.bytes")
        assert ev_bytes == float(trainer.group.bytes_synced)
        rounds = [r for r in recs if r["etype"] == "shard_round"]
        if shards == 1:
            assert not rounds
        else:
            # Each round's summary bytes recap its per-shard collectives.
            shard_bytes = sum(
                r["data"]["bytes"] for r in recs
                if r["etype"] == "collective" and "shard" in r["data"]
            )
            assert sum(r["data"]["bytes"] for r in rounds) == shard_bytes
            assert tracer.metrics.get("events.shard_round") == len(rounds)
