"""The simulated clock is one fold over a step's events.

:func:`repro.obs.views.clock` over the events a lock-step step emitted must
equal that step's ``step_end`` ``sim_time`` / ``comm_time`` with ``==`` —
for every sync rule under faults, link faults, sharding and elastic
membership, and on the three 8-worker configurations whose push phase
waits (a max over pushers plus drop-retry penalties) no schema-1 event
recorded. An untraced run keeps the same clock: its RunLog text equals the
traced run's byte for byte.
"""

from __future__ import annotations

import json
from collections import defaultdict

import pytest

from repro.cluster import ElasticContext
from repro.cluster.worker import build_worker_group
from repro.core import (
    BSPTrainer,
    ClusterConfig,
    EASGDTrainer,
    FedAvgTrainer,
    LocalSGDTrainer,
    SelSyncTrainer,
    SSPTrainer,
    TrainConfig,
)
from repro.core.compression import TopKCompressor
from repro.data import BatchLoader, build_dataset, selsync_partition
from repro.data.injection import DataInjector
from repro.nn.models import build_model
from repro.obs import TRACE_SCHEMA_VERSION, Tracer
from repro.obs.sink import TraceSchemaError, event_from_jsonable
from repro.obs import views
from repro.obs.views import CLOCK_TYPES, ClockError, clock, clocks
from repro.optim import SGD
from repro.utils.serialization import RunLogLines

N_STEPS = 30
WORKER_FAULTS = "crash:w1@5-12,straggle:w0x3@3+,drop:p=0.2,corrupt:w2@8,corrupt:p=0.1"

RULES = {
    "bsp": lambda w, c: BSPTrainer(w, c),
    "bsp+topk": lambda w, c: BSPTrainer(w, c, compressor=TopKCompressor(ratio=0.1)),
    "selsync-pa": lambda w, c: SelSyncTrainer(w, c, delta=0.1),
    "selsync+injector": lambda w, c: SelSyncTrainer(
        w, c, delta=0.1,
        injector=DataInjector(0.5, 0.5, len(w), sample_nbytes=64, rng=0),
    ),
    "fedavg-c0.5": lambda w, c: FedAvgTrainer(w, c, c_fraction=0.5, e_factor=0.25),
    "easgd-tau2": lambda w, c: EASGDTrainer(w, c, rho=0.1, tau=2),
    "localsgd": lambda w, c: LocalSGDTrainer(w, c),
}

SCENARIOS = {
    "fault-free": {},
    "faults+mean": dict(fault_spec=WORKER_FAULTS, min_quorum=1),
    "ring+loss+flap": dict(
        topology="ring", net_fault_spec="loss:p=0.1,flap:link(1,2)x3@1+", min_quorum=2
    ),
    "ps+loss+partition": dict(
        net_fault_spec="loss:p=0.1,partition:{w0|w1,w2,w3}@10-20", min_quorum=2
    ),
    "shards3+loss0.3+retry0": dict(
        ps_shards=3, net_fault_spec="loss:p=0.3", retry_max=0, min_quorum=1
    ),
    "elastic-join+drain": dict(elastic_spec="join:+2@8,drain:w1@18"),
}

#: The push phase's wait decides these 8-worker steps (rule, overrides).
PROBES = {
    "selsync+shards2+loss0.3": (
        "selsync-pa", dict(ps_shards=2, net_fault_spec="loss:p=0.3", min_quorum=1)
    ),
    "selsync+drop0.3": ("selsync-pa", dict(fault_spec="drop:p=0.3", min_quorum=1)),
    "bsp+drop0.3": ("bsp", dict(fault_spec="drop:p=0.3", min_quorum=1)),
}


def _run(rule, overrides, n_workers=4, n_steps=N_STEPS, tracer=None, make=None):
    train, _ = build_dataset(
        "blobs", n_train=256, n_test=64, n_features=16, n_classes=4, rng=0
    )
    part = selsync_partition(len(train), n_workers, rng=1)
    loaders = BatchLoader.for_workers(train, part, batch_size=16, seed=2)

    def model_factory():
        return build_model("mlp", in_features=16, n_classes=4, hidden=(16,), rng=7)

    def optimizer_factory(m):
        return SGD(m, lr=0.05, momentum=0.9)

    workers = build_worker_group(n_workers, model_factory, optimizer_factory, loaders)
    cluster = ClusterConfig(
        n_workers=n_workers, seed=0, comm_bytes=1e6, flops_per_sample=1e6,
        **{"ps_shards": 1, **overrides},
    )
    trainer = (make or RULES[rule])(workers, cluster)
    if trainer.elastic is not None:
        trainer.bind_elastic(ElasticContext(
            model_factory=model_factory, optimizer_factory=optimizer_factory,
            dataset=train, batch_size=16, partition_fn=selsync_partition,
        ))
    try:
        res = trainer.run(TrainConfig(n_steps=n_steps, eval_fn=None, tracer=tracer))
    finally:
        trainer.executor.shutdown()
    return res


def _steps(events):
    by_step = defaultdict(list)
    for ev in events:
        by_step[ev.step].append(ev)
    return by_step


def _assert_clock_is_the_fold(events, n_steps):
    ends = {ev.step: ev.data for ev in events if ev.etype == "step_end"}
    assert sorted(ends) == list(range(n_steps))
    for step, evs in _steps(events).items():
        if step in ends:
            assert clock(evs) == (ends[step]["sim_time"], ends[step]["comm_time"]), step


def _traced(rule, overrides, **kw):
    tracer = Tracer(name="clock")
    res = _run(rule, overrides, tracer=tracer, **kw)
    return res, tracer.events


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("rule", sorted(RULES))
def test_clock_is_the_fold_and_untraced_runs_keep_it(rule, scenario):
    overrides = SCENARIOS[scenario]
    if rule == "selsync+injector" and "elastic_spec" in overrides:
        with pytest.raises(NotImplementedError, match="injector"):
            _run(rule, overrides)
        return
    res, events = _traced(rule, overrides)
    _assert_clock_is_the_fold(events, N_STEPS)
    lines = RunLogLines()
    assert lines.text(_run(rule, overrides).log) == lines.text(res.log)


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_push_phase_wait_is_on_the_round(probe):
    """The 8-worker probes: the fold holds, and without the round's
    ``upload_s`` (the schema-1 events) the fold once planned —
    compute max + collectives + shard rounds + ``retry.wait_s`` — misses."""
    rule, overrides = PROBES[probe]
    res, events = _traced(rule, overrides, n_workers=8, n_steps=20)
    _assert_clock_is_the_fold(events, 20)
    assert any(
        "upload_s" in ev.data for ev in events if ev.etype in ("collective", "shard_round")
    )
    misses = 0
    for step, evs in _steps(events).items():
        planned = 0.0
        for ev in evs:
            d = ev.data
            if ev.etype == "compute_phase":
                planned += d["max"]
            elif ev.etype == "collective" and "shard" not in d:
                planned += d["seconds"]
            elif ev.etype == "shard_round":
                planned += d["seconds"]
            elif ev.etype == "sync_decision":
                planned += d["overhead_s"]
            elif ev.etype == "retry":
                planned += d["wait_s"]
        misses += abs(planned - res.log.iterations[step].sim_time) > 1e-9
    assert misses > 0


@pytest.mark.parametrize("rule, scenario", [
    ("selsync+injector", "faults+mean"),
    ("fedavg-c0.5", "faults+mean"),
    ("bsp", "shards3+loss0.3+retry0"),
])
def test_an_untraced_step_collects_only_what_the_clock_reads(monkeypatch, rule, scenario):
    """With no tracer installed a step builds only the events the clock
    reads: per step, the untraced run collects exactly the clock-type
    events the traced run emitted inside its step, in the same order, and
    both fold to the same clock with ``==``."""
    folded = []
    real = views.clock
    monkeypatch.setattr(views, "clock", lambda evs: folded.append(list(evs)) or real(evs))
    _run(rule, SCENARIOS[scenario])
    untraced, folded[:] = folded[:], []
    _, events = _traced(rule, SCENARIOS[scenario])
    traced = folded
    assert len(untraced) == len(traced) == N_STEPS
    by_step = _steps(events)
    dropped = set()
    for step, (u, t) in enumerate(zip(untraced, traced)):
        assert [(e.etype, e.worker, e.data) for e in u] == [
            (e.etype, e.worker, e.data) for e in t
        ]
        # ``step_end`` is the run loop's, emitted after the step's block.
        assert sorted(t, key=lambda e: e.key) == [
            e for e in by_step[step] if e.etype in CLOCK_TYPES - {"step_end"}
        ]
        dropped |= {e.etype for e in by_step[step]} - CLOCK_TYPES
        assert real(u) == real(t) == real(by_step[step])
    # The filter bites: a traced step records types the clock never reads.
    assert {"step_begin", "exec_task"} <= dropped


def test_fedavg_pull_back_is_a_collective_outside_the_ledger():
    """FedAvg's pull-back half-round is a ``collective`` with
    ``op="pull"`` outside the byte ledger."""
    res, events = _traced("fedavg-c0.5", {})
    pulls = [ev for ev in events if ev.etype == "collective" and ev.data["op"] == "pull"]
    assert pulls and all(ev.data["bytes"] == 0.0 for ev in pulls)
    assert res.log.total_comm_time > 0.0


def test_clock_refuses_ssp_and_schema_1(tmp_path):
    tracer = Tracer(path=tmp_path / "ssp.jsonl", name="ssp")
    _run(None, {}, n_steps=4, tracer=tracer,
         make=lambda w, c: SSPTrainer(w, c, staleness=2))
    tracer.close()
    with pytest.raises(ClockError, match="SSP"):
        clocks(tmp_path / "ssp.jsonl")

    tracer = Tracer(path=tmp_path / "selsync.jsonl", name="selsync")
    _run("selsync-pa", {}, n_steps=4, tracer=tracer)
    tracer.close()
    assert len(clocks(tmp_path / "selsync.jsonl")) == 4
    # The same trace as schema 1 wrote it: its header, no overhead_s.
    lines = (tmp_path / "selsync.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == TRACE_SCHEMA_VERSION == 2
    header["schema"] = 1
    old = [json.dumps(header)]
    for line in lines[1:]:
        rec = json.loads(line)
        rec["data"].pop("overhead_s", None)
        old.append(json.dumps(rec))
    (tmp_path / "v1.jsonl").write_text("\n".join(old) + "\n")
    with pytest.raises(TraceSchemaError, match="schema 1"):
        clocks(tmp_path / "v1.jsonl")
    step0 = [event_from_jsonable(json.loads(line)) for line in old[1:]]
    step0 = [ev for ev in step0 if ev.step == 0]
    with pytest.raises(ClockError, match="schema-1"):
        clock(step0)
