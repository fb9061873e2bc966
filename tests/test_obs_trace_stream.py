"""A path-backed tracer writes its trace as the run goes.

The reference is the writer it replaced, kept here: hold every event until
the end, sort them all by ``(step, worker, seq)`` and serialize each with
``json.dumps`` over the whole record. The streamed file must equal its
output byte for byte — on the CLI golden smoke run, under the recovery
supervisor's rollback (events for steps already written: a second sorted
segment), under SSP (a step per landed push, streamed like a lock-step run)
and across an elastic join + drain. A run stopped without
:meth:`Tracer.close` leaves a ``.part`` file holding the first whole steps
of the closed trace, and between steps a tracer holds only the step in
flight.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.faults import QuorumLostError
from repro.core import ClusterConfig, TrainConfig
from repro.core.bsp import BSPTrainer
from repro.core.recovery import DivergenceExceededError, RecoverySupervisor
from repro.core.selsync import SelSyncTrainer
from repro.core.ssp import SSPTrainer
from repro.data import ArrayDataset, build_dataset, default_partition
from repro.obs import TraceEvent, Tracer, views
from repro.obs.sink import event_line, part_path, read_trace
from repro.utils.serialization import RunLogLines, encode_jsonable, runlog_to_jsonable
from tests.conftest import make_mlp_cluster

_NONFINITE_TAG = "__nonfinite__"


# -- the replaced writer -----------------------------------------------------
def ref_encode(obj):
    """``encode_jsonable`` as it was: numpy tests on every float."""
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if np.isnan(f):
            return {_NONFINITE_TAG: "nan"}
        if np.isinf(f):
            return {_NONFINITE_TAG: "inf" if f > 0 else "-inf"}
        return f
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                k = str(k)
            out[k] = ref_encode(v)
        return out
    if isinstance(obj, (list, tuple)):
        return [ref_encode(v) for v in obj]
    raise TypeError(f"cannot JSON-encode object of type {type(obj).__name__}")


def ref_event_line(ev):
    rec = {
        "etype": ev.etype,
        "step": ev.step,
        "worker": ev.worker,
        "seq": ev.seq,
        "data": ref_encode(ev.data),
    }
    return json.dumps(rec, sort_keys=True, allow_nan=False)


def ref_write(path, header, events):
    """Sort everything, then write."""
    with open(path, "w") as f:
        f.write(json.dumps(header, sort_keys=True, allow_nan=False) + "\n")
        for ev in sorted(events, key=lambda e: e.key):
            f.write(ref_event_line(ev) + "\n")


class RecordingTracer(Tracer):
    """A path-backed tracer that also keeps every event it was handed —
    exactly what the replaced writer held until ``close``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.emitted = []

    def emit(self, *args, **kwargs):
        ev = super().emit(*args, **kwargs)
        self.emitted.append(ev)
        return ev


def assert_matches_reference(tracer, tmp_path):
    ref = tmp_path / "reference.jsonl"
    ref_write(ref, tracer.header(), tracer.emitted)
    assert Path(tracer.path).read_bytes() == ref.read_bytes()
    assert not part_path(tracer.path).exists()


# -- the CLI golden smoke run --------------------------------------------------
GOLDEN_ARGS = [
    "run", "--workload", "resnet_cifar10", "--method", "selsync", "--steps", "20",
    "--eval-every", "20", "--data-scale", "0.15", "--trace",
]


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    from repro.cli import main

    tmp = tmp_path_factory.mktemp("golden")
    made = []

    def recording(*args, **kwargs):
        made.append(RecordingTracer(*args, **kwargs))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.obs.Tracer", recording)
        assert main(GOLDEN_ARGS + ["--trace-path", str(tmp / "golden_trace.jsonl")]) == 0
    (tracer,) = made
    return tracer, tmp


def test_golden_smoke_trace_matches_the_sort_all_writer(golden):
    tracer, tmp = golden
    assert len(tracer._segments) == 1  # lock-step: close only renamed
    assert_matches_reference(tracer, tmp)


def test_golden_smoke_events_encode_as_before(golden):
    tracer, _ = golden
    assert len(tracer.emitted) > 200
    for ev in tracer.emitted:
        assert event_line(ev) == ref_event_line(ev)


# -- the encoder against the replaced one --------------------------------------
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.floats(width=32, allow_nan=True, allow_infinity=True).map(np.float32),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_keys = st.one_of(st.text(max_size=6), st.integers(-5, 5), st.booleans(), st.none())


def _containers(inner):
    return st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_keys, inner, max_size=4),
    )


_payloads = st.recursive(_scalars, _containers, max_leaves=20)


@settings(max_examples=150, deadline=None)
@given(
    data=st.dictionaries(_keys, _payloads, max_size=5),
    step=st.integers(-1, 10**6),
    worker=st.integers(-1, 64),
    seq=st.integers(0, 10**4),
)
def test_event_line_matches_the_replaced_encoder(data, step, worker, seq):
    ev = TraceEvent("fault", step=step, worker=worker, seq=seq, data=data)
    assert event_line(ev) == ref_event_line(ev)
    assert json.dumps(encode_jsonable(data), sort_keys=True) == json.dumps(
        ref_encode(data), sort_keys=True
    )


def test_encoder_still_refuses_what_json_cannot_hold():
    with pytest.raises(TypeError, match="ndarray"):
        encode_jsonable({"x": np.zeros(2)})


# -- late events: rollback, SSP, elastic -----------------------------------------
def test_supervisor_rollback_merges_segments_into_the_reference(tmp_path):
    """``tests/test_net_faults.py``'s supervisor scenario: the retry replays
    steps the file already holds, so the run writes two sorted segments."""
    from tests.test_net_faults import N_WORKERS, RING_PARTITION, _workers

    cluster = ClusterConfig(
        n_workers=N_WORKERS,
        comm_bytes=1e6,
        flops_per_sample=1e6,
        net_fault_spec=RING_PARTITION,
        topology="ring",
        ps_shards=1,
    )
    tracer = RecordingTracer(path=tmp_path / "sup.jsonl", name="sup")
    RecoverySupervisor(max_recoveries=2).run(
        BSPTrainer(_workers(), cluster),
        TrainConfig(n_steps=14, eval_fn=None, tracer=tracer),
    )
    assert len(tracer._segments) == 2
    before_close = [(e.key, e.etype) for e in tracer.events]
    tracer.close()
    assert_matches_reference(tracer, tmp_path)
    assert not (tmp_path / "sup.jsonl.part.segments").exists()
    assert [(e.key, e.etype) for e in tracer.events] == before_close


def _ssp(fault_spec="straggle:w1x3@2+", n_workers=3, min_quorum=1):
    rng = np.random.default_rng(0)
    ds = ArrayDataset(rng.normal(size=(64, 4)), rng.integers(0, 2, 64))
    workers, _ = make_mlp_cluster(
        ds, n_workers=n_workers, batch_size=8, n_features=4, n_classes=2,
        hidden=(4,), lr=0.1, momentum=0.0, partition_fn=default_partition,
    )
    cluster = ClusterConfig(
        n_workers=n_workers, comm_bytes=1e6, flops_per_sample=1e6,
        fault_spec=fault_spec, min_quorum=min_quorum,
    )
    return SSPTrainer(workers, cluster, staleness=2)


def test_ssp_trace_matches_the_reference(tmp_path):
    tracer = RecordingTracer(path=tmp_path / "ssp.jsonl", name="ssp")
    _ssp().run(TrainConfig(n_steps=7, eval_every=7, eval_fn=None, tracer=tracer))
    tracer.close()
    assert_matches_reference(tracer, tmp_path)


def test_ssp_trace_streams_by_landed_push(tmp_path):
    """Every event of a push — faults keyed on a worker's own iteration
    included — is at that push's step: the closed pushes are on disk in one
    sorted segment before ``close()``, and the tracer holds only the last."""
    tracer = RecordingTracer(path=tmp_path / "ssp.jsonl", name="ssp")
    res = _ssp("crash:w2@1-3,straggle:w1x3@2+,drop:p=0.3").run(
        TrainConfig(n_steps=7, eval_every=2, eval_fn=lambda m: 0.5, tracer=tracer)
    )
    last = res.log.n_steps - 1
    assert {e.step for e in tracer._pending} == {last}
    lines = part_path(tracer.path).read_text().splitlines()[1:]
    assert sorted({json.loads(ln)["step"] for ln in lines}) == list(range(last))
    assert {"fault", "step_end", "eval"} <= {json.loads(ln)["etype"] for ln in lines}
    assert len(tracer._segments) == 1
    tracer.close()
    assert_matches_reference(tracer, tmp_path)


def test_ssp_runlog_is_a_view_of_its_trace():
    """The one run loop writes SSP's ``step_end`` (``extra.worker``
    included) and its evaluations under the loop's label; the one fault
    writer keys every fault on the worker's own ``iteration``."""
    for fault_spec, kinds in [
        ("straggle:w1x3@2+", set()),
        (
            "crash:w2@1-3,straggle:w1x3@2+,drop:p=0.3,corrupt:p=0.2",
            {"crash", "rejoin", "drop", "corrupt"},
        ),
    ]:
        tracer = Tracer(name="ssp")
        res = _ssp(fault_spec).run(TrainConfig(
            n_steps=7, eval_every=2, tracer=tracer,
            eval_fn=lambda m: float(m.get_flat_params().sum()),
        ))
        rebuilt = views.runlog_from_trace(tracer.events, name=res.log.name)
        assert len(res.log.evals) == 4  # every 2·N pushes, and the last
        assert RunLogLines().text(rebuilt) == RunLogLines().text(res.log)
        faults = [e for e in tracer.events if e.etype == "fault"]
        assert len(faults) == len(res.log.faults)
        assert {e.data["fault_kind"] for e in faults} == kinds
        assert all("iteration" in e.data for e in faults)


def test_lock_step_runlog_is_a_view_of_its_trace_per_step():
    """Lock-step under worker faults on the identity tool's MLP fixture:
    iteration and eval records come back equal in order; fault records come
    back equal per step, in the trace's (step, worker, seq) order — the
    trainer appends them as they happen, which within a step is not worker
    order (a rejoin is recorded before an earlier worker's corruption)."""
    train, _ = build_dataset(
        "blobs", n_train=256, n_test=64, n_features=16, n_classes=4, rng=0
    )
    workers, _ = make_mlp_cluster(train)
    cluster = ClusterConfig(
        n_workers=4, seed=0, comm_bytes=1e6, flops_per_sample=1e6, min_quorum=1, ps_shards=1,
        fault_spec="crash:w1@5-12,straggle:w0x3@3+,drop:p=0.2,corrupt:w2@8,corrupt:p=0.1",
    )
    tracer = Tracer(name="bsp")
    res = BSPTrainer(workers, cluster).run(TrainConfig(
        n_steps=30, eval_every=10, tracer=tracer,
        eval_fn=lambda m: float(m.get_flat_params().sum()),
    ))

    def by_kind(log):
        records = runlog_to_jsonable(log)[1:]
        return {k: [r for r in records if r["kind"] == k] for k in ("iter", "eval", "fault")}

    rebuilt = by_kind(views.runlog_from_trace(tracer.events, name=res.log.name))
    kept = by_kind(res.log)
    assert len(kept["iter"]) == 30 and len(kept["eval"]) == 3
    assert rebuilt["iter"] == kept["iter"] and rebuilt["eval"] == kept["eval"]
    in_step_order = sorted(kept["fault"], key=lambda r: (r["step"], r["worker"]))
    assert rebuilt["fault"] == in_step_order
    # Not vacuous: on this plan the RunLog's own order is not worker order.
    assert kept["fault"] != in_step_order
    assert {"crash", "rejoin", "drop", "corrupt"} <= {r["fault_kind"] for r in kept["fault"]}


def test_ssp_quorum_loss_and_its_recovery_share_the_push_in_flight(tmp_path):
    """Worker 1 of 4 crashes for good at its 6th iteration under a quorum of
    4. The supervisor's ``recovery`` record goes through the same fault
    writer as the ``quorum_lost`` that raised: both at the landed push in
    flight with ``iteration=6``, so the closed trace is one sorted segment;
    the RunLog record keeps the worker's iteration as its step."""
    tracer = Tracer(path=tmp_path / "ssp.jsonl", name="ssp")
    sup = RecoverySupervisor(max_recoveries=0)
    with pytest.raises(QuorumLostError):
        sup.run(
            _ssp("crash:w1@6+", n_workers=4, min_quorum=4),
            TrainConfig(n_steps=10, eval_fn=None, tracer=tracer),
        )
    tracer.close()
    assert len(tracer._segments) == 1
    faults = {
        e.data["fault_kind"]: e for e in tracer.events if e.etype == "fault"
    }
    lost, recovery = faults["quorum_lost"], faults["recovery"]
    assert recovery.step == lost.step > 6
    assert recovery.data["iteration"] == lost.data["iteration"] == 6
    assert [r.step for r in sup.recoveries] == [6]


def test_ssp_divergence_recovery_is_at_the_loop_step(tmp_path):
    """A divergence is the loop's incident, not a worker's: the watchdog
    trips at a landed push, and the ``recovery`` record sits at that push
    with no ``iteration``, in the same one sorted segment."""
    tracer = Tracer(path=tmp_path / "ssp.jsonl", name="ssp")
    sup = RecoverySupervisor(max_recoveries=0, divergence_threshold=1e-12)
    with pytest.raises(DivergenceExceededError) as exc:
        sup.run(_ssp(), TrainConfig(n_steps=10, eval_fn=None, tracer=tracer))
    tracer.close()
    assert len(tracer._segments) == 1
    (recovery,) = [
        e for e in tracer.events
        if e.etype == "fault" and e.data["fault_kind"] == "recovery"
    ]
    assert recovery.step == exc.value.step == max(e.step for e in tracer.events)
    assert recovery.data["reason"] == "divergence"
    assert "iteration" not in recovery.data
    assert [r.step for r in sup.recoveries] == [exc.value.step]


def test_elastic_join_and_drain_trace_matches_the_reference(tmp_path):
    from tests.test_elastic_training import N_STEPS, PLAN, _build

    trainer = _build(elastic_spec=PLAN)
    tracer = RecordingTracer(path=tmp_path / "elastic.jsonl", name="elastic")
    try:
        trainer.run(TrainConfig(n_steps=N_STEPS, eval_fn=None, tracer=tracer))
    finally:
        trainer.executor.shutdown()
    tracer.close()
    assert {e.data["action"] for e in tracer.events if e.etype == "membership"} == {
        "join", "drain"
    }
    assert_matches_reference(tracer, tmp_path)


def test_late_events_and_a_changed_header(tmp_path):
    """Emitted by hand: late events at several depths, a step never begun,
    and header metadata set after the first write."""
    plan = [
        ("step_begin", 0, -1), ("compute_phase", 0, 1), ("step_begin", 1, -1),
        ("fault", 0, 2), ("step_begin", 2, -1), ("fault", 1, 0), ("fault", 0, -1),
        ("step_begin", 3, -1), ("eval", 5, -1), ("step_begin", 4, -1),
        ("fault", 2, 3),
    ]
    memory = Tracer()
    tracer = RecordingTracer(path=tmp_path / "late.jsonl", name="late")
    for i, (etype, step, worker) in enumerate(plan):
        for tr in (memory, tracer):
            tr.emit(etype, step=step, worker=worker, i=i)
        assert [e.key for e in tracer.events] == [e.key for e in memory.events]
    tracer.meta["note"] = "set late"
    tracer.close()
    assert len(tracer._segments) == 3
    assert_matches_reference(tracer, tmp_path)
    assert read_trace(tracer.path)[0]["meta"] == {"note": "set late"}


# -- a stopped run and a long one -----------------------------------------------
def _selsync_run(tracer, n_steps, step_monitor=None):
    rng = np.random.default_rng(0)
    ds = ArrayDataset(rng.normal(size=(256, 16)), rng.integers(0, 4, 256))
    workers, cluster = make_mlp_cluster(ds)
    SelSyncTrainer(workers, cluster, delta=0.1).run(
        TrainConfig(
            n_steps=n_steps, eval_fn=None, tracer=tracer, step_monitor=step_monitor
        )
    )


def test_stopped_run_leaves_a_canonical_prefix_of_whole_steps(tmp_path):
    stopped = Tracer(path=tmp_path / "stopped.jsonl", name="t")
    _selsync_run(stopped, 40)  # and never closed
    assert not stopped.path.exists()
    part = part_path(stopped.path)
    _, events = read_trace(part)
    assert {e.step for e in events} == set(range(39))  # step_begin(39) wrote 0..38

    closed = Tracer(path=tmp_path / "closed.jsonl", name="t")
    _selsync_run(closed, 40)
    closed.close()
    lines = closed.path.read_text().splitlines(keepends=True)
    prefix = part.read_text().splitlines(keepends=True)
    assert prefix == lines[: len(prefix)]
    assert json.loads(lines[len(prefix)])["step"] == 39
    stopped._file.close()


def test_tracer_holds_one_step_between_steps(tmp_path):
    tracer = Tracer(path=tmp_path / "long.jsonl", name="long")
    held = []

    def monitor(trainer, i):
        held.append({e.step for e in tracer._pending})

    _selsync_run(tracer, 400, step_monitor=monitor)
    assert held == [{i} for i in range(400)]
    tracer.close()
    assert {e.step for e in read_trace(tracer.path)[1]} == set(range(400))
