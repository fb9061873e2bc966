"""Unit tests for the repro.obs tracing/metrics subsystem."""

import json
import math

import numpy as np
import pytest

from repro import obs
from repro.obs import TraceEvent, Tracer
from repro.obs.sink import event_line, read_trace, write_trace
from repro.obs import views
from tests.conftest import event_lines, roundtrip


# -- tracer ------------------------------------------------------------------


def test_unknown_event_type_raises():
    with pytest.raises(ValueError):
        TraceEvent(etype="nope", step=0)
    with pytest.raises(ValueError):
        Tracer().emit("nope")


def test_seq_is_per_step_worker():
    tr = Tracer()
    tr.emit("step_begin", step=0)
    a = tr.emit("delta_eval", step=0, worker=1, delta=0.1)
    b = tr.emit("delta_eval", step=0, worker=1, delta=0.2)
    c = tr.emit("delta_eval", step=0, worker=2, delta=0.3)
    d = tr.emit("delta_eval", step=1, worker=1, delta=0.4)
    assert (a.seq, b.seq) == (0, 1)
    assert c.seq == 0  # other worker: independent stream
    assert d.seq == 0  # other step: independent stream


def test_step_none_scopes_to_current_step():
    tr = Tracer()
    tr.emit("step_begin", step=5)
    ev = tr.emit("collective", op="sync", bytes=4.0, seconds=0.1)
    assert ev.step == 5


def test_events_sorted_regardless_of_emission_order():
    tr = Tracer()
    tr.emit("step_begin", step=1)
    tr.emit("step_begin", step=0)  # out of order on purpose
    tr.emit("exec_task", step=0, worker=3)
    tr.emit("exec_task", step=0, worker=1)
    keys = [e.key for e in tr.events]
    assert keys == sorted(keys)


def test_deterministic_mode_has_no_wallclock():
    tr = Tracer()
    ev = tr.emit("step_begin", step=0)
    assert "t_wall" not in ev.data
    tr2 = Tracer(deterministic=False)
    ev2 = tr2.emit("step_begin", step=0)
    assert "t_wall" in ev2.data


def test_derived_metrics_from_events():
    tr = Tracer()
    tr.emit("step_begin", step=0)
    tr.emit("collective", op="sync", payload=4.0, bytes=16.0, ranks=4, seconds=0.5)
    tr.emit("collective", op="allgather_flags", payload=4.0, bytes=0.0, ranks=4,
            seconds=0.001)
    tr.emit("step_end", step=0, synced=True, sim_time=1.0, comm_time=0.5, loss=0.1)
    tr.emit("step_begin", step=1)
    tr.emit("step_end", step=1, synced=False, sim_time=0.4, comm_time=0.0, loss=0.2)
    m = tr.metrics
    assert m.get("comm.bytes") == 16.0
    assert m.get("steps.synced") == 1.0
    assert m.get("steps.local") == 1.0
    assert m.get("events.total") == 6.0
    assert m["step.sim_time"]["count"] == 2


@pytest.mark.parametrize("bad", [-1, "", [], float("nan"), float("inf"), 10**400])
@pytest.mark.parametrize(
    "etype, key",
    [
        ("collective", "bytes"),
        ("collective", "seconds"),
        ("step_end", "comm_time"),
        ("delta_eval", "delta"),
        ("eval", "metric"),
        ("aggregator_decision", "n_dropped"),
        ("retry", "attempts"),
        ("retry", "wait_s"),
        ("shard_round", "n_degraded"),
        ("membership", "size_after"),
    ],
)
def test_deriving_metrics_never_makes_emit_raise(etype, key, bad):
    """``emit`` records whatever the payload holds; the view is total over
    it: a field its metric cannot take is left out, well-formed ones count,
    and every value it reports is finite and never negative, unless it is
    the payload's own -1 taken as a gauge or a sample."""
    tr = Tracer()
    tr.emit(etype, step=0, worker=0, **{key: bad})
    tr.emit("retry", step=0, worker=0, attempts=3, wait_s=0.25)
    assert len(tr.events) == 2
    m = tr.metrics
    assert m == views.metrics(tr.events)
    expect = {"comm.retries": 2.0, "comm.retry_wait_s": 0.25}
    for name, well_formed in expect.items():
        assert m.get(name) == well_formed
    for name, value in m.items():
        for v in value.values() if isinstance(value, dict) else [value]:
            assert math.isfinite(v) and (v >= 0.0 or v == bad), name


def test_emit_after_close_raises():
    tr = Tracer()
    tr.close()
    with pytest.raises(RuntimeError):
        tr.emit("step_begin", step=0)


# -- install / use -----------------------------------------------------------


def test_active_none_by_default_and_use_restores():
    assert obs.active() is None
    tr = Tracer()
    with obs.use(tr):
        assert obs.active() is tr
    assert obs.active() is None


def test_use_none_is_noop():
    with obs.use(None):
        assert obs.active() is None


def test_nested_different_tracer_raises():
    a, b = Tracer(), Tracer()
    with obs.use(a):
        with pytest.raises(RuntimeError):
            obs.install(b)
    assert obs.active() is None


# -- sink --------------------------------------------------------------------


def _sample_events():
    tr = Tracer()
    tr.emit("step_begin", step=0)
    tr.emit("delta_eval", step=0, worker=0, delta=float("inf"), vote=True,
            threshold=0.3)
    tr.emit("fault", step=0, worker=2, fault_kind="corrupt")
    tr.emit("step_end", step=0, synced=True, sim_time=1.5, comm_time=0.2,
            loss=float("nan"), extra={"n_flags": 2.0})
    return tr.events


def test_event_lines_are_strict_json():
    for ev in _sample_events():
        rec = json.loads(event_line(ev))  # allow_nan=False: must not raise
        assert set(rec) == {"etype", "step", "worker", "seq", "data"}


def test_roundtrip_identity_including_nonfinite():
    events = _sample_events()
    back = roundtrip(events)
    assert len(back) == len(events)
    for a, b in zip(events, back):
        assert (a.etype, a.step, a.worker, a.seq) == (b.etype, b.step, b.worker, b.seq)
    # Non-finite floats survive the tag encoding exactly.
    by_type = {e.etype: e for e in back}
    assert by_type["delta_eval"].data["delta"] == float("inf")
    assert np.isnan(by_type["step_end"].data["loss"])


def test_write_read_trace(tmp_path):
    tr = Tracer(name="t")
    tr.emit("step_begin", step=0)
    tr.emit("step_end", step=0, synced=False, sim_time=0.1, comm_time=0.0, loss=1.0)
    p = tmp_path / "t.jsonl"
    write_trace(p, tr.header(), tr.events)
    header, events = read_trace(p)
    assert header["name"] == "t" and header["deterministic"] is True
    assert [e.etype for e in events] == ["step_begin", "step_end"]
    assert len(event_lines(p)) == 2


def test_read_trace_rejects_wrong_schema(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"kind": "header", "schema": 999}\n')
    with pytest.raises(ValueError, match="schema"):
        read_trace(p)
    p2 = tmp_path / "noheader.jsonl"
    p2.write_text('{"etype": "step_begin", "step": 0, "worker": -1, "seq": 0}\n')
    with pytest.raises(ValueError, match="header"):
        read_trace(p2)


def test_read_trace_rejects_out_of_order(tmp_path):
    tr = Tracer()
    tr.emit("step_begin", step=1)
    tr.emit("step_begin", step=0)
    p = tmp_path / "ooo.jsonl"
    # Write the canonical order reversed, deliberately.
    write_trace(p, tr.header(), tr.events[::-1])
    with pytest.raises(ValueError, match="order"):
        read_trace(p)


def test_tracer_close_writes_file(tmp_path):
    p = tmp_path / "c.jsonl"
    tr = Tracer(path=p, name="c")
    tr.emit("step_begin", step=0)
    tr.close()
    tr.close()  # idempotent
    header, events = read_trace(p)
    assert header["name"] == "c" and len(events) == 1


# -- views over a real run ---------------------------------------------------


@pytest.fixture
def traced_run(mlp_cluster, quick_cfg):
    from dataclasses import replace

    from repro.core import SelSyncTrainer

    workers, cluster = mlp_cluster
    tr = Tracer(name="selsync")
    trainer = SelSyncTrainer(workers, cluster, delta=0.3)
    cfg = replace(quick_cfg, n_steps=20, eval_every=10, tracer=tr)
    result = trainer.run(cfg)
    tr.close()
    return tr, result


def sync_ratio(log) -> float:
    """Fraction of a RunLog's steps that synchronized (0.0 on an empty log):
    the complement of ``RunLog.lssr``."""
    return log.n_synced / log.n_steps if log.n_steps else 0.0


def test_runlog_is_derived_view_of_trace(traced_run):
    tr, result = traced_run
    rebuilt = views.runlog_from_trace(tr.events, name=result.log.name)
    assert rebuilt.n_steps == result.log.n_steps
    for a, b in zip(rebuilt.iterations, result.log.iterations):
        assert a.step == b.step and a.synced == b.synced
        assert a.sim_time == b.sim_time and a.comm_time == b.comm_time
        assert a.loss == b.loss and a.extra == b.extra
    for a, b in zip(rebuilt.evals, result.log.evals):
        assert (a.step, a.metric, a.sim_time) == (b.step, b.metric, b.sim_time)
    assert sync_ratio(rebuilt) == sync_ratio(result.log)
    assert rebuilt.summary() == result.log.summary()


def test_views_aggregates(traced_run):
    tr, result = traced_run
    events = tr.events
    m = views.metrics(events)
    n_steps = m["events.step_end"]
    assert m.get("steps.synced", 0.0) / n_steps == pytest.approx(sync_ratio(result.log))
    totals = views.collective_totals(events)
    assert "allgather_flags" in totals
    assert totals["allgather_flags"]["count"] == result.log.n_steps
    mat = views.straggler_matrix(events, buckets=5)
    assert mat.shape == (4, 5)  # 4 workers, 5 requested buckets
    # Relative times average to ~1 across workers in every bucket.
    np.testing.assert_allclose(np.nanmean(mat, axis=0), 1.0, atol=1e-12)


def test_render_run_dashboard_smoke(traced_run):
    from repro.experiments.reporting import render_run_dashboard

    tr, _ = traced_run
    text = render_run_dashboard(tr)
    assert "run dashboard" in text
    assert "sync ratio" in text
    assert "straggler heatmap" in text


def test_empty_trace_dashboard():
    from repro.experiments.reporting import render_run_dashboard

    tr = Tracer(name="empty")
    assert "no step events" in render_run_dashboard(tr)


def test_runlog_sync_ratio_empty():
    from repro.utils.runlog import RunLog

    assert sync_ratio(RunLog()) == 0.0
