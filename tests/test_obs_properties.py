"""Property-based tests over trace invariants (hypothesis).

Two layers: synthetic event streams exercise the serialization/ordering
machinery over arbitrary inputs, and tiny real SelSync runs pin the
structural invariants every dashboard and figure silently assumes —
per-worker step monotonicity, the sync-decision/aggregation pairing, and
the bytes ledger reconciliation.
"""

import json

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import EVENT_TYPES, Tracer, views
from repro.obs.sink import event_line
from repro.obs.views import events_of_type
from tests.conftest import roundtrip

SLOW = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

finite_floats = st.floats(allow_nan=False, width=64)
all_floats = st.floats(width=64)  # NaN/inf included: the sink must cope

# Keys that would collide with Tracer.emit's own parameters (or the
# reserved wall-clock field) are excluded.
_RESERVED_KEYS = {"self", "etype", "step", "worker", "seq", "t_wall"}

payloads = st.dictionaries(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8
    ).filter(lambda s: s not in _RESERVED_KEYS),
    st.one_of(
        all_floats,
        st.integers(min_value=-(2**40), max_value=2**40),
        st.booleans(),
        st.text(max_size=12),
        st.lists(finite_floats, max_size=4),
    ),
    max_size=5,
)

emissions = st.lists(
    st.tuples(
        st.sampled_from(EVENT_TYPES),
        st.integers(min_value=-1, max_value=50),   # step
        st.integers(min_value=-1, max_value=7),    # worker
        payloads,
    ),
    max_size=60,
)


@settings(max_examples=50, deadline=None)
@given(emissions)
# Payload keys the metrics view reads, holding what it cannot count: emit
# once raised on each of these.
@example([("retry", 0, 0, {"wait_s": -1})])
@example([("retry", 0, 0, {"wait_s": ""})])
@example([("retry", 0, 0, {"wait_s": []})])
def test_roundtrip_is_identity_on_arbitrary_events(items):
    tr = Tracer()
    for etype, step, worker, data in items:
        tr.emit(etype, step=step, worker=worker, **data)
    events = tr.events
    back = roundtrip(events)
    assert len(back) == len(events)
    for a, b in zip(events, back):
        assert (a.etype, a.step, a.worker, a.seq) == (b.etype, b.step, b.worker, b.seq)
        assert _norm(a.data) == _norm(b.data)


def _norm(d):
    """NaN-tolerant comparison form (NaN != NaN breaks plain ==)."""
    return json.dumps(d, sort_keys=True, default=str, allow_nan=True).replace(
        "NaN", '"nan"'
    )


@settings(max_examples=50, deadline=None)
@given(emissions)
def test_canonical_order_and_seq_invariants(items):
    tr = Tracer()
    for etype, step, worker, data in items:
        tr.emit(etype, step=step, worker=worker, **data)
    events = tr.events
    keys = [e.key for e in events]
    # Canonical order is total and sorted; keys are unique.
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    # Within one (step, worker) stream, seq is 0..n-1 contiguous.
    streams = {}
    for e in events:
        streams.setdefault((e.step, e.worker), []).append(e.seq)
    for seqs in streams.values():
        assert seqs == list(range(len(seqs)))


@settings(max_examples=50, deadline=None)
@given(emissions)
def test_event_lines_parse_as_strict_json(items):
    tr = Tracer()
    for etype, step, worker, data in items:
        tr.emit(etype, step=step, worker=worker, **data)
    for ev in tr.events:
        json.loads(event_line(ev))  # allow_nan=False round-trip must not raise


#: Payload fields the metrics view reads (:func:`repro.obs.views.metrics`).
_METRIC_FIELDS = (
    "bytes", "seconds", "sim_time", "comm_time", "synced", "delta", "vote",
    "fault_kind", "metric", "n_dropped", "attempts", "wait_s", "delivered",
    "n_degraded", "action", "size_after", "applied",
)

#: Metrics a shuffle may move: sums of payload floats (in the last bit) and
#: a gauge's last value (by definition).
_ORDER_SENSITIVE = {
    "comm.bytes", "comm.retries", "comm.retry_wait_s", "robust.dropped",
    "comm.degraded_shard_rounds", "eval.last_metric", "cluster.world_size",
}

metric_emissions = st.lists(
    st.tuples(
        st.sampled_from(EVENT_TYPES),
        st.integers(min_value=-1, max_value=50),
        st.integers(min_value=-1, max_value=7),
        st.dictionaries(
            st.sampled_from(_METRIC_FIELDS),
            st.one_of(all_floats, st.integers(-3, 10), st.booleans(),
                      st.sampled_from(["", "crash", "join"])),
            max_size=4,
        ),
    ),
    max_size=60,
)


@settings(max_examples=50, deadline=None)
@given(metric_emissions, st.randoms(use_true_random=False))
def test_metrics_view_is_shuffle_invariant(items, rnd):
    """Shuffling the events moves no sampled summary and no tally."""
    tr = Tracer()
    for etype, step, worker, data in items:
        tr.emit(etype, step=step, worker=worker, **data)
    events = tr.events
    shuffled = list(events)
    rnd.shuffle(shuffled)
    a, b = views.metrics(events), views.metrics(shuffled)
    assert a.keys() == b.keys()
    for name in a.keys() - _ORDER_SENSITIVE:
        assert _norm(a[name]) == _norm(b[name]), name


# -- invariants over real runs ----------------------------------------------


def traced_selsync_run(n_workers, seed, delta, n_steps, sync_vote="any"):
    from repro.cluster.worker import build_worker_group
    from repro.core import SelSyncTrainer, TrainConfig
    from repro.core.config import ClusterConfig
    from repro.data import ArrayDataset, BatchLoader, selsync_partition
    from repro.nn.models import build_model
    from repro.optim import SGD

    rng = np.random.default_rng(seed)
    ds = ArrayDataset(rng.normal(size=(96, 8)), rng.integers(0, 3, 96))
    part = selsync_partition(len(ds), n_workers, rng=seed)
    loaders = BatchLoader.for_workers(ds, part, batch_size=8, seed=seed + 1)
    workers = build_worker_group(
        n_workers,
        lambda: build_model("mlp", in_features=8, n_classes=3, hidden=(8,), rng=5),
        lambda m: SGD(m, lr=0.05),
        loaders,
    )
    cluster = ClusterConfig(
        n_workers=n_workers, seed=seed, comm_bytes=1e6, flops_per_sample=1e6
    )
    trainer = SelSyncTrainer(workers, cluster, delta=delta, sync_vote=sync_vote)
    tracer = Tracer(name="prop")
    trainer.run(TrainConfig(n_steps=n_steps, eval_every=n_steps, tracer=tracer))
    tracer.close()
    return tracer, trainer


@SLOW
@given(
    n_workers=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=1000),
    delta=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
def test_selsync_trace_invariants(n_workers, seed, delta):
    tracer, trainer = traced_selsync_run(n_workers, seed, delta, n_steps=8)
    events = tracer.events

    # 1. Per-worker step ids are monotonically non-decreasing in canonical
    #    order, and step_begin/step_end pair up strictly increasing.
    per_worker = {}
    for e in events:
        per_worker.setdefault(e.worker, []).append(e.step)
    for steps in per_worker.values():
        assert steps == sorted(steps)
    begins = [e.step for e in events_of_type(events, "step_begin")]
    ends = [e.step for e in events_of_type(events, "step_end")]
    assert begins == list(range(8)) and ends == list(range(8))

    # 2. Every sync_decision has exactly one matching aggregation event in
    #    the same step iff it decided to sync.
    decisions = {e.step: e for e in events_of_type(events, "sync_decision")}
    aggs = {}
    for e in events_of_type(events, "aggregation"):
        aggs[e.step] = aggs.get(e.step, 0) + 1
    assert set(decisions) == set(begins)
    for step, dec in decisions.items():
        expected = 1 if dec.data["synced"] else 0
        assert aggs.get(step, 0) == expected, (step, dec.data)

    # 3. The bytes ledger reconciles three ways: per-collective event bytes,
    #    the derived comm.bytes counter, and the SimGroup counter.
    total = sum(
        float(e.data["bytes"]) for e in events_of_type(events, "collective")
    )
    assert total == tracer.metrics.get("comm.bytes")
    assert total == float(trainer.group.bytes_synced)

    # 4. step_end.synced mirrors the sync decision of its step.
    for e in events_of_type(events, "step_end"):
        assert bool(e.data["synced"]) == bool(decisions[e.step].data["synced"])

    # 5. delta_eval votes reconcile with the decision's flag count.
    votes = {}
    for e in events_of_type(events, "delta_eval"):
        votes[e.step] = votes.get(e.step, 0) + int(bool(e.data["vote"]))
    for step, dec in decisions.items():
        assert votes.get(step, 0) == int(dec.data["n_flags"])


@SLOW
@given(seed=st.integers(min_value=0, max_value=1000))
def test_trace_parse_roundtrips_through_schema(seed, tmp_path_factory):
    from repro.obs.sink import read_trace, write_trace

    tracer, _ = traced_selsync_run(2, seed, 0.3, n_steps=5)
    path = tmp_path_factory.mktemp("trace") / f"t{seed}.jsonl"
    write_trace(path, tracer.header(), tracer.events)
    header, events = read_trace(path)
    assert header["schema"] == 2
    originals = tracer.events
    assert len(events) == len(originals)
    for a, b in zip(originals, events):
        assert event_line(a) == event_line(b)


def test_no_tracer_no_events_leak():
    """A run without a tracer leaves the global slot untouched."""
    assert obs.active() is None
    traced_selsync_run(2, 0, 0.3, n_steps=3)
    assert obs.active() is None
