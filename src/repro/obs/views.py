"""Derived views over a trace: the clock, run logs, run metrics and dashboard
aggregates.

The trace is the ground truth of a run; everything the reporting layer
needs — a step's simulated seconds (:func:`clock`), the classic
:class:`~repro.utils.runlog.RunLog` summary, the run metrics
(:func:`metrics`), the straggler heatmap — is recomputed from the event
stream here, so any consumer can work from a persisted ``.jsonl`` trace
alone.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.trace import TraceEvent
from repro.utils.runlog import EvalRecord, FaultRecord, IterationRecord, RunLog


class ClockError(ValueError):
    """Events that do not fold into a lock-step clock: an SSP step (its
    clock is its event times) or a schema-1 vote without its overhead."""


#: The event types :func:`clock` reads: an untraced step builds and
#: collects only these (:func:`repro.obs.emit`).
CLOCK_TYPES = frozenset(("compute_phase", "collective", "shard_round", "sync_decision",
                         "aggregation", "step_end"))
#: The clock term of each unsharded ``collective`` op.
_TERMS = {"allgather_flags": "flags", "pull": "pull", "p2p": "p2p",
          "allreduce": "round", "sync": "round"}


def clock(events: Iterable[TraceEvent]) -> Tuple[float, float]:
    """``(sim_time, comm_time)`` of one lock-step step: the fold over its
    events in the trainer's float order (docs/simulation.md, "One step's
    clock"), equal to its ``step_end`` with ``==``. A sharded round counts
    once, as its ``shard_round``; ``step_end.extra.provision_s`` is the run
    loop's term, so the events a step collected leave it out."""
    t = dict.fromkeys(("max", "flags", "overhead", "round", "pull", "upload",
                       "p2p", "codec", "provision"), 0.0)
    for ev in events:
        d = ev.data
        if ev.etype == "compute_phase":
            t["max"] = d["max"]
        elif ev.etype == "collective" and d["op"] == "async_pushpull":
            raise ClockError("an SSP step's clock is its event times, not a fold")
        elif ev.etype == "shard_round" or (ev.etype == "collective" and "shard" not in d):
            t["round" if ev.etype == "shard_round" else _TERMS[d["op"]]] += d["seconds"]
            t["upload"] += d.get("upload_s", 0.0)
        elif ev.etype == "sync_decision":
            if "overhead_s" not in d:
                raise ClockError("a schema-1 sync_decision carries no overhead_s")
            t["overhead"] += d["overhead_s"]
        elif ev.etype == "aggregation":
            t["codec"] += d.get("codec_s", 0.0)
        elif ev.etype == "step_end":
            t["provision"] += d["extra"].get("provision_s", 0.0)
    sync = (t["round"] + t["pull"]) + t["upload"]
    sim = ((t["max"] + t["flags"]) + t["overhead"]) + sync
    return (((sim + t["p2p"]) + t["codec"]) + t["provision"],
            (t["flags"] + sync) + t["p2p"])


def clocks(path) -> Dict[int, Tuple[float, float]]:
    """:func:`clock` of each step of the trace file at ``path``; a trace of
    another schema raises :class:`~repro.obs.sink.TraceSchemaError`."""
    from repro.obs.sink import read_trace

    by_step: Dict[int, List[TraceEvent]] = defaultdict(list)
    for ev in read_trace(path)[1]:
        by_step[ev.step].append(ev)
    return {step: clock(evs) for step, evs in sorted(by_step.items())}


def runlog_from_trace(
    events: Sequence[TraceEvent], name: str = "run", meta: Optional[Dict] = None
) -> RunLog:
    """Rebuild a :class:`RunLog` from ``step_end``/``eval``/``fault`` events:
    a *view* of the trace. Against the RunLog the trainer built in memory
    during the same run, iteration and eval records are equal in order, and
    fault records equal per step in the trace's (step, worker, seq) order —
    the trainer appends them as they happen, which within a step is not
    worker order (asserted by the obs test suite).
    """
    log = RunLog(name=name, meta=meta)
    for ev in events:
        d = ev.data
        if ev.etype == "step_end":
            log.record_iteration(
                IterationRecord(
                    step=ev.step,
                    synced=bool(d["synced"]),
                    sim_time=float(d["sim_time"]),
                    comm_time=float(d.get("comm_time", 0.0)),
                    loss=float(d.get("loss", float("nan"))),
                    grad_change=(
                        None if d.get("grad_change") is None
                        else float(d["grad_change"])
                    ),
                    extra={
                        k: float(v) for k, v in d.get("extra", {}).items()
                    },
                )
            )
        elif ev.etype == "eval":
            log.record_eval(
                EvalRecord(
                    step=ev.step,
                    epoch=float(d.get("epoch", 0.0)),
                    sim_time=float(d.get("sim_time", 0.0)),
                    metric=float(d["metric"]),
                    metric_name=d.get("metric_name", "metric"),
                )
            )
        elif ev.etype == "fault":
            # SSP's faults are keyed on a worker's own ``iteration``.
            log.record_fault(
                FaultRecord(
                    step=d.get("iteration", ev.step),
                    worker=ev.worker,
                    kind=d["fault_kind"],
                    detail={
                        k: v for k, v in d.items()
                        if k not in ("fault_kind", "iteration")
                    },
                )
            )
    return log


def events_of_type(events: Iterable[TraceEvent], etype: str) -> List[TraceEvent]:
    return [e for e in events if e.etype == etype]


#: Events each of which adds one to a count of their own.
_TALLIES = {
    "exec_task": "executor.tasks",
    "checkpoint_save": "checkpoint.saves",
    "quarantine": "health.quarantines",
    "reinstate": "health.reinstatements",
    "reroute": "comm.reroutes",
    "link_fault": "net.link_faults",
    "partition_detected": "net.partitions",
    "repartition": "elastic.repartitions",
}


def _num(d: Dict, key: str, default: float) -> float:
    """``d[key]`` as a float: ``default`` if absent, NaN if not a number."""
    try:
        return default if d.get(key) is None else float(d[key])
    except (TypeError, ValueError, OverflowError):
        return float("nan")


def _summary(samples: List[float]) -> Dict[str, float]:
    arr = np.sort(np.asarray(samples, dtype=np.float64))
    out = {"count": int(arr.size), "mean": float(arr.mean()),
           "min": float(arr[0]), "max": float(arr[-1])}
    for p in (50, 90, 99):
        out[f"p{p}"] = float(np.percentile(arr, p))
    return out


def metrics(events: Iterable[TraceEvent]) -> Dict:
    """Run totals of a trace: one flat dict, ordered by name.

    Each entry is a count or sum (``comm.bytes``, ``steps.synced``), a
    gauge's last value (``eval.last_metric``) or a sampled quantity's
    ``count`` / ``mean`` / ``min`` / ``max`` / ``p50`` / ``p90`` / ``p99``
    (``step.sim_time``). Sums run in the order given; :attr:`Tracer.events`
    and :func:`~repro.obs.sink.read_trace` give the canonical ``(step,
    worker, seq)`` one, so every metric equals the fold over the file.
    ``comm.bytes`` sums exactly the ``bytes`` of ``collective`` events.
    Total over payloads: a field its metric cannot take (text, a list, a
    negative count, NaN, inf) is left out.
    """
    sums: Dict[str, float] = {}
    last: Dict[str, float] = {}
    samples: Dict[str, List[float]] = {}

    def count(name: str, amount: float = 1.0) -> None:
        if 0.0 <= amount < math.inf:
            sums[name] = sums.get(name, 0.0) + amount

    def gauge(name: str, value: float) -> None:
        if math.isfinite(value):
            last[name] = value

    def sample(name: str, value: float) -> None:
        # Non-finite values (first EWMA update, corrupted gradients) stay
        # out; ``+ 0.0`` stores -0.0 as 0.0, so min/max carry no sign.
        if math.isfinite(value):
            samples.setdefault(name, []).append(value + 0.0)

    for ev in events:
        d = ev.data
        count("events.total")
        count(f"events.{ev.etype}")
        if ev.etype in _TALLIES:
            count(_TALLIES[ev.etype])
        elif ev.etype == "collective":
            count("comm.bytes", _num(d, "bytes", 0.0))
            sample("comm.seconds", _num(d, "seconds", 0.0))
        elif ev.etype == "step_end":
            sample("step.sim_time", _num(d, "sim_time", 0.0))
            sample("step.comm_time", _num(d, "comm_time", 0.0))
            count("steps.synced" if d.get("synced") else "steps.local")
        elif ev.etype == "delta_eval":
            sample("delta.value", _num(d, "delta", math.nan))
            if d.get("vote"):
                count("delta.votes")
        elif ev.etype == "fault":
            count(f"faults.{d.get('fault_kind', 'unknown')}")
        elif ev.etype == "eval":
            gauge("eval.last_metric", _num(d, "metric", math.nan))
        elif ev.etype == "aggregator_decision":
            count("robust.rounds")
            count("robust.dropped", _num(d, "n_dropped", 0.0))
        elif ev.etype == "retry":
            count("comm.retries", max(0.0, _num(d, "attempts", 1.0) - 1.0))
            count("comm.retry_wait_s", _num(d, "wait_s", 0.0))
            if not d.get("delivered", True):
                count("comm.exhausted")
        elif ev.etype == "shard_round":
            # Round summary only: its ``bytes`` recaps the per-shard
            # ``collective`` events, so counting it would double the ledger.
            count("comm.shard_rounds")
            count("comm.degraded_shard_rounds", _num(d, "n_degraded", 0.0))
            sample("shard.round_seconds", _num(d, "seconds", 0.0))
        elif ev.etype == "membership":
            count(f"elastic.{d.get('action', 'unknown')}s")
            gauge("cluster.world_size", _num(d, "size_after", math.nan))
        elif ev.etype == "scale_decision":
            count("elastic.scale_decisions")
            if d.get("applied"):
                count("elastic.scale_applied")
    out = {**sums, **last, **{k: _summary(v) for k, v in samples.items()}}
    return dict(sorted(out.items()))


def straggler_matrix(
    events: Sequence[TraceEvent], buckets: int = 24
) -> Optional[np.ndarray]:
    """(n_workers, buckets) mean relative compute time per time slice.

    Built from ``compute_phase`` events (per-worker simulated compute
    times each round). Each cell is the worker's mean compute time in that
    step bucket divided by the bucket's cluster-wide mean — 1.0 is
    "average speed", >1 is a straggler. NaN where a worker had no samples
    — a rank that did not exist in that bucket (elastic drain, or not yet
    joined); :func:`absence_matrix` distinguishes those from quarantine.
    """
    phases = events_of_type(events, "compute_phase")
    if not phases:
        return None
    n_workers = max(len(e.data.get("times", [])) for e in phases)
    if n_workers == 0:
        return None
    steps = [e.step for e in phases]
    lo, hi = min(steps), max(steps)
    buckets = max(1, min(buckets, hi - lo + 1))
    span = (hi - lo + 1) / buckets
    sums = np.zeros((n_workers, buckets))
    counts = np.zeros((n_workers, buckets))
    for e in phases:
        times = np.asarray(e.data.get("times", []), dtype=np.float64)
        if times.size == 0:
            continue
        # Rows are ranks; under elastic membership a round can cover fewer
        # (or more) ranks than the run's maximum, so accumulate exactly
        # the ranks that computed this round — absent ranks collect no
        # samples and surface as NaN instead of a stale zero row.
        b = min(buckets - 1, int((e.step - lo) / span))
        sums[: times.size, b] += times
        counts[: times.size, b] += 1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = sums / counts
        rel = mean / np.nanmean(mean, axis=0, keepdims=True)
    return rel


def absence_matrix(
    events: Sequence[TraceEvent], buckets: int = 24
) -> Optional[np.ndarray]:
    """(n_workers, buckets) status codes aligned with
    :func:`straggler_matrix`: 0 = active, 1 = departed (the rank did not
    exist in that bucket — drained away, or not yet joined), 2 =
    quarantined for (part of) the bucket. ``None`` without
    ``compute_phase`` events.
    """
    phases = events_of_type(events, "compute_phase")
    if not phases:
        return None
    n_workers = max(len(e.data.get("times", [])) for e in phases)
    if n_workers == 0:
        return None
    steps = [e.step for e in phases]
    lo, hi = min(steps), max(steps)
    buckets = max(1, min(buckets, hi - lo + 1))
    span = (hi - lo + 1) / buckets
    present = np.zeros((n_workers, buckets), dtype=bool)
    for e in phases:
        k = len(e.data.get("times", []))
        b = min(buckets - 1, int((e.step - lo) / span))
        present[:k, b] = True
    status = np.zeros((n_workers, buckets), dtype=np.int8)
    status[~present] = 1
    for e in events_of_type(events, "quarantine"):
        w = e.worker
        if not 0 <= w < n_workers:
            continue
        until = int(e.data.get("until", e.step))
        b0 = min(buckets - 1, int((max(e.step, lo) - lo) / span))
        b1 = min(buckets - 1, int((max(min(until, hi), lo) - lo) / span))
        row = status[w, b0 : b1 + 1]
        # Quarantine marks only buckets where the rank existed; a departed
        # cell keeps its departure marker.
        row[row == 0] = 2
    return status


def membership_timeline(events: Sequence[TraceEvent]) -> List[Dict]:
    """Chronological membership changes for the dashboard timeline: one
    row per ``membership``/``repartition`` event and per applied
    ``scale_decision``. Empty for fixed-membership runs, so the dashboard
    section appears exactly when elasticity ran."""
    rows: List[Dict] = []
    for e in events:
        d = e.data
        if e.etype == "membership":
            rows.append(
                {
                    "step": e.step,
                    "action": d.get("action", "?"),
                    "worker": e.worker,
                    "uid": d.get("uid"),
                    "size_after": d.get("size_after"),
                }
            )
        elif e.etype == "scale_decision" and d.get("applied"):
            rows.append(
                {
                    "step": e.step,
                    "action": f"scale[{d.get('policy', '?')}]",
                    "worker": -1,
                    "uid": None,
                    "size_after": d.get("desired"),
                }
            )
        elif e.etype == "repartition":
            rows.append(
                {
                    "step": e.step,
                    "action": "repartition",
                    "worker": -1,
                    "uid": None,
                    "size_after": d.get("n_workers"),
                    "coverage": d.get("coverage"),
                }
            )
    rows.sort(key=lambda r: (r["step"], r["action"]))
    return rows


def _step_range(events: Sequence[TraceEvent]) -> Optional[range]:
    """Inclusive step span of the run, from ``step_end`` events."""
    ends = events_of_type(events, "step_end")
    if not ends:
        return None
    steps = [e.step for e in ends]
    return range(min(steps), max(steps) + 1)


def retry_series(events: Sequence[TraceEvent]) -> Optional[np.ndarray]:
    """Per-step count of *extra* send attempts (retries), dense over the run.

    ``retry`` events carry the total attempt count for one enveloped
    message; the series accumulates ``attempts - 1`` so a fault-free step
    reads 0. Index 0 is the run's first completed step.
    """
    span = _step_range(events)
    if span is None:
        return None
    series = np.zeros(len(span))
    for e in events_of_type(events, "retry"):
        if span.start <= e.step < span.stop:
            series[e.step - span.start] += max(
                0, int(e.data.get("attempts", 1)) - 1
            )
    return series


def reroute_series(events: Sequence[TraceEvent]) -> Optional[np.ndarray]:
    """Per-step count of healed (rerouted) collective rounds."""
    span = _step_range(events)
    if span is None:
        return None
    series = np.zeros(len(span))
    for e in events_of_type(events, "reroute"):
        if span.start <= e.step < span.stop:
            series[e.step - span.start] += 1.0
    return series


def link_health_matrix(
    events: Sequence[TraceEvent], n_ranks: Optional[int] = None
) -> Optional[np.ndarray]:
    """(n_ranks, n_ranks) symmetric count of steps each link was faulted.

    Built from ``link_fault`` events (one per link per step, deduplicated
    at the source). Rank ``n_workers`` is the parameter server when a PS
    uplink ever faulted. Cell (a, b) == 0 means the link never misbehaved.
    """
    faults = events_of_type(events, "link_fault")
    if not faults:
        return None
    pairs = [
        (int(e.data["src"]), int(e.data["dst"]))
        for e in faults
        if "src" in e.data and "dst" in e.data
    ]
    if not pairs:
        return None
    if n_ranks is None:
        n_ranks = max(max(a, b) for a, b in pairs) + 1
    mat = np.zeros((n_ranks, n_ranks))
    for a, b in pairs:
        if a < n_ranks and b < n_ranks:
            mat[a, b] += 1.0
            mat[b, a] += 1.0
    return mat


def collective_totals(events: Sequence[TraceEvent]) -> Dict[str, Dict[str, float]]:
    """Per-op totals: count, bytes, simulated seconds."""
    out: Dict[str, Dict[str, float]] = {}
    for e in events_of_type(events, "collective"):
        op = e.data.get("op", "?")
        tot = out.setdefault(op, {"count": 0.0, "bytes": 0.0, "seconds": 0.0})
        tot["count"] += 1.0
        tot["bytes"] += float(e.data.get("bytes", 0.0))
        tot["seconds"] += float(e.data.get("seconds", 0.0))
    return out


def shard_totals(events: Sequence[TraceEvent]) -> Dict[int, Dict[str, float]]:
    """Per-shard traffic over a sharded-PS run: rounds, bytes, seconds and
    degraded (reduced-contributor) rounds, keyed by shard index.

    Empty for unsharded runs — only ``collective`` events carrying a
    ``shard`` field contribute, so the dashboard's shard table appears
    exactly when sharding ran.
    """
    out: Dict[int, Dict[str, float]] = {}
    ranks_seen: Dict[int, float] = {}
    for e in events_of_type(events, "collective"):
        shard = e.data.get("shard")
        if shard is None:
            continue
        s = int(shard)
        tot = out.setdefault(
            s, {"rounds": 0.0, "bytes": 0.0, "seconds": 0.0, "degraded": 0.0}
        )
        tot["rounds"] += 1.0
        tot["bytes"] += float(e.data.get("bytes", 0.0))
        tot["seconds"] += float(e.data.get("seconds", 0.0))
        k = float(e.data.get("ranks", 0.0))
        full = ranks_seen.get(s)
        ranks_seen[s] = max(k, full if full is not None else k)
    # A round is degraded when its contributor count fell below the shard's
    # observed maximum (the full cohort for that run).
    for e in events_of_type(events, "collective"):
        shard = e.data.get("shard")
        if shard is None:
            continue
        s = int(shard)
        if float(e.data.get("ranks", 0.0)) < ranks_seen.get(s, 0.0):
            out[s]["degraded"] += 1.0
    return out
