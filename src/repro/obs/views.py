"""Derived views over a trace: run logs and dashboard aggregates.

The trace is the ground truth of a run; everything the reporting layer
needs — the classic :class:`~repro.utils.runlog.RunLog` summary, sync
ratios, bytes per step, the straggler heatmap — is recomputed from the
event stream here, so any consumer can work from a persisted ``.jsonl``
trace alone.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.obs.trace import TraceEvent
from repro.utils.runlog import EvalRecord, FaultRecord, IterationRecord, RunLog


def runlog_from_trace(
    events: Sequence[TraceEvent], name: str = "run", meta: Optional[Dict] = None
) -> RunLog:
    """Rebuild a :class:`RunLog` from ``step_end``/``eval``/``fault`` events.

    The result is record-for-record equal to the RunLog the trainer built
    in memory during the same run (asserted by the obs test suite) — the
    runlog summary rows are a *view* of the trace, not a second source of
    truth.
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
            log.record_fault(
                FaultRecord(
                    step=ev.step,
                    worker=ev.worker,
                    kind=d["fault_kind"],
                    detail={k: v for k, v in d.items() if k != "fault_kind"},
                )
            )
    return log


def events_of_type(events: Iterable[TraceEvent], etype: str) -> List[TraceEvent]:
    return [e for e in events if e.etype == etype]


def sync_ratio(events: Sequence[TraceEvent]) -> Optional[float]:
    """Fraction of completed steps that synchronized (1 - LSSR)."""
    ends = events_of_type(events, "step_end")
    if not ends:
        return None
    return sum(1 for e in ends if e.data.get("synced")) / len(ends)


def bytes_per_step(events: Sequence[TraceEvent]) -> Optional[float]:
    """Mean collective payload bytes per completed step."""
    ends = events_of_type(events, "step_end")
    if not ends:
        return None
    total = sum(
        float(e.data.get("bytes", 0.0))
        for e in events_of_type(events, "collective")
    )
    return total / len(ends)


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
