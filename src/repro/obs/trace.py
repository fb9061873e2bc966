"""Structured run tracing: typed, schema-versioned span/event records.

Every component of the simulation — trainers, collectives, executors, the
fault injector — emits :class:`TraceEvent` records through one
:class:`Tracer`. The trace is the ground truth of a run; the per-run summary
(:class:`~repro.utils.runlog.RunLog`) is a derived view over it
(:func:`repro.obs.views.runlog_from_trace`).

Determinism contract
--------------------
In deterministic mode (the default) a trace is **byte-identical** across
the serial and process executors and across a checkpoint/resume boundary:

* Events are keyed by ``(step, worker, seq)``: ``seq`` is a per-(step,
  worker) counter, so two events of the same logical stream keep their
  emission order, while streams of different workers are independent of
  thread interleaving.
* Events are written sorted by that key, a step's worth at a time: when
  ``step_begin(s)`` arrives the earlier steps are appended to
  ``<path>.part``, renamed to ``path`` by :meth:`Tracer.close` (DESIGN.md,
  "How the trace is persisted"). File order never reflects emission order.
* No wall-clock timestamps are recorded. Passing ``deterministic=False``
  adds a ``t_wall`` field to every event (useful for profiling real
  elapsed time, never for regression comparison).
* Only *step-scoped* events are written. Run-level aggregates live in the
  :class:`~repro.obs.metrics.MetricsRegistry`; a resumed run's event lines
  therefore concatenate with the interrupted run's to reproduce the
  uninterrupted trace exactly.
"""

from __future__ import annotations

import heapq
import math
import os
import threading
import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

#: Trace file schema version; bump on any incompatible record change.
TRACE_SCHEMA_VERSION = 1

#: Known event types. Emitting an unknown type raises — the schema is the
#: contract every figure benchmark asserts against, so it must not drift
#: silently.
EVENT_TYPES = (
    "step_begin",       # coordinator opens step i
    "step_end",         # step i closed: synced/sim_time/comm_time/loss/...
    "compute_phase",    # per-worker simulated compute times for the round
    "exec_task",        # one worker's gradient task ran (executor backend)
    "delta_eval",       # SelSync: one worker's Δ(g) value and vote
    "sync_decision",    # SelSync: the cluster-wide vote outcome
    "aggregation",      # one aggregation round (PA/GA/elastic/async)
    "collective",       # one collective op: payload bytes + simulated cost
    "fault",            # injected/observed fault (crash/rejoin/straggle/...)
    "checkpoint_save",  # trainer state snapshot written
    "eval",             # periodic evaluation of the deployable model
    "aggregator_decision",  # robust aggregation: inputs kept/dropped + info
    "quarantine",       # health tracker flagged a worker (reason/score)
    "reinstate",        # quarantined worker restored after probation
    "link_fault",       # a link dropped/downed a message (src/dst/kind)
    "retry",            # enveloped message retried: attempts + wait charged
    "reroute",          # collective healed around dead links (mode/detail)
    "partition_detected",  # network partition onset: groups + majority side
    "shard_round",      # sharded PS round summary: n_shards/active/seconds
    "membership",       # elastic join/drain: action/uid/rank/size change
    "scale_decision",   # autoscaler verdict: policy/current/desired/applied
    "repartition",      # data re-split over the new world size: coverage
)

#: Aggregation kinds carried by ``aggregation`` events.
AGGREGATION_KINDS = ("PA", "GA", "elastic", "async")


@dataclass
class TraceEvent:
    """One typed trace record.

    Attributes
    ----------
    etype:
        One of :data:`EVENT_TYPES`.
    step:
        Global step index the event belongs to (-1 for pre-run events).
    worker:
        Worker id, or -1 for coordinator/cluster-scoped events.
    seq:
        Per-(step, worker) emission counter; makes the sort key total.
    data:
        Event-specific payload (JSON-safe scalars/lists only).
    """

    etype: str
    step: int
    worker: int = -1
    seq: int = 0
    data: Dict = field(default_factory=dict)

    def __post_init__(self):
        if self.etype not in EVENT_TYPES:
            raise ValueError(
                f"unknown trace event type {self.etype!r}; "
                f"expected one of {EVENT_TYPES}"
            )

    #: The canonical order, ``(step, worker, seq)``.
    key = property(attrgetter("step", "worker", "seq"))


#: ``TraceEvent.key`` without the property lookup: the sort and merge key.
_KEY = TraceEvent.key.fget


def _num(d: Dict, key: str, default: float) -> float:
    """``d[key]`` as a float: ``default`` if absent, NaN if not a number."""
    try:
        return default if d.get(key) is None else float(d[key])
    except (TypeError, ValueError, OverflowError):
        return float("nan")


def _count(m: MetricsRegistry, name: str, amount: float) -> None:
    if 0.0 <= amount < math.inf:
        m.inc(name, amount)


def _sample(m: MetricsRegistry, name: str, value: float) -> None:
    # Non-finite values (first EWMA update, corrupted gradients) stay out:
    # sorting NaNs is insertion-order dependent and would leak thread timing.
    if math.isfinite(value):
        m.observe(name, value)


class Tracer:
    """Collects :class:`TraceEvent` records and derives metrics from them.

    Parameters
    ----------
    path:
        JSONL sink written as the run goes (``None`` keeps the trace
        in memory only — the events remain accessible via :attr:`events`).
    name:
        Run name recorded in the trace header.
    deterministic:
        Forbid wall-clock fields (see the module docstring). Default True.
    meta:
        Extra header fields (the experiment runner stores its
        reproducibility manifest here).
    """

    def __init__(
        self,
        path=None,
        name: str = "run",
        deterministic: bool = True,
        meta: Optional[Dict] = None,
    ):
        self.path = path
        self.name = name
        self.deterministic = bool(deterministic)
        self.meta: Dict = dict(meta) if meta else {}
        self.metrics = MetricsRegistry()
        self._pending: List[TraceEvent] = []
        # Path-backed: the open ``<path>.part``, the header at its top, its
        # sorted segments as [byte offset, event count], the last key written.
        self._file = self._header = self._last_key = None
        self._segments: List[List[int]] = []
        self._seq: Dict[Tuple[int, int], int] = {}
        self._lock = threading.Lock()
        self._current_step: int = -1
        self._closed = False

    # -- emission ----------------------------------------------------------
    def emit(self, etype: str, step: Optional[int] = None, worker: int = -1, **data):
        """Record one event.

        ``step=None`` scopes the event to the step currently in flight —
        that is how components below the trainer (collectives, network,
        executor) attach their events without threading a step id through
        every call signature.
        """
        if self._closed:
            raise RuntimeError("tracer is closed")
        if step is None:
            step = self._current_step
        ev = TraceEvent(etype=etype, step=int(step), worker=int(worker), data=data)
        if not self.deterministic:
            ev.data["t_wall"] = time.monotonic()
        with self._lock:
            key = (ev.step, ev.worker)
            ev.seq = self._seq.get(key, 0)
            self._seq[key] = ev.seq + 1
            if etype == "step_begin" and self.path is not None:
                self._write_pending(before=ev.step)
            self._pending.append(ev)
        self._derive_metrics(ev)
        if etype == "step_begin":
            self._current_step = ev.step
        return ev

    def _derive_metrics(self, ev: TraceEvent) -> None:
        """Standard metrics every run gets for free, derived per event.

        The ``comm.bytes`` counter sums exactly the ``bytes`` field of
        ``collective`` events, so the invariant *sum of per-collective
        payload bytes == run-summary bytes counter* holds by construction
        (and is still asserted by the property tests — a refactor that
        breaks it should fail loudly).

        Total over payloads — ``emit`` must never raise from here: a field its
        metric cannot take (text, a list, a negative count, NaN) is left out.
        """
        m = self.metrics
        m.inc("events.total")
        m.inc(f"events.{ev.etype}")
        d = ev.data
        if ev.etype == "collective":
            _count(m, "comm.bytes", _num(d, "bytes", 0.0))
            _sample(m, "comm.seconds", _num(d, "seconds", 0.0))
        elif ev.etype == "step_end":
            _sample(m, "step.sim_time", _num(d, "sim_time", 0.0))
            _sample(m, "step.comm_time", _num(d, "comm_time", 0.0))
            m.inc("steps.synced" if d.get("synced") else "steps.local")
        elif ev.etype == "delta_eval":
            _sample(m, "delta.value", _num(d, "delta", float("nan")))
            if d.get("vote"):
                m.inc("delta.votes")
        elif ev.etype == "fault":
            m.inc(f"faults.{d.get('fault_kind', 'unknown')}")
        elif ev.etype == "exec_task":
            m.inc("executor.tasks")
        elif ev.etype == "checkpoint_save":
            m.inc("checkpoint.saves")
        elif ev.etype == "eval":
            m.set("eval.last_metric", _num(d, "metric", float("nan")))
        elif ev.etype == "aggregator_decision":
            m.inc("robust.rounds")
            _count(m, "robust.dropped", _num(d, "n_dropped", 0.0))
        elif ev.etype == "quarantine":
            m.inc("health.quarantines")
        elif ev.etype == "reinstate":
            m.inc("health.reinstatements")
        elif ev.etype == "retry":
            _count(m, "comm.retries", max(0.0, _num(d, "attempts", 1.0) - 1.0))
            _count(m, "comm.retry_wait_s", _num(d, "wait_s", 0.0))
            if not d.get("delivered", True):
                m.inc("comm.exhausted")
        elif ev.etype == "reroute":
            m.inc("comm.reroutes")
        elif ev.etype == "link_fault":
            m.inc("net.link_faults")
        elif ev.etype == "partition_detected":
            m.inc("net.partitions")
        elif ev.etype == "shard_round":
            # Round summary only — its ``bytes`` recaps the per-shard
            # ``collective`` events (which already fed ``comm.bytes``), so
            # counting it here would double the ledger.
            m.inc("comm.shard_rounds")
            _count(m, "comm.degraded_shard_rounds", _num(d, "n_degraded", 0.0))
            _sample(m, "shard.round_seconds", _num(d, "seconds", 0.0))
        elif ev.etype == "membership":
            m.inc(f"elastic.{d.get('action', 'unknown')}s")
            m.set("cluster.world_size", _num(d, "size_after", float("nan")))
        elif ev.etype == "scale_decision":
            m.inc("elastic.scale_decisions")
            if d.get("applied"):
                m.inc("elastic.scale_applied")
        elif ev.etype == "repartition":
            m.inc("elastic.repartitions")

    # -- access / persistence ---------------------------------------------
    def _write_pending(self, before: float) -> None:
        """Append the pending events of the steps before ``before`` to
        ``<path>.part``, sorted; a batch that starts below the last key
        written (a step replayed after a rollback) starts a new segment."""
        from repro.obs.sink import event_line, open_part

        batch = [e for e in self._pending if e.step < before]
        self._pending = [e for e in self._pending if e.step >= before]
        batch.sort(key=_KEY)
        if self._file is None:
            self._header = self.header()
            self._file = open_part(self.path, self._header)
        if batch:
            if not self._segments or batch[0].key < self._last_key:
                self._segments.append([self._file.tell(), 0])
            self._file.write("".join([event_line(e) + "\n" for e in batch]).encode())
            self._file.flush()
            self._segments[-1][1] += len(batch)
            self._last_key = batch[-1].key

    @property
    def events(self) -> List[TraceEvent]:
        """Events in canonical (step, worker, seq) order; for a path-backed
        tracer, the file read back and the pending tail."""
        from repro.obs.sink import part_path, read_segment, read_trace

        with self._lock:
            tail = sorted(self._pending, key=_KEY)
            if self._file is None:
                return tail
            if self._closed:
                return read_trace(self.path)[1]
            part = part_path(self.path)
            written = [read_segment(part, *segment) for segment in self._segments]
            return list(heapq.merge(*written, tail, key=_KEY))

    def header(self) -> Dict:
        return {
            "kind": "header",
            "schema": TRACE_SCHEMA_VERSION,
            "name": self.name,
            "deterministic": self.deterministic,
            "meta": dict(self.meta),
        }

    def close(self) -> None:
        """Write what is pending and complete the file at :attr:`path`."""
        from repro.obs.sink import part_path, read_segment, write_trace

        with self._lock:
            closed, self._closed = self._closed, True
            if closed or self.path is None:
                return
            self._write_pending(math.inf)
            self._file.close()
            part, header = part_path(self.path), self.header()
            if len(self._segments) <= 1 and header == self._header:
                os.replace(part, self.path)
                return
            segments = f"{part}.segments"  # merged into a new ``part``
            os.replace(part, segments)
            written = [read_segment(segments, *segment) for segment in self._segments]
            merged = heapq.merge(*written, key=_KEY)
            write_trace(self.path, header, merged)
            os.unlink(segments)
