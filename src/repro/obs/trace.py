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
* Only *step-scoped* events are written. Run-level totals are computed
  from them (:attr:`Tracer.metrics`, :func:`repro.obs.views.metrics`); a
  resumed run's event lines therefore concatenate with the interrupted
  run's to reproduce the uninterrupted trace exactly.
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

#: Trace file schema version; bump on any incompatible record change (2: each
#: simulated second is on an event, :func:`repro.obs.views.clock`).
TRACE_SCHEMA_VERSION = 2

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


class Tracer:
    """Collects :class:`TraceEvent` records; run metrics are a view of them.

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
        if etype == "step_begin":
            self._current_step = ev.step
        return ev

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

    @property
    def metrics(self) -> Dict:
        """Run totals of :attr:`events` (:func:`repro.obs.views.metrics`)."""
        from repro.obs.views import metrics

        return metrics(self.events)

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
