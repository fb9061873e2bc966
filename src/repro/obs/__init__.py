"""Structured run observability: tracing and the views over it (``repro.obs``).

One :class:`~repro.obs.trace.Tracer` is *installed* for the duration of a
run; every instrumented component (trainers, collectives, the network
model, executors, the fault injector) records an event with one call,
:func:`emit`, to the installed tracer, if any, and to the step's clock
collector (:func:`collect`): a lock-step step's seconds are
:func:`repro.obs.views.clock` over its events, traced or not. An untraced
run builds an event only for the types the clock reads
(:data:`~repro.obs.views.CLOCK_TYPES`) and writes nothing; its arithmetic
is bitwise-identical to a traced one.

Usage::

    tracer = Tracer(path="trace.jsonl", name="selsync")
    with use(tracer):
        trainer.run(cfg)                # whole steps stream to trace.jsonl.part
    tracer.close()                      # renamed to trace.jsonl
    print(tracer.metrics)               # run totals, a view of the events

Between steps a path-backed tracer holds one step's events; a run that never
reaches ``close`` leaves its whole steps, sorted, in ``<path>.part``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import List, Optional

from repro.obs.trace import (  # noqa: F401
    AGGREGATION_KINDS,
    EVENT_TYPES,
    TRACE_SCHEMA_VERSION,
    TraceEvent,
    Tracer,
)
from repro.obs.views import CLOCK_TYPES

_installed: Optional[Tracer] = None
_install_lock = threading.Lock()
#: The events of the open :func:`collect` block, or ``None``.
_collected: Optional[List[TraceEvent]] = None


def active() -> Optional[Tracer]:
    """The installed tracer, or ``None``: asked only by a site that computes
    something just for the trace (the executor's ``wall_s``)."""
    return _installed


def emit(etype: str, step: Optional[int] = None, worker: int = -1, **data) -> None:
    """Record one event: on the installed tracer, if any (``step=None`` is
    the step in flight, :meth:`Tracer.emit`), and, if the clock reads its
    type, in the open :func:`collect` block."""
    tr = _installed
    ev = None if tr is None else tr.emit(etype, step, worker, **data)
    if _collected is not None and etype in CLOCK_TYPES:
        if ev is None:
            ev = TraceEvent(etype, -1 if step is None else int(step), int(worker), data=data)
        _collected.append(ev)


@contextmanager
def collect():
    """Gather the clock-type events emitted inside the block, in emission
    order — a lock-step step's clock terms (:func:`repro.obs.views.clock`)."""
    global _collected
    _collected = events = []
    try:
        yield events
    finally:
        _collected = None


def install(tracer: Optional[Tracer]) -> None:
    """Install ``tracer`` globally (``None`` uninstalls).

    The simulation is one process with one run in flight at a time, so a
    single slot suffices; nested installs are a bug and raise.
    """
    global _installed
    with _install_lock:
        if tracer is not None and _installed is not None and _installed is not tracer:
            raise RuntimeError("a different tracer is already installed")
        _installed = tracer


@contextmanager
def use(tracer: Optional[Tracer]):
    """Install ``tracer`` for the duration of the block (no-op on None)."""
    if tracer is None:
        yield None
        return
    install(tracer)
    try:
        yield tracer
    finally:
        install(None)
