"""Structured run observability: tracing and the views over it (``repro.obs``).

One :class:`~repro.obs.trace.Tracer` is *installed* for the duration of a
run; every instrumented component (trainers, collectives, the network
model, executors, the fault injector) asks :func:`active` for it and emits
typed events when — and only when — one is installed. With no tracer
installed every instrumentation site reduces to a single ``None`` check,
so untraced runs pay nothing and are bitwise-identical to a build without
this package.

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
from typing import Optional

from repro.obs.trace import (  # noqa: F401
    AGGREGATION_KINDS,
    EVENT_TYPES,
    TRACE_SCHEMA_VERSION,
    TraceEvent,
    Tracer,
)

_installed: Optional[Tracer] = None
_install_lock = threading.Lock()


def active() -> Optional[Tracer]:
    """The installed tracer, or ``None`` (the zero-overhead common case)."""
    return _installed


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
