"""Trace persistence: deterministic JSONL writing, reading and validation.

One header line followed by one event per line, sorted by ``(step, worker,
seq)``. Serialization is byte-deterministic: keys are emitted in a fixed
order, floats use :func:`repr`-faithful ``json.dumps`` formatting, and
non-finite values go through the tag encoding of
:mod:`repro.utils.serialization` so strict JSON parsers can read a diverged
run's trace.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Tuple, Union

from repro.obs.trace import TRACE_SCHEMA_VERSION, TraceEvent
from repro.utils.serialization import decode_jsonable, encode_jsonable

PathLike = Union[str, Path]


class TraceSchemaError(ValueError):
    """A trace file written under another :data:`TRACE_SCHEMA_VERSION`."""


def event_from_jsonable(rec: Dict) -> TraceEvent:
    return TraceEvent(
        etype=rec["etype"],
        step=int(rec["step"]),
        worker=int(rec["worker"]),
        seq=int(rec["seq"]),
        data=decode_jsonable(rec.get("data", {})),
    )


#: ``json.dumps(..., sort_keys=True, allow_nan=False)`` without an encoder per call.
_encode = json.JSONEncoder(sort_keys=True, allow_nan=False, check_circular=False).encode


def event_line(ev: TraceEvent) -> str:
    """The canonical serialized form of one event (no newline).

    The fixed keys are a template in sorted order (``etype`` is plain ASCII)
    and only ``data`` is encoded, with ``sort_keys``: the byte layout does not
    depend on dict build order — the trace's byte-identity rests on it.
    """
    return '{"data": %s, "etype": "%s", "seq": %d, "step": %d, "worker": %d}' % (
        _encode(encode_jsonable(ev.data)), ev.etype, ev.seq, ev.step, ev.worker
    )


def part_path(path: PathLike) -> Path:
    """Where a trace is written before it is renamed to ``path``."""
    return Path(f"{path}.part")


def open_part(path: PathLike, header: Dict):
    """``<path>.part`` opened for binary writing, its header line written."""
    f = part_path(path).open("wb")
    f.write(json.dumps(header, sort_keys=True, allow_nan=False).encode() + b"\n")
    return f


def read_segment(path: PathLike, offset: int, count: int) -> Iterator[TraceEvent]:
    """The ``count`` events written from byte ``offset`` of ``path``."""
    with open(path, "rb") as f:
        f.seek(offset)
        for _ in range(count):
            yield event_from_jsonable(json.loads(f.readline()))


def write_trace(path: PathLike, header: Dict, events: Iterable[TraceEvent]) -> None:
    """Write header + events as JSONL to ``<path>.part``, renamed to ``path``
    when complete. Events must already be in canonical order
    (:attr:`repro.obs.trace.Tracer.events` returns them sorted)."""
    with open_part(path, header) as f:
        for ev in events:
            f.write(event_line(ev).encode() + b"\n")
    os.replace(part_path(path), path)


def read_trace(path: PathLike) -> Tuple[Dict, List[TraceEvent]]:
    """Parse a trace file back into ``(header, events)``.

    Validates the schema version and that events arrive in canonical order
    — an out-of-order trace means some writer bypassed the sorted flush,
    which would silently break every downstream byte comparison.
    """
    path = Path(path)
    header: Dict = {}
    events: List[TraceEvent] = []
    with path.open() as f:
        for lineno, line in enumerate(f):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if lineno == 0:
                if rec.get("kind") != "header":
                    raise ValueError(f"{path}: first line is not a trace header")
                if rec.get("schema") != TRACE_SCHEMA_VERSION:
                    raise TraceSchemaError(
                        f"{path}: trace schema {rec.get('schema')} != "
                        f"{TRACE_SCHEMA_VERSION}"
                    )
                header = rec
                continue
            events.append(event_from_jsonable(rec))
    for prev, cur in zip(events, events[1:]):
        if cur.key < prev.key:
            raise ValueError(
                f"{path}: events out of canonical order at key {cur.key} "
                f"after {prev.key}"
            )
    return header, events

