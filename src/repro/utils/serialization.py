"""Run-artifact serialization.

Training runs are expensive; these helpers persist a
:class:`~repro.utils.runlog.RunLog` (JSONL: one iteration, eval or fault
record per line) and full training checkpoints (global params, per-worker
optimizer/loader/RNG state, tracker state, step counter) so experiments can
be killed, resumed, re-plotted or diffed without re-running.

Non-finite floats
-----------------
Strict JSON has no ``nan``/``inf``. Diverged runs produce them routinely —
losses, metrics, Δ(g) traces, tracker state — and a checkpoint that cannot
hold them is useless exactly when you need it. :func:`encode_jsonable` /
:func:`decode_jsonable` walk arbitrarily *nested* structures (dicts, lists,
tuples) and replace non-finite floats with the tagged dict
``{"__nonfinite__": "nan" | "inf" | "-inf"}``, which survives strict JSON
and cannot collide with a legitimate string value.
"""

from __future__ import annotations

import json
import math
import threading
from itertools import chain
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.utils.runlog import EvalRecord, FaultRecord, IterationRecord, RunLog

PathLike = Union[str, Path]

#: Current checkpoint layout version (bump on incompatible change). 2: the
#: bookkeeping objects and a rule's own state are captured by attribute
#: name (:mod:`repro.utils.state`). 3: the server's versions, the group's and
#: the envelope's unread counters and the fixed health / elastic / retry
#: constants are no longer saved. 4: nothing the log or another member
#: determines (the clock, the patience state, the round count, the group's
#: copy of the shard layout) and nothing no one reads back is saved. Older
#: files are refused on resume.
CHECKPOINT_VERSION = 4

_NONFINITE_TAG = "__nonfinite__"
_NDARRAY_TAG = "__ndarray__"
_JSONL_TAG = "__jsonl__"


# -- non-finite-safe JSON trees ----------------------------------------------


def encode_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` into a strict-JSON-safe tree.

    Handles nested dicts/lists/tuples, numpy scalars, and non-finite floats
    at any depth (the top-level-only encoding this replaces silently wrote
    invalid JSON for diverged eval records and metrics dicts).
    """
    if type(obj) is float and math.isfinite(obj):  # the common case first
        return obj
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, dict):
        return {
            k if isinstance(k, str) else str(k): encode_jsonable(v)
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [encode_jsonable(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isfinite(f):
            return f
        return {_NONFINITE_TAG: "nan" if f != f else ("inf" if f > 0 else "-inf")}
    raise TypeError(f"cannot JSON-encode object of type {type(obj).__name__}")


def decode_jsonable(obj: Any) -> Any:
    """Inverse of :func:`encode_jsonable` (tuples come back as lists)."""
    if isinstance(obj, dict):
        if set(obj) == {_NONFINITE_TAG}:
            return float(obj[_NONFINITE_TAG])
        return {k: decode_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [decode_jsonable(v) for v in obj]
    return obj


# -- run logs ----------------------------------------------------------------


def _iter_to_jsonable(r: IterationRecord) -> Dict:
    return {
        "kind": "iter",
        "step": r.step,
        "synced": r.synced,
        "sim_time": r.sim_time,
        "comm_time": r.comm_time,
        "loss": None if np.isnan(r.loss) else encode_jsonable(r.loss),
        "grad_change": _encode_float(r.grad_change),
        "extra": encode_jsonable(r.extra),
    }


def _iter_from_jsonable(rec: Dict) -> IterationRecord:
    return IterationRecord(
        step=rec["step"],
        synced=rec["synced"],
        sim_time=rec["sim_time"],
        comm_time=rec["comm_time"],
        loss=float("nan") if rec["loss"] is None else decode_jsonable(rec["loss"]),
        grad_change=_decode_float(rec["grad_change"]),
        extra=decode_jsonable(rec.get("extra", {})),
    )


def _eval_to_jsonable(e: EvalRecord) -> Dict:
    return {
        "kind": "eval",
        "step": e.step,
        "epoch": e.epoch,
        "sim_time": e.sim_time,
        "metric": encode_jsonable(e.metric),
        "metric_name": e.metric_name,
    }


def _eval_from_jsonable(rec: Dict) -> EvalRecord:
    return EvalRecord(
        step=rec["step"],
        epoch=rec["epoch"],
        sim_time=rec["sim_time"],
        metric=decode_jsonable(rec["metric"]),
        metric_name=rec.get("metric_name", "accuracy"),
    )


def _fault_to_jsonable(f: FaultRecord) -> Dict:
    return {
        "kind": "fault",
        "step": f.step,
        "worker": f.worker,
        "fault_kind": f.kind,
        "detail": encode_jsonable(f.detail),
    }


def _fault_from_jsonable(rec: Dict) -> FaultRecord:
    return FaultRecord(
        step=rec["step"],
        worker=rec["worker"],
        kind=rec["fault_kind"],
        detail=decode_jsonable(rec.get("detail", {})),
    )


def _header_to_jsonable(log: RunLog) -> Dict:
    return {"kind": "header", "name": log.name, "meta": encode_jsonable(log.meta)}


def runlog_to_jsonable(log: RunLog) -> List[Dict]:
    """Whole run log as a list of strict-JSON-safe record dicts (header
    first) — the shared representation of the JSONL file and checkpoints."""
    records = [_header_to_jsonable(log)]
    records += [_iter_to_jsonable(r) for r in log.iterations]
    records += [_fault_to_jsonable(f) for f in log.faults]
    records += [_eval_to_jsonable(e) for e in log.evals]
    return records


def runlog_from_jsonable(records: List[Dict]) -> RunLog:
    log = RunLog()
    for rec in records:
        kind = rec.get("kind")
        if kind == "header":
            log.name = rec["name"]
            log.meta = decode_jsonable(rec.get("meta", {}))
        elif kind == "iter":
            log.record_iteration(_iter_from_jsonable(rec))
        elif kind == "eval":
            log.record_eval(_eval_from_jsonable(rec))
        elif kind == "fault":
            log.record_fault(_fault_from_jsonable(rec))
        else:
            raise ValueError(f"unknown record kind {kind!r} in run log")
    return log


class JsonLines(str):
    """Already-encoded strict-JSON records, one per line: as a checkpoint leaf,
    stored verbatim in its own member and loaded back as the decoded records."""


class RunLogLines:
    """JSONL text of an append-only :class:`RunLog`, each record encoded once:
    records are immutable once appended (trainers finish ``rec.extra`` before
    ``log.record_iteration``), so :meth:`text` encodes only what was appended
    since its previous call, plus the header (``log.meta`` may still change).
    A different log starts over. The order is :func:`runlog_to_jsonable`'s."""

    def __init__(self):
        self._log: Optional[RunLog] = None
        self._lines: Tuple[List[str], ...] = ([], [], [])

    def text(self, log: RunLog) -> JsonLines:
        if log is not self._log:
            self._log, self._lines = log, ([], [], [])
        records = (log.iterations, log.faults, log.evals)
        encoders = (_iter_to_jsonable, _fault_to_jsonable, _eval_to_jsonable)
        for lines, recs, enc in zip(self._lines, records, encoders):
            lines.extend(json.dumps(enc(r), allow_nan=False) for r in recs[len(lines):])
        header = json.dumps(_header_to_jsonable(log), allow_nan=False)
        return JsonLines("\n".join([header, *chain(*self._lines)]))


def save_runlog(log: RunLog, path: PathLike) -> None:
    """Write a run log as JSONL: a header line, then one record per line.

    Output is strict JSON (``allow_nan=False``): non-finite values are
    tag-encoded, so a diverged run's log is still parseable by any reader.
    """
    Path(path).write_text(RunLogLines().text(log) + "\n")


def load_runlog(path: PathLike) -> RunLog:
    """Inverse of :func:`save_runlog`."""
    path = Path(path)
    records = [json.loads(ln) for ln in path.read_text().split("\n") if ln.strip()]
    try:
        return runlog_from_jsonable(records)
    except ValueError as e:
        raise ValueError(f"{e} ({path})") from None


def _encode_float(x):
    """JSON has no inf/nan; encode them as strings (legacy top-level form,
    kept for the ``grad_change`` field's file-format compatibility). For
    nested structures use :func:`encode_jsonable`."""
    if x is None:
        return None
    if np.isnan(x):
        return "nan"
    if np.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def _decode_float(x):
    return None if x is None else float(x)


# -- checkpoints -------------------------------------------------------------
#
# A checkpoint is an arbitrary tree of dicts/lists whose leaves are JSON
# scalars, numpy arrays or JsonLines text. Arrays are hoisted into npz entries
# and replaced in the JSON tree by {"__ndarray__": index} (text, as its utf-8
# bytes, by {"__jsonl__": index}); everything else goes through the
# non-finite-safe encoder. One .npz file holds both — stored, not deflated
# (float64 weights: -5 % bytes for +30x time, on the step path). Files from
# before PR 13 (deflated, the log as records inside the tree) load to the same
# tree, so CHECKPOINT_VERSION did not move (DESIGN.md "Fault model" item 3).


def _hoist_arrays(obj: Any, arrays: List[np.ndarray]) -> Any:
    if isinstance(obj, np.ndarray):
        arrays.append(obj)
        return {_NDARRAY_TAG: len(arrays) - 1}
    if isinstance(obj, JsonLines):
        arrays.append(np.frombuffer(obj.encode("utf-8"), dtype=np.uint8))
        return {_JSONL_TAG: len(arrays) - 1}
    if isinstance(obj, dict):
        return {str(k): _hoist_arrays(v, arrays) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_hoist_arrays(v, arrays) for v in obj]
    return encode_jsonable(obj)


def _lower_arrays(obj: Any, npz) -> Any:  # a member is read when its leaf is reached
    if isinstance(obj, dict):
        if set(obj) == {_NDARRAY_TAG}:
            return npz[f"arr_{int(obj[_NDARRAY_TAG])}"]
        if set(obj) == {_JSONL_TAG}:
            text = bytes(npz[f"arr_{int(obj[_JSONL_TAG])}"]).decode("utf-8")
            return [_lower_arrays(json.loads(ln), npz) for ln in text.splitlines()]
        if set(obj) == {_NONFINITE_TAG}:
            return float(obj[_NONFINITE_TAG])
        return {k: _lower_arrays(v, npz) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_lower_arrays(v, npz) for v in obj]
    return obj


#: The checkpoint publish in flight: its thread and what it raised.
_publishing: Optional[Tuple[threading.Thread, List[BaseException]]] = None


def _publish(tmp: Path, path: Path, failed: List[BaseException]) -> None:
    try:
        tmp.replace(path)
    except BaseException as e:  # re-raised by settle_checkpoints
        failed.append(e)
    finally:
        tmp.unlink(missing_ok=True)


def settle_checkpoints() -> None:
    """Wait for the checkpoint publish in flight, if any, and re-raise what
    it hit. Either way no ``.tmp`` is left and no publisher thread is alive."""
    global _publishing
    if _publishing is not None:
        (thread, failed), _publishing = _publishing, None
        thread.join()
        if failed:
            raise failed[0]


def save_checkpoint(state: Dict, path: PathLike) -> None:
    """Persist a checkpoint tree (dicts/lists of arrays and scalars).

    ``path`` always names a complete checkpoint: a kill leaves the previous
    one. The tree is written to ``<path>.tmp`` here; the atomic rename onto
    ``path`` (on ext4, a writeback of the new file when it replaces one) runs
    on one non-daemon publisher thread, off the step path. The next save, any
    load, the end of ``DistributedTrainer.run`` and interpreter exit wait for it.
    """
    global _publishing
    settle_checkpoints()
    path = Path(path)
    arrays: List[np.ndarray] = []
    tree = _hoist_arrays(state, arrays)
    payload = {f"arr_{i}": a for i, a in enumerate(arrays)}
    payload["__tree__"] = np.frombuffer(
        json.dumps(tree, allow_nan=False).encode("utf-8"), dtype=np.uint8
    )
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as f:
            np.savez(f, **payload)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    failed: List[BaseException] = []
    thread = threading.Thread(target=_publish, args=(tmp, path, failed), daemon=False)
    thread.start()
    _publishing = thread, failed


def load_checkpoint(path: PathLike, subtree: Tuple = ()) -> Any:
    """Inverse of :func:`save_checkpoint` (either layout). ``subtree`` — a
    path of keys / indices into the tree — returns that branch alone and
    reads only the npz members it references (what one restarted rank reads).
    A publish in flight is settled first."""
    settle_checkpoints()
    with np.load(Path(path)) as data:
        tree = json.loads(bytes(data["__tree__"]).decode("utf-8"))
        for key in subtree:
            tree = tree[key]
        # data[k] is a fresh array: nothing refers to the file once it closes.
        return _lower_arrays(tree, data)
