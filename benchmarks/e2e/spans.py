"""Wall-clock spans recorded from outside the program.

The benchmark times each layer by replacing bound methods on the *instances*
it built with timing wrappers — nothing under ``src/`` is edited, and the
objects are thrown away with the run. Each span records name, start, end,
the span that caused it and the training step it belongs to; spans stay in
memory and :meth:`SpanRecorder.write` dumps them when the run ends.

A span's **self time** is its duration minus the time its child spans cover,
so self times partition the traced run exactly: a faster layer can save at
most its self-time share.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List

from repro.nn.layers import Residual, Sequential

_NN_KIND = {
    "Conv2d": "conv",
    "Linear": "linear",
    "BatchNorm2d": "norm",
    "LayerNorm": "norm",
    "MaxPool2d": "pool",
    "AvgPool2d": "pool",
    "GlobalAvgPool2d": "pool",
    "ReLU": "act",
    "GELU": "act",
    "Tanh": "act",
    "MultiHeadSelfAttention": "attention",
    "Embedding": "embedding",
    "Dropout": "dropout",
}
NN_KINDS = tuple(sorted(set(_NN_KIND.values()))) + ("other",)


class SpanRecorder:
    """In-memory span store with on-the-fly self-time accounting."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.step = -1  # training step in flight; set by the step wrapper
        # One row per span, column-wise: name, start, end, parent row, step.
        self.name: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.step_of: List[int] = []
        self._open: List[int] = []  # rows of the spans currently open
        self._child_s: List[float] = []  # child time of each open span
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)

    def begin(self, name: str) -> None:
        self.name.append(name)
        self.parent.append(self._open[-1] if self._open else -1)
        self.step_of.append(self.step)
        self.end.append(0.0)
        self._open.append(len(self.start))
        self._child_s.append(0.0)
        self.start.append(time.perf_counter())

    def finish(self) -> None:
        now = time.perf_counter()
        row = self._open.pop()
        child = self._child_s.pop()
        self.end[row] = now
        dur = now - self.start[row]
        name = self.name[row]
        self.self_s[name] += dur - child
        self.total_s[name] += dur
        self.calls[name] += 1
        if self._child_s:
            self._child_s[-1] += dur

    def timed(self, fn: Callable, name: str) -> Callable:
        begin, finish = self.begin, self.finish

        def wrapper(*args, **kwargs):
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                finish()

        return wrapper

    def wrap(self, obj, attr: str, name: str) -> None:
        """Replace ``obj.attr`` (a bound method) with a timed version."""
        setattr(obj, attr, self.timed(getattr(obj, attr), name))

    def root_total_s(self) -> float:
        return sum(
            self.end[i] - self.start[i]
            for i, p in enumerate(self.parent)
            if p == -1
        )

    def self_sum(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def calls_sum(self, prefix: str) -> int:
        return sum(v for k, v in self.calls.items() if k.startswith(prefix))

    def write(self, path: Path) -> None:
        names = sorted(set(self.name))
        ids = {n: i for i, n in enumerate(names)}
        rows = [
            [
                ids[n],
                round(s - self.t0, 7),
                round(e - self.t0, 7),
                p,
                st,
            ]
            for n, s, e, p, st in zip(
                self.name, self.start, self.end, self.parent, self.step_of
            )
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            json.dump(
                {
                    "columns": ["name", "start_s", "end_s", "parent", "step"],
                    "names": names,
                    "spans": rows,
                },
                f,
                separators=(",", ":"),
            )


def _wrap_model(rec: SpanRecorder, model) -> None:
    rec.wrap(model, "forward", "nn.forward")
    rec.wrap(model, "backward", "nn.backward")
    for m in model.modules():
        # Containers only dispatch; their glue is the model span's self time.
        if m is model or isinstance(m, (Sequential, Residual)):
            continue
        kind = _NN_KIND.get(type(m).__name__, "other")
        rec.wrap(m, "forward", f"nn.{kind}.fwd")
        rec.wrap(m, "backward", f"nn.{kind}.bwd")


def _wrap_worker(rec: SpanRecorder, w) -> None:
    for attr in ("compute_gradient", "local_step", "apply_gradient", "set_params"):
        rec.wrap(w, attr, f"cluster.worker.{attr}")
    rec.wrap(w.loader, "next_batch", "data.next_batch")
    rec.wrap(w.optimizer, "step", "optim.step")
    _wrap_model(rec, w.model)
    make_loss = w.loss_factory

    def timed_loss():
        loss = make_loss()
        rec.wrap(loss, "forward", "nn.loss")
        rec.wrap(loss, "backward", "nn.loss")
        return loss

    w.loss_factory = timed_loss


def instrument(rec: SpanRecorder, trainer, tracer=None) -> Callable[[], None]:
    """Install timing wrappers on ``trainer`` and everything it drives.

    Returns an ``undo`` for the one patch that is not on an instance: the
    ``save_checkpoint`` function the trainer module imported.
    """
    step = trainer.step

    def timed_step(i):
        rec.step = i
        rec.begin("core.trainer.step")
        try:
            return step(i)
        finally:
            rec.finish()

    trainer.step = timed_step
    for attr in (
        "begin_faults",
        "screen_updates",
        "upload_penalty",
        "apply_corruption",
        "wire_updates",
        "evaluate",
    ):
        rec.wrap(trainer, attr, f"core.trainer.{attr}")
    rec.wrap(trainer, "_write_checkpoint", "core.trainer.write_checkpoint")
    rec.wrap(trainer.executor, "compute_gradients", "cluster.executor.dispatch")
    for w in trainer.workers:
        _wrap_worker(rec, w)
    group = trainer.group
    rec.wrap(group, "allreduce_mean", "comm.collectives.allreduce")
    rec.wrap(group, "charge_sync", "comm.collectives.charge_sync")
    rec.wrap(group, "allgather_flags", "comm.collectives.allgather")
    if group.envelope is not None:
        rec.wrap(group.envelope, "send", "comm.envelope.send")
    rec.wrap(trainer.server, "aggregate_params", "cluster.server.aggregate")
    rec.wrap(trainer.server, "aggregate_grads", "cluster.server.aggregate")
    if trainer.aggregator is not None:
        rec.wrap(trainer.aggregator, "reduce", "core.robust.aggregate")
    for t in getattr(trainer, "trackers", ()):
        rec.wrap(t, "update", "core.grad_tracker.update")
    if trainer.faults.active:
        rec.wrap(trainer.faults, "begin_step", "cluster.faults.begin_step")
    if trainer.health is not None:
        rec.wrap(trainer.health, "observe", "cluster.health.observe")
    if tracer is not None:
        rec.wrap(tracer, "emit", "obs.emit")
        rec.wrap(tracer, "close", "obs.close")

    import repro.core.trainer as trainer_module

    save = trainer_module.save_checkpoint
    trainer_module.save_checkpoint = rec.timed(
        save, "utils.serialization.save_checkpoint"
    )

    def undo():
        trainer_module.save_checkpoint = save

    return undo
