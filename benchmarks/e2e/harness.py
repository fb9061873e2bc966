"""Measure one workload: timed blocks, output checks, per-layer table.

Imported by ``run.py`` only after it has pinned BLAS to one thread and put
``src/`` on ``sys.path``.

Two clocks, never mixed: **host** numbers are what the numpy simulator costs
us (wall time, divided by the reference kernel where they must repeat);
**sim** numbers are what the modelled cluster would take, and repeat
bit-exactly for a given (workload, seed, seconds).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import TrainConfig
from repro.core.trainer import DistributedTrainer, TrainResult
from repro.obs import Tracer
from repro.obs.sink import read_trace
from repro.utils.serialization import load_checkpoint, runlog_to_jsonable

from catalog import END_TO_END, PER_LAYER
from refkernel import SETUP_REF_NOMINAL_S, ref_kernel_s, setup_ref_s
from spans import NN_KINDS, SpanRecorder, instrument
from workloads import Spec


class BlockClock:
    """The ``step_monitor``: after every step, a timestamp and one timing of
    the reference kernel; at block ends, the sim snapshot and the deadline.

    Slot ``i + 1`` belongs to step ``i``; slot 0 is the mark taken just
    before the run. Block ``b`` runs from the end of slot ``b * block`` to
    the start of slot ``(b + 1) * block``, so it holds exactly ``block``
    steps plus the eval (and checkpoint) that follow the previous block's
    last step. Time spent in here is subtracted from the block.

    Every sim-clock statistic is read at step ``sim_steps``, a budget fixed
    by the workload, so it does not depend on how fast the host happens to
    be. With a ``deadline_s`` the run then keeps adding timed blocks until
    that much wall time has passed (it stops by setting ``cfg.stop_after``
    at a block end); without one it stops at ``sim_steps``.
    """

    def __init__(self, block: int, max_steps: int, sim_steps: int, deadline_s: Optional[float]):
        self.block = block
        self.sim_steps = sim_steps
        self.deadline_s = deadline_s
        self.cfg: Optional[TrainConfig] = None  # set once the config exists
        self.entered = np.zeros(max_steps + 1)
        self.paused = np.zeros(max_steps + 1)  # seconds spent inside the monitor
        self.ref_s = np.zeros(max_steps + 1)
        self.sim_bytes = 0
        self.sim_params = hashlib.sha256()

    def __call__(self, trainer, i: int) -> None:
        slot = i + 1
        t0 = time.perf_counter()
        self.entered[slot] = t0
        self.ref_s[slot] = ref_kernel_s()
        if trainer is not None and slot % self.block == 0:
            if slot == self.sim_steps:
                self.sim_bytes = trainer.group.bytes_synced
                for w in trainer.workers:
                    self.sim_params.update(
                        np.ascontiguousarray(w.get_params(copy=False)).tobytes()
                    )
            if (
                self.deadline_s is not None
                and slot >= self.sim_steps
                and t0 - self.entered[0] >= self.deadline_s
            ):
                self.cfg.stop_after = slot
        self.paused[slot] = time.perf_counter() - t0

    def block_step_seconds(self, n_done: int) -> np.ndarray:
        """Per block: wall seconds per step."""
        B = self.block
        return np.array([
            (self.entered[lo + B] - self.entered[lo] - self.paused[lo : lo + B].sum()) / B
            for lo in range(0, n_done, B)
        ])

    def block_ref_seconds(self, n_done: int) -> np.ndarray:
        """Per block: mean reference-kernel seconds over the block's steps
        and both of its boundaries."""
        B = self.block
        return np.array([self.ref_s[lo : lo + B + 1].mean() for lo in range(0, n_done, B)])

    def step_seconds(self, n_done: int) -> np.ndarray:
        """Per-step wall time, without each block's first step (its gap
        holds the previous block's eval and checkpoint)."""
        gaps = np.diff(self.entered[: n_done + 1]) - self.paused[:n_done]
        return gaps[np.arange(n_done) % self.block != 0]


@dataclass
class Measured:
    """One ``trainer.run`` and what the harness read around it."""

    wall_s: float
    result: TrainResult
    trainer: DistributedTrainer
    clock: BlockClock
    higher_is_better: bool
    samples_per_step: int
    tracer: Optional[Tracer]
    trace_path: Optional[Path]
    ckpt_path: Optional[Path]

    @property
    def all_costs(self) -> List[float]:
        """Per block: wall seconds per step in reference-kernel units."""
        n = self.result.steps
        return list(self.clock.block_step_seconds(n) / self.clock.block_ref_seconds(n))

    @property
    def costs(self) -> List[float]:
        """``step_cost_ref`` per timed block. The first block warms
        workspaces and is reported apart (``host.warmup_block_ratio``)."""
        return self.all_costs[1:]

    @property
    def cost(self) -> float:
        return statistics.median(self.costs)

    # The sim side: the first ``sim_steps`` steps, whatever ran after them.
    @property
    def sim_iterations(self):
        return self.result.log.iterations[: self.clock.sim_steps]

    @property
    def sim_evals(self):
        return [e for e in self.result.log.evals if e.step < self.clock.sim_steps]

    @property
    def sim_time(self) -> float:
        return float(sum(r.sim_time for r in self.sim_iterations))

    @property
    def lssr(self) -> float:
        return sum(not r.synced for r in self.sim_iterations) / self.clock.sim_steps

    def records(self) -> List[Dict]:
        """The RunLog up to ``sim_steps`` as JSON-safe records."""
        return [
            r
            for r in runlog_to_jsonable(self.result.log)
            if r.get("step", -1) < self.clock.sim_steps
        ]

    def digest(self) -> str:
        """sha256 over every replica's parameters at ``sim_steps`` and the
        RunLog up to there: equal digests mean every sim statistic is equal."""
        h = self.clock.sim_params.copy()
        h.update(json.dumps(self.records(), sort_keys=True).encode())
        return h.hexdigest()


def measure(
    spec: Spec,
    seed: int,
    seconds: float,
    tmp: Path,
    sim_steps: Optional[int] = None,
    deadline_s: Optional[float] = None,
    rec: Optional[SpanRecorder] = None,
) -> Measured:
    """Build ``spec`` and run it, untraced or (with ``rec``) under spans.

    The run stops at ``sim_steps`` (default: the workload's budget for
    ``seconds``), or with a ``deadline_s`` at the first block end after
    both ``sim_steps`` and that much wall time.
    """
    max_steps = spec.max_steps(seconds)
    if sim_steps is None:
        sim_steps = spec.sim_steps(seconds)
    built, trainer = spec.build(seed, max_steps)

    tracer = trace_path = ckpt_path = None
    extra = {}
    if spec.observed:
        trace_path, ckpt_path = tmp / "trace.jsonl", tmp / "ckpt.npz"
        tracer = Tracer(path=trace_path, name=spec.name)
        extra = dict(
            tracer=tracer,
            checkpoint_every=spec.block,
            checkpoint_path=str(ckpt_path),
        )
    clock = BlockClock(spec.block, max_steps, sim_steps, deadline_s)
    monitor = clock if rec is None else rec.timed(clock, "host.monitor")
    undo = instrument(rec, trainer, tracer) if rec is not None else None
    clock.cfg = cfg = TrainConfig(
        n_steps=max_steps,
        eval_every=spec.block,
        eval_fn=built.eval_fn,
        higher_is_better=built.higher_is_better,
        stop_after=sim_steps if deadline_s is None else None,
        step_monitor=monitor,
        **extra,
    )
    gc.collect()
    gc.disable()
    try:
        clock(None, -1)
        t0 = time.perf_counter()
        if rec is not None:
            rec.begin("core.trainer.run_loop")
        try:
            result = trainer.run(cfg)
        finally:
            if rec is not None:
                rec.finish()
        if tracer is not None:
            tracer.close()
        wall_s = time.perf_counter() - t0
    finally:
        gc.enable()
        trainer.executor.shutdown()
        if undo is not None:
            undo()
    return Measured(
        wall_s=wall_s,
        result=result,
        trainer=trainer,
        clock=clock,
        higher_is_better=built.higher_is_better,
        samples_per_step=spec.n_workers * built.batch_size,
        tracer=tracer,
        trace_path=trace_path,
        ckpt_path=ckpt_path,
    )


# -- output checks -----------------------------------------------------------
def check_outputs(spec: Spec, m: Measured) -> List[str]:
    """Everything that must hold of a finished run; returns the failures."""
    bad: List[str] = []
    log = m.result.log
    n_done, budget = log.n_steps, m.clock.sim_steps
    if [r.step for r in log.iterations] != list(range(n_done)):
        bad.append("RunLog steps are not 0..n-1")
    timed = m.clock.deadline_s is not None
    if n_done % spec.block or (n_done < budget if timed else n_done != budget):
        bad.append(f"RunLog has {n_done} steps, budget was {budget}")
    if len(log.evals) != n_done // spec.block:
        bad.append(f"{len(log.evals)} evals for {n_done // spec.block} blocks")
    if not all(math.isfinite(e.metric) for e in log.evals):
        bad.append("non-finite eval metric")
    if spec.method == "bsp":
        ref = m.trainer.workers[0].get_params(copy=False)
        if not all(
            np.array_equal(ref, w.get_params(copy=False)) for w in m.trainer.workers[1:]
        ):
            bad.append("BSP replicas are not bit-identical")
    if spec.observed:
        bad.extend(_check_observed(m, n_done))
    return bad


def _check_observed(m: Measured, n_done: int) -> List[str]:
    """The ROADMAP ledger invariant (trace bytes == metrics ==
    ``bytes_synced``) and that the run's two artifacts read back."""
    bad: List[str] = []
    _, events = read_trace(m.trace_path)
    if len(events) != len(m.tracer.events):
        bad.append("trace file does not hold every emitted event")
    trace_bytes = sum(
        float(e.data.get("bytes", 0.0)) for e in events if e.etype == "collective"
    )
    counted = m.tracer.metrics.get("comm.bytes") or 0.0
    synced = float(m.trainer.group.bytes_synced)
    if not trace_bytes == counted == synced:
        bad.append(
            f"byte ledgers disagree: trace {trace_bytes}, metrics {counted}, "
            f"bytes_synced {synced}"
        )
    ck = load_checkpoint(m.ckpt_path)
    if int(ck["step"]) != n_done:
        bad.append(f"last checkpoint is at step {ck['step']}, expected {n_done}")
    return bad


def same_prefix(a: List[Dict], b: List[Dict], n: int) -> bool:
    """Do two same-seed runs (as :meth:`Measured.records`) agree
    bit-for-bit on their first ``n`` steps?"""

    def head(records):
        return [r for r in records if r.get("step", -1) < n]

    return head(a) == head(b)


# -- end-to-end metrics --------------------------------------------------------
def time_to_target(spec: Spec, m: Measured) -> Optional[float]:
    """Sim seconds at which the eval curve first meets ``spec.target``,
    interpolated linearly between the two evals around the crossing (evals
    come once a block, which alone would quantise the answer to blocks)."""
    prev = None
    for e in m.sim_evals:
        met = e.metric >= spec.target if m.higher_is_better else e.metric <= spec.target
        if met:
            if prev is None or prev.metric == e.metric:
                return e.sim_time
            f = (spec.target - prev.metric) / (e.metric - prev.metric)
            return prev.sim_time + f * (e.sim_time - prev.sim_time)
        prev = e
    return None


def final_quality(m: Measured) -> float:
    """Last eval as a score in (0, 1], higher better: top-1 for the
    classifiers, 1/perplexity (the geometric-mean probability given to the
    right token) for the language model."""
    metric = m.sim_evals[-1].metric
    return metric if m.higher_is_better else 1.0 / metric


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def failed_ops(m: Measured, reached: bool) -> int:
    log = m.result.log
    return (
        sum(not math.isfinite(r.loss) for r in log.iterations)
        + sum(not math.isfinite(e.metric) for e in log.evals)
        + (0 if reached else 1)
    )


def end_to_end(spec: Spec, m: Measured, setup_s: float, rss_mb: float) -> Dict[str, float]:
    reached = time_to_target(spec, m)
    values = {
        "step_cost_ref": m.cost,
        "peak_rss_mb": rss_mb,
        "sim_time_s": m.sim_time,
        # Never reached: report the whole budget (a lower bound); the run
        # also counts one failed operation, so it cannot pass as a gain.
        "sim_time_to_target_s": m.sim_time if reached is None else reached,
        "bytes_synced_gb": m.clock.sim_bytes / 1e9,
        "final_quality": final_quality(m),
        "setup_s": setup_s,
    }
    return {e.name: float(values[e.name]) for e in END_TO_END}


# -- per-layer metrics ---------------------------------------------------------
def per_layer(
    rec: SpanRecorder,
    traced: Measured,
    untraced: Measured,
    import_s: float,
) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric from the traced run's spans and counters.

    ``*_ms`` is self time in ms per training step of the traced run (evals
    and checkpoints included, as in a timed block) unless the suffix says
    otherwise; ``nn.forward_ms``/``nn.backward_ms`` alone include children.
    Host-side values cover every step that ran; sim-side ones (bytes, sim
    seconds, LSSR, flags, fault records) the fixed ``sim_steps`` budget.
    """
    log = traced.result.log
    steps, sim_steps = log.n_steps, traced.clock.sim_steps
    sim_comm = sum(r.comm_time for r in traced.sim_iterations)
    group = traced.trainer.group
    self_s, total_s, calls = rec.self_s, rec.total_s, rec.calls
    all_self = sum(self_s.values()) - self_s["host.monitor"]

    def ms(name: str) -> float:
        return self_s[name] / steps * 1e3

    def ms_per(name: str, n: int) -> float:
        return self_s[name] / n * 1e3 if n else 0.0

    def share(*prefixes: str) -> float:
        return 100.0 * sum(rec.self_sum(p) for p in prefixes) / all_self

    v: Dict[str, float] = {
        "nn.forward_ms": total_s["nn.forward"] / steps * 1e3,
        "nn.backward_ms": total_s["nn.backward"] / steps * 1e3,
        "nn.loss_ms": ms("nn.loss"),
        "nn.container_ms": ms("nn.forward") + ms("nn.backward"),
        "nn.calls": rec.calls_sum("nn.") / steps,
        "nn.share": share("nn."),
        "optim.step_ms": ms("optim.step"),
        "optim.calls": calls["optim.step"] / steps,
        "data.next_batch_ms": ms("data.next_batch"),
        "data.calls": calls["data.next_batch"] / steps,
        "cluster.executor.dispatch_ms": ms("cluster.executor.dispatch"),
        "cluster.server.aggregate_ms_per_sync": ms_per(
            "cluster.server.aggregate", calls["cluster.server.aggregate"]
        ),
        "cluster.server.calls": calls["cluster.server.aggregate"],
        "core.robust.aggregate_ms_per_sync": ms_per(
            "core.robust.aggregate", log.n_synced
        ),
        "comm.collectives.calls_per_step": rec.calls_sum("comm.collectives.") / steps,
        "comm.collectives.sim_comm_s_per_step": sim_comm / sim_steps,
        "comm.collectives.sim_comm_share": 100.0 * sim_comm / traced.sim_time,
        "comm.collectives.bytes_per_step": traced.clock.sim_bytes / sim_steps / 1e6,
        "core.grad_tracker.update_ms": ms("core.grad_tracker.update"),
        "core.selsync.lssr": traced.lssr,
        "core.selsync.flags_per_step": sum(
            r.extra.get("n_flags", 0.0) for r in traced.sim_iterations
        ) / sim_steps,
        "core.trainer.step_self_ms": ms("core.trainer.step"),
        "core.trainer.run_loop_self_ms": ms("core.trainer.run_loop"),
        "core.trainer.evaluate_ms_per_eval": ms_per(
            "core.trainer.evaluate", calls["core.trainer.evaluate"]
        ),
        "core.trainer.write_checkpoint_ms_per_ckpt": ms_per(
            "core.trainer.write_checkpoint", calls["core.trainer.write_checkpoint"]
        ),
        "cluster.faults.begin_step_ms": ms("cluster.faults.begin_step"),
        "cluster.faults.records": sum(f.step < sim_steps for f in log.faults),
        "cluster.health.observe_ms": ms("cluster.health.observe"),
        "cluster.health.quarantines": sum(
            f.step < sim_steps for f in log.faults_of_kind("quarantine")
        ),
        "comm.envelope.send_ms": ms("comm.envelope.send"),
        "comm.envelope.retries": group.envelope.n_retries / steps if group.envelope else 0,
        "comm.envelope.lost": group.envelope.n_exhausted / steps if group.envelope else 0,
        "obs.emit_ms": ms("obs.emit"),
        "obs.events_per_step": calls["obs.emit"] / steps,
        "obs.close_ms_total": total_s["obs.close"] * 1e3,
        "obs.trace_bytes": _size_mb(traced.trace_path),
        "utils.serialization.save_checkpoint_ms_per_ckpt": ms_per(
            "utils.serialization.save_checkpoint",
            calls["utils.serialization.save_checkpoint"],
        ),
        "utils.serialization.checkpoint_bytes": _size_mb(traced.ckpt_path),
        "utils.serialization.stall_share": 100.0
        * total_s["core.trainer.write_checkpoint"]
        / rec.root_total_s(),
        "host.control_plane_share": share(
            "obs.", "utils.serialization.", "cluster.faults.", "comm.envelope."
        ),
        "host.ref_kernel_ms": float(
            np.median(untraced.clock.ref_s[: untraced.result.steps + 1])
        ) * 1e3,
        "host.warmup_block_ratio": untraced.all_costs[0] / untraced.cost,
        "host.import_s": import_s,
        "host.span_overhead": traced.cost / untraced.cost,
        "host.untraced_share": 100.0 * (traced.wall_s - rec.root_total_s()) / traced.wall_s,
    }
    for kind in NN_KINDS:
        v[f"nn.{kind}_ms"] = ms(f"nn.{kind}.fwd") + ms(f"nn.{kind}.bwd")
    for attr in ("compute_gradient", "local_step", "apply_gradient", "set_params"):
        v[f"cluster.worker.{attr}_ms"] = ms(f"cluster.worker.{attr}")
    for op in ("allreduce", "charge_sync", "allgather"):
        v[f"comm.collectives.{op}_ms"] = ms(f"comm.collectives.{op}")
    for attr in (
        "begin_faults",
        "screen_updates",
        "upload_penalty",
        "apply_corruption",
        "wire_updates",
    ):
        v[f"core.trainer.{attr}_ms"] = ms(f"core.trainer.{attr}")
    v.update(host_rates(untraced))
    return {p.name: float(v[p.name]) for p in PER_LAYER}


def host_rates(m: Measured) -> Dict[str, float]:
    """Raw host-clock readings of an untraced run. They drift with the host
    by more than a tenth, which is why no bound hangs on them."""
    steps = m.result.steps
    step_ms = m.clock.step_seconds(steps) * 1e3
    rate = steps / m.wall_s
    return {
        "host.step_ms_p50": float(np.percentile(step_ms, 50)),
        "host.step_ms_p95": float(np.percentile(step_ms, 95)),
        "host.steps_per_s": rate,
        "host.samples_per_s": rate * m.samples_per_step,
    }


def _size_mb(path: Optional[Path]) -> float:
    return path.stat().st_size / 1e6 if path is not None and path.exists() else 0.0


def layer_shares(rec: SpanRecorder) -> Dict[str, float]:
    """Self-time share (%) of the traced run per layer (module name)."""
    groups: Dict[str, float] = {}
    for name, s in rec.self_s.items():
        if name == "host.monitor":
            continue
        parts = name.split(".")
        layer = parts[0] if parts[0] in ("nn", "optim", "data", "obs") else ".".join(parts[:2])
        groups[layer] = groups.get(layer, 0.0) + s
    total = sum(groups.values())
    return {k: 100.0 * s / total for k, s in sorted(groups.items())}


# -- set-up time ------------------------------------------------------------------
#: Set-ups timed per run, half before the timed run and half after it.
SETUP_SAMPLES = 30


def sample_setups(spec: Spec, seed: int, seconds: float, n: int) -> List[Tuple[float, float]]:
    """Build ``spec`` ``n`` times. Per build: (its wall seconds, the same in
    seconds *at the reference host speed*).

    The second is the wall time over the mean of the set-up reference
    (``refkernel.setup_ref_s``) timed twice just before and twice just after
    the build, times the reference's fixed nominal time. This host switches
    between two speeds a third apart and stays in one for minutes, so raw
    set-up seconds from two sets of runs of the same code differ by more
    than any bound allows; the ratio does not.
    """
    out = []
    max_steps = spec.max_steps(seconds)
    for _ in range(n):
        ref = setup_ref_s() + setup_ref_s()
        t0 = time.perf_counter()
        spec.build(seed, max_steps)
        wall = time.perf_counter() - t0
        ref = (ref + setup_ref_s() + setup_ref_s()) / 4.0
        out.append((wall, wall / ref * SETUP_REF_NOMINAL_S))
    return out


# -- the two kinds of run ------------------------------------------------------
def run_untraced(spec: Spec, seed: int, seconds: float, tmp: Path) -> Dict:
    """The end-to-end run (``--trace 0``).

    First one discarded block on a build of its own, which warms the process
    (BLAS, allocator, page cache) and doubles as the same-seed repeat check:
    the timed run must reproduce its records bit for bit. Then half of the
    ``SETUP_SAMPLES`` set-ups, the timed run, and the other half; ``setup_s``
    is the median over all of them (one set-up alone scatters by a fifth).
    """
    warm = measure(spec, seed, seconds, tmp, sim_steps=spec.block)
    warm_records = warm.records()
    del warm
    setups = sample_setups(spec, seed, seconds, SETUP_SAMPLES // 2)
    m = measure(spec, seed, seconds, tmp, deadline_s=seconds)
    rss_mb = peak_rss_mb()  # before the second half of the set-ups can add to it
    setups += sample_setups(spec, seed, seconds, SETUP_SAMPLES // 2)
    setup_wall_s, setup_s = (list(column) for column in zip(*setups))

    failures = check_outputs(spec, m)
    if not same_prefix(warm_records, m.records(), spec.block):
        failures.append("same seed did not reproduce the first block's records")
    # A target never reached is a failed operation, not a wrong output:
    # a budget much shorter than the default cannot get there.
    reached = time_to_target(spec, m) is not None
    n_done = m.result.steps
    return {
        "sim_steps": m.clock.sim_steps,
        "n_steps": n_done,
        "timed_blocks": len(m.costs),
        "metrics": end_to_end(spec, m, statistics.median(setup_s), rss_mb),
        "samples": {
            "step_cost_ref": m.costs,
            "setup_s": setup_s,
            "setup_wall_s": setup_wall_s,
            "block_step_ms": list(m.clock.block_step_seconds(n_done)[1:] * 1e3),
            "block_ref_ms": list(m.clock.block_ref_seconds(n_done)[1:] * 1e3),
        },
        "info": {
            **host_rates(m),
            "host.setup_wall_s": statistics.median(setup_wall_s),
            "core.selsync.lssr": m.lssr,
            "evals": [[e.step + 1, e.metric, e.sim_time] for e in m.sim_evals],
        },
        "run_digest": m.digest(),
        "attempted": n_done + len(m.result.log.evals),
        "failed": failed_ops(m, reached),
        "failures": failures,
    }


def run_traced(
    spec: Spec, seed: int, seconds: float, tmp: Path, import_s: float, spans_path: Path
) -> Dict:
    """The per-layer run (``--trace 1``): half the time untraced, then the
    same steps again under spans. Both read their sim side at half the sim
    budget: equal digests there prove the wrappers changed nothing, and the
    ratio of the two block costs is the tracing overhead."""
    blocks = spec.sim_steps(seconds) // spec.block
    half = max(2, (blocks + 1) // 2) * spec.block
    plain = measure(spec, seed, seconds, tmp, sim_steps=half, deadline_s=seconds / 2)
    rec = SpanRecorder()
    traced = measure(
        spec, seed, seconds, tmp, sim_steps=half, deadline_s=seconds / 2, rec=rec
    )

    failures = check_outputs(spec, traced)
    if traced.digest() != plain.digest():
        failures.append("the run under spans diverged from the untraced run")
    metrics = per_layer(rec, traced, plain, import_s)
    if abs(metrics["host.untraced_share"]) > 5.0:
        failures.append("span accounting does not close within 5 %")
    rec.write(spans_path)
    n_done = traced.result.steps
    return {
        "sim_steps": half,
        "n_steps": n_done,
        "timed_blocks": len(traced.costs),
        "metrics": metrics,
        "layer_share": layer_shares(rec),
        "run_digest": traced.digest(),
        "attempted": n_done + len(traced.result.log.evals),
        "failed": failed_ops(traced, True),
        "failures": failures,
    }
