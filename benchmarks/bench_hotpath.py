"""Hot-path benchmark on SmallVGG/CIFAR100 with 8 workers: flat-storage
micro-timings, robust-aggregator overhead, the shard and elastic sweeps of
the timing model, and executor scaling.

Methodology: the host's clock frequency drifts in slow waves, so absolute
timings from different moments are not comparable. Instead the two sides of
every comparison are *interleaved* (a, b, a, b, ...) and the reported ratio
is the **median of pairwise ratios** of adjacent trials — adjacent pairs see
the same host speed, so the drift cancels. Run as a script (optionally with
``--quick``) to write ``BENCH_hotpath.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--quick]

The same invocation also runs the **executor-scaling sweep** and writes
``BENCH_executor.json``: serial vs every other backend in
``EXECUTOR_KINDS`` with the same interleaved pairwise methodology, the host
core count, and a serial-vs-process RunLog byte-identity check — the only
live serial SmallVGG/8w steps/s figure. Process speedups only mean anything
on a multi-core host — ``cpu_count`` is recorded so downstream assertions
can gate on it. The file's ``history`` list is carried over untouched: it
holds the sweeps of backends that no longer exist (the thread pool, 0.95×
on 1 core and 0.75× on 2).

The ``pr: 1`` row at the head of ``BENCH_hotpath.json["history"]`` is frozen
data — PR 1's arena path against the seed's copying path, which no longer
exists in the tree. Any comparison against older code goes through
``--baseline-src``.

``--baseline-src DIR --pr N`` instead runs only one **cross-commit trial**
and **appends** its row to ``BENCH_hotpath.json["history"]`` — the
trajectory across PRs that the snapshot sections above do not keep. One
child process imports ``repro`` from ``DIR`` (a checkout of the commit to
compare against, e.g. ``git clone . /tmp/parent`` then ``/tmp/parent/src``),
another from this checkout; both stay alive and take turns. ``--trial``
picks what they measure:

* ``transformer_4w_selsync`` (default) — TinyTransformer/4w SelSync, the e2e
  benchmark's ``xfmr4_selsync`` recipe: warm-up steps and one evaluation,
  then alternating blocks of steps; the row holds before/after steps/s,
  pairwise ratios and per-call GELU / Linear micro-timings.
* ``vgg_8w_bsp`` — SmallVGG/8w BSP (this file's own workload): alternating
  blocks of steps, then one evaluation; the row holds before/after steps/s,
  pairwise ratios and each side's peak RSS.
* ``checkpoint_io`` — the e2e benchmark's ``mlp16_chaos_traced`` recipe
  (MLP/16w SelSync under faults, a checkpoint every 50 steps) run to 250
  and on to 750 steps: per checkpoint ``write_ms`` (all of
  ``_write_checkpoint``, the step path's share), ``publish_ms`` (the atomic
  rename onto the previous file, on whichever thread runs it: inside
  ``write_ms`` for a tree that renames on the step path, on the publisher
  thread otherwise), ``settle_ms`` (the part of ``write_ms`` spent waiting
  for the previous publish; 0 on a tree without one), ``log_encode_ms``
  (what is left of ``write_ms`` without ``state_dict()``, the ``np.savez*``
  container write, the settle and a rename on the step path: the run-log
  encode, plus ~2 ms for the state tree), ``read_ms``
  (``load_checkpoint``), the file's ``bytes`` and the process's ``rss_mb``
  afterwards; the row's ``third_write_rss_mb`` is each side's resident set
  just before and just after the run's third write (two earlier
  generations are what a retained tree would still hold).
* ``robust_aggregate`` — ``Aggregator.reduce`` ms per call for
  ``trimmed_mean`` (f = 2) and ``median`` at the (k, D) shapes of the
  ``mlp16_chaos_traced`` shards (the 768×128 weight at 13 and 16 pushers, the
  128×100 weight, a bias): one row per cell with before/after medians,
  pairwise speedups and ``bytes_equal`` (both sides reduced the same seeded
  vectors to the same bytes).
* ``conv_kernel`` — ``Conv2d.forward`` and forward + backward ms per call at
  batch 32 for the stride-1 shapes of the model zoo (``CONV_CELLS``), each
  with its largest deviation from an einsum reference, then whole-model
  forward + backward of the three conv models: one row with ``cells`` and
  ``models``, before/after medians and pairwise speedups.
* ``pool_kernel`` — the 2x2 ``MaxPool2d``'s forward and forward + backward
  ms per call on a conv-output view at SmallVGG's two pool shapes
  (``POOL_CELLS``), each with ``bytes_equal`` (both sides produced the same
  output and input-gradient bytes), then SmallVGG whole-model forward +
  backward: one row with ``cells`` and ``models``, same protocol.
* ``grad_write`` — ``zero_grad`` + forward + backward + the flat-gradient
  read, ms per replica, with ``GRAD_WRITE_REPLICAS`` replicas of a model taken
  in turn (so each replica's arenas are cold, as in a 16-worker step): the
  ``mlp16_chaos_traced`` MLP at b = 32 and TinyTransformer at the
  ``xfmr4_selsync`` shape; ``bytes_equal`` is on every replica's flat gradient.
* ``dataset_build`` — ms per ``build_dataset`` call of the e2e benchmark's
  three dataset recipes (``DATASET_CELLS``), then ms per
  ``build_worker_group`` of ``mlp16_chaos_traced``'s 16 MLP replicas: one row
  per cell with before/after medians, pairwise speedups and ``bytes_equal``
  (the datasets' bytes; the replicas' initial parameters and first gradient).
* ``trace_write`` — the emit calls of a 400-step ``mlp16_chaos_traced`` run
  replayed into a path-backed ``Tracer`` and closed: µs per event for emit +
  encode + write, ``bytes_equal`` on the trace file, and ``tracemalloc`` bytes
  the tracer holds after 100 and after 400 steps (before ``close``).
* ``activation_memory`` — the e2e benchmark's ``xfmr4_selsync`` and
  ``mlp16_chaos_traced`` recipes run one block, then one evaluation, under
  ``tracemalloc``: bytes held afterwards (the whole process, and split into
  arrays the replicas' modules keep and pooled workspaces), the traced peak
  during the evaluation, the bytes one replica's training forward keeps for
  its backward, the traced peak of one replica's training step in a fresh
  pool, the pool's batch sizes before and after the evaluation, and a sha256
  of every replica's parameters (``params_equal``:
  both sides trained to the same bytes). One run per side: the counts are
  deterministic.
* ``perplexity_eval`` — the ``xfmr4_selsync`` recipe in a fresh interpreter
  per side and turn (glibc's allocation thresholds follow the process's
  history): 20 steps (10 with ``--quick``), then 5 evaluations. Per side
  the medians of ms and minor page faults per evaluation, of the faults per
  step before the first evaluation, and of ``ru_maxrss``;
  ``perplexity_equal``: both sides evaluated to the same float in every turn.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.cluster.executor import EXECUTOR_KINDS
from repro.experiments.runner import MethodSpec, build_trainer
from repro.experiments.workloads import get_workload
from repro.utils.flatten import flatten_arrays, mean_into

ROOT = Path(__file__).resolve().parent.parent


def make_built(
    executor: str = "serial",
    n_workers: int = 8,
    cluster_extra: dict | None = None,
):
    wl = get_workload("vgg_cifar100")
    kw = {"executor": executor}
    if cluster_extra:
        kw.update(cluster_extra)
    return wl.build(
        n_workers=n_workers,
        n_steps=1000,
        data_scale=0.25,
        seed=0,
        cluster_kwargs=kw,
    )


def make_trainer(method: str, *built_args, **built_kw):
    return build_trainer(MethodSpec(method, {}), make_built(*built_args, **built_kw))


def time_steps(trainer, start: int, n: int) -> float:
    """Steps/sec over n consecutive trainer steps (wall clock)."""
    t0 = time.perf_counter()
    for i in range(start, start + n):
        trainer.step(i)
    return n / (time.perf_counter() - t0)


def executor_trial(method: str, kind: str, trials: int, steps: int):
    """Interleaved serial-vs-``kind`` trials; trials alternate so adjacent
    pairs share the host's momentary speed."""
    tr_ser = make_trainer(method, "serial")
    tr_other = make_trainer(method, kind)
    gc.disable()
    try:
        for i in range(3):  # warmup: forks the pool, builds workspaces
            tr_ser.step(i)
            tr_other.step(i)
        ser_rates, other_rates = [], []
        ser_i = other_i = 3
        for _ in range(trials):
            ser_rates.append(time_steps(tr_ser, ser_i, steps))
            ser_i += steps
            other_rates.append(time_steps(tr_other, other_i, steps))
            other_i += steps
    finally:
        gc.enable()
        tr_other.executor.shutdown()
        tr_ser.executor.shutdown()
    ratios = [o / s for s, o in zip(ser_rates, other_rates)]
    return {
        "serial_steps_per_sec": round(statistics.median(ser_rates), 3),
        f"{kind}_steps_per_sec": round(statistics.median(other_rates), 3),
        "pairwise_ratios": [round(r, 3) for r in ratios],
        "speedup_median_pairwise": round(statistics.median(ratios), 3),
    }


def aggregator_trial(agg: str, trials: int, steps: int, method: str = "bsp"):
    """Interleaved mean-vs-robust-aggregator trials on SmallVGG/8w.

    BSP aggregates every step, so it is the worst case for per-sync
    aggregator overhead. ``overhead_median_pairwise`` is the median of
    pairwise (adjacent) mean-rate / robust-rate ratios: 1.0 means free,
    1.15 means the robust reduction costs 15% of end-to-end step time.
    """
    tr_mean = make_trainer(method, "serial")
    tr_robust = make_trainer(
        method, "serial", cluster_extra={"aggregator": agg, "trim_f": 2}
    )
    gc.disable()
    try:
        for i in range(3):
            tr_mean.step(i)
            tr_robust.step(i)
        mean_rates, robust_rates = [], []
        mean_i = robust_i = 3
        for _ in range(trials):
            mean_rates.append(time_steps(tr_mean, mean_i, steps))
            mean_i += steps
            robust_rates.append(time_steps(tr_robust, robust_i, steps))
            robust_i += steps
    finally:
        gc.enable()
        tr_robust.executor.shutdown()
        tr_mean.executor.shutdown()
    ratios = [m / r for m, r in zip(mean_rates, robust_rates)]
    return {
        "mean_steps_per_sec": round(statistics.median(mean_rates), 3),
        f"{agg}_steps_per_sec": round(statistics.median(robust_rates), 3),
        "pairwise_ratios": [round(r, 3) for r in ratios],
        "overhead_median_pairwise": round(statistics.median(ratios), 3),
    }


def aggregator_sweep(trials: int, steps: int):
    out = {}
    for agg in ("median", "trimmed_mean", "norm_clip", "multi_krum"):
        out[agg] = aggregator_trial(agg, trials, steps)
        print(f"aggregator/{agg}: {out[agg]}")
    return out


def runlog_byte_identity(method: str = "bsp", n_steps: int = 6) -> bool:
    """Serial and process backends must write byte-identical RunLogs."""
    from repro.core import TrainConfig
    from repro.utils.serialization import save_runlog

    blobs = {}
    for kind in ("serial", "process"):
        trainer = make_trainer(method, kind)
        try:
            res = trainer.run(TrainConfig(n_steps=n_steps, eval_every=n_steps))
        finally:
            trainer.executor.shutdown()
        with tempfile.NamedTemporaryFile(suffix=".jsonl") as f:
            save_runlog(res.log, f.name)
            blobs[kind] = Path(f.name).read_bytes()
    return blobs["serial"] == blobs["process"]


def executor_sweep(trials: int, steps: int, quick: bool):
    results = {
        "workload": "vgg_cifar100 (SmallVGG), 8 workers, data_scale=0.25",
        "methodology": (
            "interleaved serial/backend trials; "
            "speedup = median of pairwise (adjacent) steps-per-sec ratios"
        ),
        "cpu_count": os.cpu_count(),
        "quick": quick,
        "runlog_byte_identical": runlog_byte_identity(),
        "methods": {},
    }
    for method in ("bsp", "selsync"):
        results["methods"][method] = {}
        for kind in EXECUTOR_KINDS[1:]:  # every backend but the serial reference
            results["methods"][method][kind] = executor_trial(
                method, kind, trials, steps
            )
            print(f"{method}/{kind}: {results['methods'][method][kind]}")
    return results


def shard_sweep(n_steps: int, shard_counts=(1, 2, 4, 8), method: str = "bsp"):
    """Modelled sync-time sweep over parameter-server shard counts.

    Sharding is a *timing-model* statement — shards are served by parallel
    PS ingress links, so the sync round costs the slowest shard, not the
    sum — while the arithmetic is bitwise shard-count-invariant. Both
    halves are checked here: modelled comm time must shrink (S=4 at least
    1.5x faster than unsharded on SmallVGG, whose largest tensor holds
    ~60% of the bytes) and the final global params must be identical to
    the unsharded run. Modelled time is deterministic, so the assertion
    cannot flake with host speed.
    """
    from repro.core import TrainConfig

    out = {
        "workload": "vgg_cifar100 (SmallVGG), 8 workers, data_scale=0.25",
        "method": method,
        "n_steps": n_steps,
        "metric": "modelled (simulated) communication seconds, whole run",
        "per_shard": {},
    }
    ref_params = ref_comm = None
    identical = True
    for s in shard_counts:
        trainer = make_trainer(method, "serial", cluster_extra={"ps_shards": s})
        try:
            res = trainer.run(TrainConfig(n_steps=n_steps, eval_every=n_steps))
        finally:
            trainer.executor.shutdown()
        comm = sum(r.comm_time for r in res.log.iterations)
        params = trainer.server.pull().tobytes()
        if ref_params is None:
            ref_params, ref_comm = params, comm
        identical = identical and params == ref_params
        out["per_shard"][str(s)] = {
            "comm_time_s": round(comm, 6),
            "sim_time_s": round(res.log.total_sim_time, 6),
            "speedup_vs_unsharded": round(ref_comm / comm, 3),
        }
    out["params_bitwise_identical"] = identical
    assert identical, "sharding changed the arithmetic (params differ)"
    s4 = out["per_shard"]["4"]["speedup_vs_unsharded"]
    assert s4 >= 1.5, f"S=4 sync speedup {s4} < 1.5x on SmallVGG/8w {method}"
    return out


def elastic_sweep(n_steps: int, method: str = "selsync"):
    """Modelled goodput: fixed 8 workers vs the comm-fraction autoscaler.

    Both runs share the workload and step budget; the elastic run starts
    at 8 workers with ``scale:4..12`` bounds and lets the ``comm`` policy
    walk the world size. Goodput (samples per simulated second) and
    worker-seconds (the cost side) are deterministic quantities of the
    timing model, so the comparison cannot flake with host speed. The
    report includes provisioning charges (boot + model pull per join), so
    a policy that churns membership pays for it in the goodput column.
    """
    from repro.core import TrainConfig

    out = {
        "workload": "vgg_cifar100 (SmallVGG), data_scale=0.25",
        "method": method,
        "n_steps": n_steps,
        "metric": "modelled (simulated) goodput and worker-seconds",
        "runs": {},
    }
    for label, extra in (
        ("fixed8", {}),
        ("elastic", {"elastic_spec": "scale:4..12", "scale_policy": "comm"}),
    ):
        trainer = make_trainer(method, "serial", n_workers=8, cluster_extra=extra)
        try:
            res = trainer.run(TrainConfig(n_steps=n_steps, eval_every=n_steps))
        finally:
            trainer.executor.shutdown()
        batch = trainer.workers[0].loader.batch_size
        sim = res.log.total_sim_time
        if trainer.elastic is not None:
            sig = trainer.elastic.signals()
            samples = sig["elastic.samples"]
            worker_s = sig["elastic.worker_seconds"]
        else:
            samples = float(n_steps * 8 * batch)
            worker_s = 8.0 * sim
        out["runs"][label] = {
            "final_world_size": len(trainer.workers),
            "sim_time_s": round(sim, 6),
            "samples": samples,
            "goodput_samples_per_sim_s": round(samples / sim, 3),
            "worker_seconds": round(worker_s, 6),
            "cost_efficiency_samples_per_worker_s": round(samples / worker_s, 3),
        }
    fixed = out["runs"]["fixed8"]
    el = out["runs"]["elastic"]
    assert el["goodput_samples_per_sim_s"] > 0.0
    out["goodput_ratio_elastic_vs_fixed"] = round(
        el["goodput_samples_per_sim_s"] / fixed["goodput_samples_per_sim_s"], 3
    )
    out["cost_efficiency_ratio_elastic_vs_fixed"] = round(
        el["cost_efficiency_samples_per_worker_s"]
        / fixed["cost_efficiency_samples_per_worker_s"],
        3,
    )
    return out


def micro_flat_ops(n_params: int = 200_000, n_workers: int = 8, reps: int = 50):
    """Microbenchmark: flatten + aggregate, copying idiom vs arena idiom."""
    rng = np.random.default_rng(0)
    chunks = [rng.normal(size=s) for s in (64, 256, 1024, 4096, n_params)]
    vectors = [rng.normal(size=n_params) for _ in range(n_workers)]
    out = np.empty(n_params)

    t0 = time.perf_counter()
    for _ in range(reps):
        flatten_arrays(chunks)
    t_concat = (time.perf_counter() - t0) / reps

    flat = np.concatenate([c.ravel() for c in chunks])
    t0 = time.perf_counter()
    for _ in range(reps):
        flat.view()  # O(1) arena view
    t_view = (time.perf_counter() - t0) / reps

    t0 = time.perf_counter()
    for _ in range(reps):
        np.mean(np.stack(vectors), axis=0)
    t_stack = (time.perf_counter() - t0) / reps

    t0 = time.perf_counter()
    for _ in range(reps):
        mean_into(vectors, out=out)
    t_inplace = (time.perf_counter() - t0) / reps

    return {
        "n_params": n_params,
        "n_workers": n_workers,
        "flatten_concat_us": round(t_concat * 1e6, 2),
        "flatten_view_us": round(t_view * 1e6, 2),
        "aggregate_stack_us": round(t_stack * 1e6, 2),
        "aggregate_inplace_us": round(t_inplace * 1e6, 2),
    }


def _median_us(fn, reps: int = 300) -> float:
    fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return round(statistics.median(samples) * 1e6, 2)


def transformer_child(steps: int) -> None:
    """One side of :func:`transformer_trial`: print the layer micro-timings,
    then time ``steps`` trainer steps for every line read from stdin. One
    evaluation follows the warm-up steps, so the timed steps run in the
    post-evaluation state that ``benchmarks/e2e`` times."""
    from repro.core import TrainConfig
    from repro.nn.layers import GELU, Linear

    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 16, 32))  # (B, T, D) of transformer_wikitext
    h = rng.normal(size=(20, 16, 64))
    act, fc = GELU(), Linear(32, 64, rng=0)
    micro = {
        "gelu_fwd_bwd_us": _median_us(lambda: (act.forward(h), act.backward(h))),
        "linear_fwd_bwd_us": _median_us(lambda: (fc.forward(x), fc.backward(h))),
    }
    built = get_workload("transformer_wikitext").build(
        n_workers=4, n_steps=1000, seed=0, cluster_kwargs={"executor": "serial"}
    )
    spec = MethodSpec("selsync", {"delta": 0.1, "aggregation": "params"})
    trainer = build_trainer(spec, built)
    for i in range(5):
        trainer.step(i)
    trainer.evaluate(TrainConfig(n_steps=1000, eval_fn=built.eval_fn))
    print(json.dumps(micro), flush=True)
    i = 5
    gc.disable()
    for _ in sys.stdin:
        print(time_steps(trainer, i, steps), flush=True)
        i += steps


def _spawn_child(src, flag: str, value) -> subprocess.Popen:
    """One side of a cross-commit trial: this script under ``PYTHONPATH=src``."""
    # One BLAS thread unless the caller says otherwise, as in benchmarks/e2e:
    # the simulator models a cluster on one core, and OpenBLAS worker
    # wake-ups on this host cost more than these GEMMs.
    env = dict(
        os.environ,
        PYTHONPATH=str(src),
        OPENBLAS_NUM_THREADS=os.environ.get("OPENBLAS_NUM_THREADS", "1"),
    )
    return subprocess.Popen(
        [sys.executable, __file__, flag, str(value)],
        env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )


def _turn(child, message="go") -> str:
    """Let ``child`` do its next piece of work; its one-line answer."""
    child.stdin.write(f"{message}\n")
    child.stdin.flush()
    return child.stdout.readline()


def _finish(children) -> None:
    for c in children:
        c.stdin.close()
        c.wait(timeout=60)


def _rates_summary(rates) -> dict:
    """Before/after medians and pairwise ratios of ``[(before, after), ...]``
    steps/s readings taken in alternating turns."""
    before, after = zip(*rates)
    ratios = [a / b for b, a in rates]
    return {
        "before_steps_per_sec": round(statistics.median(before), 3),
        "after_steps_per_sec": round(statistics.median(after), 3),
        "pairwise_ratios": [round(r, 3) for r in ratios],
        "speedup_median_pairwise": round(statistics.median(ratios), 3),
    }


def transformer_trial(baseline_src: str, trials: int, steps: int):
    """Interleaved before/after trials across two checkouts of ``repro``.

    Same drift-cancelling method as :func:`executor_trial`, but the two sides
    are two commits, so each lives in its own child process (``PYTHONPATH`` set
    to its ``src``); the children are built and warmed first and then take
    turns, so adjacent blocks still share the host's momentary speed.
    """
    children = [
        _spawn_child(src, "--transformer-child", steps)
        for src in (baseline_src, ROOT / "src")
    ]
    try:
        micro = [json.loads(c.stdout.readline()) for c in children]
        rates = [[float(_turn(c)) for c in children] for _ in range(trials)]
    finally:
        _finish(children)
    return {
        "trial": "transformer_4w_selsync",
        "workload": "transformer_wikitext (TinyTransformer), 4 workers, SelSync delta=0.1 PA",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "1"),
        **_rates_summary(rates),
        "micro_before": micro[0],
        "micro_after": micro[1],
    }


def vgg_child(steps: int) -> None:
    """One side of :func:`vgg_trial`: time ``steps`` BSP steps on SmallVGG/8w
    for every ``go`` read from stdin; on ``rss`` run one evaluation (the
    largest batch shape a run sees) and print the process's peak RSS."""
    from repro.core import TrainConfig

    built = make_built()
    trainer = build_trainer(MethodSpec("bsp", {}), built)
    cfg = TrainConfig(n_steps=1000, eval_fn=built.eval_fn)
    for i in range(5):
        trainer.step(i)
    print("{}", flush=True)
    i = 5
    gc.disable()
    for line in sys.stdin:
        if line.strip() == "rss":
            trainer.evaluate(cfg)
            kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print(round(kib / 1024, 1), flush=True)
        else:
            print(time_steps(trainer, i, steps), flush=True)
            i += steps


def vgg_trial(baseline_src: str, trials: int, steps: int):
    """:func:`transformer_trial`'s protocol on SmallVGG/8w BSP, plus the
    peak RSS of each side's process after training and one evaluation."""
    children = [
        _spawn_child(src, "--vgg-child", steps)
        for src in (baseline_src, ROOT / "src")
    ]
    try:
        for c in children:
            c.stdout.readline()
        rates = [[float(_turn(c)) for c in children] for _ in range(trials)]
        rss = [float(_turn(c, "rss")) for c in children]
    finally:
        _finish(children)
    return {
        "trial": "vgg_8w_bsp",
        "workload": "vgg_cifar100 (SmallVGG), 8 workers, BSP, data_scale=0.25",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "1"),
        **_rates_summary(rates),
        "before_peak_rss_mb": rss[0],
        "after_peak_rss_mb": rss[1],
    }


def checkpoint_io_child(last_step: int) -> None:
    """One side of :func:`checkpoint_io_trial`: for every line read from
    stdin, train on to the next point and print what its checkpoints cost."""
    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    from workloads import BY_NAME  # read-only use of the benchmark's recipe

    from repro.core import TrainConfig
    from repro.utils.serialization import load_checkpoint

    spec = BY_NAME["mlp16_chaos_traced"]
    _, trainer = spec.build(seed=0, n_steps=last_step)
    from repro.utils import serialization

    # Per checkpoint, ms: "write" (all of _write_checkpoint) and its parts on
    # the step path — "settle" waits for the previous publish, "rename" is a
    # rename the training thread runs itself. "publish": every rename's ms.
    parts = ("state", "container", "settle", "rename")
    spans = {"write": [], **{name: [] for name in parts}}
    publish = []
    in_write = {}  # the parts of the write in flight

    def timed(fn, name):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ms = (time.perf_counter() - t0) * 1e3
                if name == "publish":
                    publish.append(ms)
                elif in_write and threading.current_thread() is threading.main_thread():
                    in_write[name] += ms

        return wrapper

    def rss_mb():
        with open("/proc/self/statm") as f:
            return round(int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20, 1)

    write_rss = []  # (before, after) of every write of the whole run
    write = trainer._write_checkpoint

    def timed_write(*args, **kwargs):
        before = rss_mb()
        in_write.update(dict.fromkeys(parts, 0.0))
        t0 = time.perf_counter()
        write(*args, **kwargs)
        spans["write"].append((time.perf_counter() - t0) * 1e3)
        for name in parts:
            spans[name].append(in_write.pop(name))
        write_rss.append((before, rss_mb()))

    trainer._write_checkpoint = timed_write
    trainer.state_dict = timed(trainer.state_dict, "state")
    np.savez = timed(np.savez, "container")
    np.savez_compressed = timed(np.savez_compressed, "container")
    Path.replace = timed(timed(Path.replace, "publish"), "rename")
    if hasattr(serialization, "settle_checkpoints"):  # a tree that publishes off the step path
        serialization.settle_checkpoints = timed(serialization.settle_checkpoints, "settle")

    def tail_median(values):
        return round(statistics.median(values[-3:]), 3)

    with tempfile.TemporaryDirectory() as tmp:
        ck = os.path.join(tmp, "ck.npz")
        resume = None
        for line in sys.stdin:
            for v in (*spans.values(), publish):
                v.clear()
            trainer.run(
                TrainConfig(
                    n_steps=int(line), checkpoint_every=spec.block,
                    checkpoint_path=ck, resume_from=resume,
                )
            )
            resume = ck
            reads = []
            for _ in range(3):
                t0 = time.perf_counter()
                load_checkpoint(ck)
                reads.append((time.perf_counter() - t0) * 1e3)
            rest = [w - sum(p) for w, *p in zip(*spans.values())]
            point = {
                "write_ms": tail_median(spans["write"]),
                "log_encode_ms": tail_median(rest),
                "settle_ms": tail_median(spans["settle"]),
                "publish_ms": tail_median(publish),
                "read_ms": tail_median(reads),
                "bytes": os.path.getsize(ck),
                "rss_mb": rss_mb(),
                "third_write_rss_mb": write_rss[2] if len(write_rss) > 2 else None,
            }
            print(json.dumps(point), flush=True)


def checkpoint_io_trial(baseline_src: str, points):
    """What one checkpoint costs at each of ``points`` steps, parent vs
    change. The two children take turns point by point; every ``*_ms`` is
    the median of the last three checkpoints (or loads) up to that point."""
    children = [
        _spawn_child(src, "--checkpoint-io-child", points[-1])
        for src in (baseline_src, ROOT / "src")
    ]
    before, after = {}, {}
    try:
        for n in points:
            for child, side in zip(children, (before, after)):
                side[str(n)] = json.loads(_turn(child, n))
    finally:
        _finish(children)
    third = [
        [p.pop("third_write_rss_mb") for p in side.values()][-1]
        for side in (before, after)
    ]
    return {
        "trial": "checkpoint_io",
        "workload": "mlp16_chaos_traced recipe (MLP 768-128-100, 16 workers, "
        "SelSync under faults), a checkpoint every 50 steps",
        "before": before,
        "after": after,
        "third_write_rss_mb": {"before": third[0], "after": third[1]},
    }


#: (k, D) of ``robust_aggregate``: what ``mlp16_chaos_traced``'s four PS shards
#: hand the aggregator — W1 with a degraded and a full round, W2, a bias.
ROBUST_CELLS = ((13, 98_304), (16, 98_304), (16, 12_800), (16, 128))


def robust_aggregate_child(reps: int) -> None:
    """One side of :func:`robust_aggregate_trial`: for every ``name k D``
    line read from stdin, time ``reduce`` on seeded vectors and print the
    median ms per call and a digest of the result."""
    from repro.core.robust import make_aggregator

    for line in sys.stdin:
        name, k, d = line.split()
        rng = np.random.default_rng(0)
        vectors = [rng.normal(size=int(d)) for _ in range(int(k))]
        out = np.empty(int(d))
        agg = make_aggregator(name, trim_f=2)
        us = _median_us(lambda: agg.reduce(vectors, out=out), reps)
        digest = hashlib.sha256(out.tobytes()).hexdigest()
        print(json.dumps({"ms": us / 1e3, "sha256": digest}), flush=True)


def robust_aggregate_trial(baseline_src: str, trials: int, reps: int):
    """Per-call cost of the coordinate-wise robust reductions, parent vs
    change: the two children take turns cell by cell, so adjacent readings
    share the host's momentary speed."""
    children = [
        _spawn_child(src, "--robust-aggregate-child", reps)
        for src in (baseline_src, ROOT / "src")
    ]
    cells = []
    try:
        for name in ("trimmed_mean", "median"):
            for k, d in ROBUST_CELLS:
                turns = [
                    [json.loads(_turn(c, f"{name} {k} {d}")) for c in children]
                    for _ in range(trials)
                ]
                speedups = [b["ms"] / a["ms"] for b, a in turns]
                cells.append({
                    "aggregator": name,
                    "k": k,
                    "D": d,
                    "before_ms": round(statistics.median(b["ms"] for b, _ in turns), 4),
                    "after_ms": round(statistics.median(a["ms"] for _, a in turns), 4),
                    "pairwise_speedups": [round(r, 3) for r in speedups],
                    "speedup_median_pairwise": round(statistics.median(speedups), 3),
                    "bytes_equal": all(b["sha256"] == a["sha256"] for b, a in turns),
                })
                print(f"robust_aggregate: {cells[-1]}")
    finally:
        _finish(children)
    return {
        "trial": "robust_aggregate",
        "workload": "Aggregator.reduce(vectors, out=...), trim_f=2, seeded "
        "normal vectors; ms per call, median of "
        f"{reps} calls per turn, {trials} alternating turns per cell",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "1"),
        "cells": cells,
    }


#: ``conv_kernel`` cells, batch 32: (C, O, H = W, k, pad, bias, skip dx) of the
#: four SmallVGG convolutions, SmallAlexNet's 5x5 stem and SmallResNet's
#: stage-1 block convolution.
CONV_CELLS = (
    (3, 8, 16, 3, 1, 1, 1), (8, 8, 16, 3, 1, 1, 0), (8, 16, 8, 3, 1, 1, 0),
    (16, 16, 8, 3, 1, 1, 0), (3, 12, 16, 5, 2, 1, 0), (8, 8, 16, 3, 1, 0, 0),
)
CONV_MODELS = ("smallvgg", "smallresnet", "smallalexnet")


def naive_conv(x, w, b, g, pad):
    """Stride-1 convolution and its gradients by einsum over explicit
    windows: ``(out, dw, db, dx)``, the reference the kernel is held to."""
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    out = np.einsum("nchwij,ocij->nohw", win, w) + b[None, :, None, None]
    dw = np.einsum("nohw,nchwij->ocij", g, win)
    dxp = np.zeros_like(xp)
    oh, ow = g.shape[2:]
    for i in range(k):
        for j in range(k):
            dxp[:, :, i : i + oh, j : j + ow] += np.einsum(
                "nohw,oc->nchw", g, w[:, :, i, j]
            )
    h, wd = x.shape[2:]
    return out, dw, g.sum(axis=(0, 2, 3)), dxp[:, :, pad : pad + h, pad : pad + wd]


def conv_kernel_child(reps: int) -> None:
    """One side of :func:`conv_kernel_trial`. A ``C O H k pad bias skip``
    line: median ms of ``Conv2d.forward`` and of forward + backward at batch
    32, and the largest deviation from :func:`naive_conv`. A model name:
    median ms of that model's forward + backward at batch 32."""
    from repro.nn.layers.conv import Conv2d
    from repro.nn.models import build_model

    rng = np.random.default_rng(0)
    for line in sys.stdin:
        if line.strip() in CONV_MODELS:
            model = build_model(line.strip(), rng=0)
            x = rng.normal(size=(32, 3, 16, 16))
            g = rng.normal(size=model.forward(x).shape)
            us = _median_us(lambda: (model.forward(x), model.backward(g)), reps)
            print(json.dumps({"fwd_bwd_ms": us / 1e3}), flush=True)
            continue
        c, o, h, k, pad, bias, skip = map(int, line.split())
        layer = Conv2d(c, o, k, padding=pad, bias=bool(bias), rng=0)
        layer.skip_input_grad = bool(skip)
        x = rng.normal(size=(32, c, h, h))
        g = rng.normal(size=layer.forward(x).shape)
        b = np.zeros(o)
        if bias:
            b = layer.bias.data
            b[...] = rng.normal(size=o)
        layer.zero_grad()
        out = np.array(layer.forward(x))
        dx = layer.backward(g)  # None on a layer that skips it
        got = (out, layer.weight.grad, layer.bias.grad if bias else None, dx)
        err = max(
            float(np.abs(a - r).max())
            for a, r in zip(got, naive_conv(x, layer.weight.data, b, g, pad))
            if a is not None
        )
        print(json.dumps({
            "fwd_ms": _median_us(lambda: layer.forward(x), reps) / 1e3,
            "fwd_bwd_ms": _median_us(
                lambda: (layer.forward(x), layer.backward(g)), reps
            ) / 1e3,
            "max_abs_err": err,
        }), flush=True)


def _cell_row(tag, children, trials, label, message, keys):
    """One cell of a per-call cross-commit trial: ``message`` sent to both
    children in ``trials`` alternating turns; before/after medians and the
    median pairwise speedup of every ``*_ms`` key in ``keys``, the worst
    ``max_abs_err`` per side, and whether the sides' ``sha256`` agree."""
    turns = [
        [json.loads(_turn(c, message)) for c in children] for _ in range(trials)
    ]
    row = dict(label)
    for key in keys:
        speedups = [b[key] / a[key] for b, a in turns]
        row["before_" + key] = round(statistics.median(b[key] for b, _ in turns), 4)
        row["after_" + key] = round(statistics.median(a[key] for _, a in turns), 4)
        row[key.replace("_ms", "") + "_speedup_median_pairwise"] = round(
            statistics.median(speedups), 3
        )
    if "max_abs_err" in turns[0][0]:
        row["before_max_abs_err"], row["after_max_abs_err"] = (
            max(t[side]["max_abs_err"] for t in turns) for side in (0, 1)
        )
    if "sha256" in turns[0][0]:
        row["bytes_equal"] = all(b["sha256"] == a["sha256"] for b, a in turns)
    print(f"{tag}: {row}")
    return row


def conv_kernel_trial(baseline_src: str, trials: int, reps: int):
    """Per-call cost of the stride-1 convolution kernel, parent vs change,
    cell by cell in alternating turns (as :func:`robust_aggregate_trial`),
    then whole-model forward + backward of the three conv models (the e2e
    benchmark runs only SmallVGG)."""
    children = [
        _spawn_child(src, "--conv-kernel-child", reps)
        for src in (baseline_src, ROOT / "src")
    ]
    try:
        cells = [
            _cell_row(
                "conv_kernel", children, trials,
                dict(zip(("C", "O", "HW", "k", "pad", "bias", "skip_dx"), shape)),
                " ".join(map(str, shape)), ("fwd_ms", "fwd_bwd_ms"),
            )
            for shape in CONV_CELLS
        ]
        models = [
            _cell_row("conv_kernel", children, trials, {"model": name}, name, ("fwd_bwd_ms",))
            for name in CONV_MODELS
        ]
    finally:
        _finish(children)
    return {
        "trial": "conv_kernel",
        "workload": "Conv2d.forward / forward + backward incl. the embed "
        "copies, batch 32, float64; ms per call, median of "
        f"{reps} calls per turn, {trials} alternating turns per cell; "
        "max_abs_err against an einsum reference (out, dW, db, dx)",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "1"),
        "cells": cells,
        "models": models,
    }


#: ``pool_kernel`` cells: SmallVGG's two pool inputs at batch 32, (N, C, H, W).
POOL_CELLS = ((32, 8, 16, 16), (32, 16, 8, 8))


def pool_kernel_child(reps: int) -> None:
    """One side of :func:`pool_kernel_trial`. An ``N C H W`` line: median ms
    of ``MaxPool2d(2).forward`` and of forward + backward on the strided
    output view of a same-padding conv (what the pool reads in SmallVGG),
    and a sha256 over the output and input-gradient bytes. ``smallvgg``:
    median ms of the model's forward + backward at batch 32 and a sha256
    over its logits and flat gradient."""
    from repro.nn.layers.conv import Conv2d
    from repro.nn.layers.pooling import MaxPool2d
    from repro.nn.models import build_model

    def sha256(*arrays):
        return hashlib.sha256(np.concatenate([np.ravel(a) for a in arrays])).hexdigest()

    rng = np.random.default_rng(0)
    for line in sys.stdin:
        if line.strip() == "smallvgg":
            model = build_model("smallvgg", rng=0)
            x = rng.normal(size=(32, 3, 16, 16))
            logits = np.array(model.forward(x))
            g = rng.normal(size=logits.shape)
            model.zero_grad()
            model.backward(g)
            print(json.dumps({
                "sha256": sha256(logits, model.get_flat_grads()),
                "fwd_bwd_ms": _median_us(
                    lambda: (model.forward(x), model.backward(g)), reps
                ) / 1e3,
            }), flush=True)
            continue
        n, c, h, w = map(int, line.split())
        conv, pool = Conv2d(c, c, 3, padding=1, rng=0), MaxPool2d(2)
        x = conv.forward(rng.normal(size=(n, c, h, w)))  # held: a strided view
        g = rng.normal(size=(n, c, h // 2, w // 2))
        out = np.array(pool.forward(x))
        print(json.dumps({
            "sha256": sha256(out, pool.backward(g)),
            "fwd_ms": _median_us(lambda: pool.forward(x), reps) / 1e3,
            "fwd_bwd_ms": _median_us(
                lambda: (pool.forward(x), pool.backward(g)), reps
            ) / 1e3,
        }), flush=True)


def pool_kernel_trial(baseline_src: str, trials: int, reps: int):
    """Per-call cost of the 2x2 max-pool kernel, parent vs change, in
    :func:`conv_kernel_trial`'s protocol, then SmallVGG whole-model."""
    children = [
        _spawn_child(src, "--pool-kernel-child", reps)
        for src in (baseline_src, ROOT / "src")
    ]
    try:
        cells = [
            _cell_row(
                "pool_kernel", children, trials, dict(zip("NCHW", shape)),
                " ".join(map(str, shape)), ("fwd_ms", "fwd_bwd_ms"),
            )
            for shape in POOL_CELLS
        ]
        models = [_cell_row(
            "pool_kernel", children, trials, {"model": "smallvgg"}, "smallvgg",
            ("fwd_bwd_ms",),
        )]
    finally:
        _finish(children)
    return {
        "trial": "pool_kernel",
        "workload": "MaxPool2d(2).forward / forward + backward on a conv "
        "output view, float64; ms per call, median of "
        f"{reps} calls per turn, {trials} alternating turns per cell; "
        "bytes_equal: both sides' output and input gradient (model: logits "
        "and flat gradient) hash the same",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "1"),
        "cells": cells,
        "models": models,
    }


#: ``grad_write`` cells: model -> (build kwargs, batch shape, vocabulary
#: size of an integer-token input or ``None`` for a float one).
GRAD_WRITE_REPLICAS = 16
GRAD_WRITE_CELLS = {
    "mlp": (dict(in_features=768, n_classes=100, hidden=(128,)), (32, 768), None),
    "tinytransformer": (dict(vocab_size=64, dim=32, max_len=16, dropout=0.0), (20, 16), 64),
}


def grad_write_child(reps: int) -> None:
    """One side of :func:`grad_write_trial`. A model name: median ms per
    replica of ``zero_grad`` + forward + backward + ``get_flat_grads`` over
    ``GRAD_WRITE_REPLICAS`` replicas taken in turn, and a sha256 over every
    replica's flat gradient."""
    from repro.nn.losses import CrossEntropyLoss
    from repro.nn.models import build_model

    rng = np.random.default_rng(0)
    for line in sys.stdin:
        name = line.strip()
        kwargs, shape, vocab = GRAD_WRITE_CELLS[name]
        replicas = [build_model(name, rng=0, **kwargs) for _ in range(GRAD_WRITE_REPLICAS)]
        if vocab is None:
            draw = lambda: (rng.normal(size=shape), rng.integers(0, 100, shape[0]))
        else:
            draw = lambda: (rng.integers(0, vocab, shape), rng.integers(0, vocab, shape))
        batches = [draw() for _ in replicas]

        def one_round():
            for model, (x, y) in zip(replicas, batches):
                model.zero_grad()
                loss = CrossEntropyLoss()
                loss.forward(model.forward(x), y)
                model.backward(loss.backward())
                model.get_flat_grads()

        us = _median_us(one_round, reps)
        digest = hashlib.sha256(
            np.concatenate([m.get_flat_grads() for m in replicas])
        ).hexdigest()
        print(json.dumps({
            "sha256": digest, "fwd_bwd_ms": us / 1e3 / GRAD_WRITE_REPLICAS,
        }), flush=True)


def grad_write_trial(baseline_src: str, trials: int, reps: int):
    """Per-replica cost of one gradient computation, parent vs change, in
    :func:`conv_kernel_trial`'s protocol."""
    children = [
        _spawn_child(src, "--grad-write-child", reps)
        for src in (baseline_src, ROOT / "src")
    ]
    try:
        cells = [
            _cell_row("grad_write", children, trials, {"model": name}, name, ("fwd_bwd_ms",))
            for name in GRAD_WRITE_CELLS
        ]
    finally:
        _finish(children)
    return {
        "trial": "grad_write",
        "workload": "zero_grad + forward + backward + get_flat_grads, float64, "
        f"{GRAD_WRITE_REPLICAS} replicas in turn (MLP 768-128-100 at b = 32; "
        "TinyTransformer dim 32 at (20, 16)); ms per replica, median of "
        f"{reps} rounds per turn, {trials} alternating turns per cell; "
        "bytes_equal: every replica's flat gradient hashes the same",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "1"),
        "cells": cells,
    }


#: ``dataset_build`` cells: the e2e benchmark's three dataset recipes
#: (workload -> generator, kwargs), then ``build_worker_group`` on
#: ``mlp16_chaos_traced``'s (16 replicas of the 768-128-100 MLP, SGD).
DATASET_CELLS = {
    "vgg8_bsp": ("cifar100_like", dict(n_train=3000, n_test=600, n_classes=20)),
    "xfmr4_selsync": (
        "wikitext_like", dict(n_train_tokens=40_000, n_test_tokens=8_000, bptt=16),
    ),
    "mlp16_chaos_traced": ("cifar100_like", dict(n_train=3000, n_test=600, n_classes=100)),
}
GROUP_CELL = "build_worker_group"


def dataset_build_child(reps: int) -> None:
    """One side of :func:`dataset_build_trial`. A workload name: median ms
    of its dataset build (seed 0) and a sha256 over the train / test bytes.
    ``build_worker_group``: median ms of building the 16 MLP replicas and a
    sha256 over every replica's initial parameters and first gradient."""
    from repro.cluster.worker import build_worker_group
    from repro.data import BatchLoader, build_dataset
    from repro.nn.models import build_model
    from repro.optim import SGD

    def sha256(arrays):
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    def group():
        return build_worker_group(
            16,
            lambda: build_model("mlp", in_features=768, n_classes=100, hidden=(128,), rng=3),
            lambda m: SGD(m, lr=0.05, momentum=0.9, weight_decay=5e-4),
            loaders,
        )

    data, _ = build_dataset("blobs", n_train=64, n_test=1, n_features=768, n_classes=100, rng=0)
    loaders = [BatchLoader(data, np.arange(64), batch_size=32, rng=i) for i in range(16)]
    for line in sys.stdin:
        name = line.strip()
        if name == GROUP_CELL:
            workers = group()
            arrays = [w.get_params() for w in workers]
            for w in workers:
                w.compute_gradient(w.loader.next_batch())
                arrays.append(w.get_grads())
            build = group
        else:
            generator, kwargs = DATASET_CELLS[name]
            build = lambda: build_dataset(generator, rng=0, **kwargs)
            arrays = [
                a for ds in build()
                for a in ((ds.tokens,) if hasattr(ds, "tokens") else (ds.x, ds.y))
            ]
        print(json.dumps({
            "sha256": sha256(arrays), "build_ms": _median_us(build, reps) / 1e3,
        }), flush=True)


def dataset_build_trial(baseline_src: str, trials: int, reps: int):
    """Set-up cost, parent vs change, in :func:`conv_kernel_trial`'s
    protocol: each benchmark dataset recipe, then the replica build."""
    children = [
        _spawn_child(src, "--dataset-build-child", reps)
        for src in (baseline_src, ROOT / "src")
    ]
    try:
        cells = [
            _cell_row(
                "dataset_build", children, trials,
                {"generator": DATASET_CELLS[name][0], "recipe": name}, name,
                ("build_ms",),
            )
            for name in DATASET_CELLS
        ]
        cells.append(_cell_row(
            "dataset_build", children, trials,
            {"generator": GROUP_CELL, "recipe": "mlp16_chaos_traced"}, GROUP_CELL,
            ("build_ms",),
        ))
    finally:
        _finish(children)
    return {
        "trial": "dataset_build",
        "workload": "build_dataset(seed 0) of the e2e benchmark's three dataset "
        "recipes, and build_worker_group of 16 MLP 768-128-100 replicas; "
        f"ms per build, median of {reps} builds per turn, {trials} alternating "
        "turns per cell; bytes_equal: both sides' train / test bytes (group: "
        "every replica's initial parameters and first gradient) hash the same",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "1"),
        "cells": cells,
    }


#: ``trace_write``: the event stream of this many steps of
#: ``mlp16_chaos_traced`` is replayed; retained bytes are read at each point.
TRACE_STEPS = 400
TRACE_POINTS = (100, 400)


def trace_write_child(reps: int) -> None:
    """One side of :func:`trace_write_trial`. Records the emit calls of a
    ``TRACE_STEPS``-step ``mlp16_chaos_traced`` run, then answers each stdin
    line: ``time`` — µs per event of replaying the whole stream into a
    path-backed tracer and closing it (emit + encode + write; median of
    ``reps`` replays) and the file's sha256; ``mem N`` — ``tracemalloc``
    bytes the tracer still holds after replaying the first ``N`` steps."""
    import tracemalloc

    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    from workloads import BY_NAME  # read-only use of the benchmark's recipe

    from repro.core import TrainConfig
    from repro.obs import Tracer

    calls = []

    class Recording(Tracer):
        def emit(self, etype, step=None, worker=-1, **data):
            ev = super().emit(etype, step, worker, **data)
            calls.append((etype, ev.step, ev.worker, data))
            return ev

    spec = BY_NAME["mlp16_chaos_traced"]
    built, trainer = spec.build(seed=0, n_steps=TRACE_STEPS)
    with tempfile.TemporaryDirectory() as tmp:
        trainer.run(TrainConfig(
            n_steps=TRACE_STEPS, eval_every=spec.block, eval_fn=built.eval_fn,
            tracer=Recording(), checkpoint_every=spec.block,
            checkpoint_path=os.path.join(tmp, "ck.npz"),
        ))
        trace = os.path.join(tmp, "trace.jsonl")

        def replay(n_steps=TRACE_STEPS):
            tracer = Tracer(path=trace, name=spec.name)
            for etype, step, worker, data in calls:
                if step < n_steps:
                    tracer.emit(etype, step, worker, **data)
            return tracer

        for line in sys.stdin:
            if line.startswith("mem"):
                n_steps = int(line.split()[1])
                gc.collect()
                tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
                tracer = replay(n_steps)
                gc.collect()
                held = tracemalloc.get_traced_memory()[0] - base
                tracemalloc.stop()
                tracer.close()
                print(json.dumps({"retained_bytes": held}), flush=True)
                continue
            us = _median_us(lambda: replay().close(), reps) / len(calls)
            with open(trace, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            print(json.dumps({
                "sha256": digest, "us_per_event": us, "events": len(calls),
            }), flush=True)


def trace_write_trial(baseline_src: str, trials: int, reps: int):
    """What a traced run pays for its trace, parent vs change: µs per event
    in :func:`conv_kernel_trial`'s protocol, then the bytes a tracer holds
    after ``TRACE_POINTS`` steps of the same stream."""
    children = [
        _spawn_child(src, "--trace-write-child", reps)
        for src in (baseline_src, ROOT / "src")
    ]
    try:
        row = _cell_row(
            "trace_write", children, trials, {"recipe": "mlp16_chaos_traced"},
            "time", ("us_per_event",),
        )
        retained = {
            side: {
                str(n): json.loads(_turn(child, f"mem {n}"))["retained_bytes"]
                for n in TRACE_POINTS
            }
            for side, child in zip(("before", "after"), children)
        }
        row["events"] = json.loads(_turn(children[1], "time"))["events"]
    finally:
        _finish(children)
    return {
        "trial": "trace_write",
        "workload": f"the emit calls of a {TRACE_STEPS}-step mlp16_chaos_traced "
        "run replayed into a path-backed Tracer, then close(): us per event "
        f"(emit + encode + write), median of {reps} replays per turn, {trials} "
        "alternating turns; retained_bytes: tracemalloc bytes still allocated "
        "after replaying the first N steps, before close(); bytes_equal: both "
        "sides wrote the same trace file",
        "cells": [row],
        "retained_bytes": retained,
    }


#: ``activation_memory``: the recipes measured.
ACTIVATION_RECIPES = ("xfmr4_selsync", "mlp16_chaos_traced")


def _held_bytes(arrays) -> int:
    """Bytes of the buffers ``arrays`` keep alive, each counted once."""
    buffers = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        buffers[id(a)] = a.nbytes
    return sum(buffers.values())


def activation_memory_child(recipe: str) -> None:
    """One side of :func:`activation_memory_trial` for one recipe: a block of
    steps and one evaluation under ``tracemalloc``; prints one JSON line."""
    import tracemalloc

    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    from workloads import BY_NAME  # read-only use of the benchmark's recipe

    from repro.core import TrainConfig
    from repro.nn import workspace
    from repro.nn.workspace import owned_arrays

    def module_arrays(models):
        """Every ndarray a module keeps outside its parameters (any cache
        attribute, at either commit) and every workspace it holds: checked
        out (``_held``, before workspaces were lent) or saved."""
        out = []
        for model in models:
            for m in model.modules():
                held = getattr(m, "_held", None)
                if held is not None:
                    out += owned_arrays(held[2])
                out += [
                    a for ws in m._saved or () if hasattr(ws, "__dict__")
                    for a in owned_arrays(ws)
                ]
                for value in vars(m).values():
                    values = value if isinstance(value, tuple) else (value,)
                    out += [v for v in values if isinstance(v, np.ndarray)]
        return out

    # The pool's workspaces per key and batch size: free lists before
    # workspaces were lent, ``[workspace, baseline counts]`` entries since.
    pool = workspace.POOL
    by_key = pool.free if hasattr(pool, "free") else pool.kept

    def pool_arrays():
        stacks = [stack for sizes in by_key.values() for stack in sizes.values()]
        spaces = [ws if hasattr(pool, "free") else ws[0] for stack in stacks for ws in stack]
        return [
            a for ws in spaces
            for a in ([ws] if isinstance(ws, np.ndarray) else owned_arrays(ws))
        ]

    spec = BY_NAME[recipe]
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    built, trainer = spec.build(seed=0, n_steps=spec.block)
    trainer.run(TrainConfig(n_steps=spec.block, eval_every=spec.block))
    models = [w.model for w in built.workers]
    trained_sizes = sorted({b for held in by_key.values() for b in held})
    gc.collect()
    before_eval = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    trainer.evaluate(TrainConfig(n_steps=spec.block, eval_fn=built.eval_fn))
    eval_peak = tracemalloc.get_traced_memory()[1] - before_eval
    gc.collect()
    held = tracemalloc.get_traced_memory()[0] - base
    kept, pooled = module_arrays(models), pool_arrays()
    sizes = sorted({b for held in by_key.values() for b in held})
    digest = hashlib.sha256(b"".join(w.get_params().tobytes() for w in built.workers))
    # One replica's training forward: what it keeps for its backward.
    x, _ = built.workers[0].loader.next_batch()
    models[0].forward(x)  # in training mode: ``evaluate`` ends in ``train()``
    forward = _held_bytes(module_arrays(models[:1]))
    # One replica's training step (forward, loss and backward) in a fresh
    # pool: the traced peak takes in every buffer one worker's step works in.
    worker = built.workers[0]
    batch = worker.loader.next_batch()
    kept_pool, workspace.POOL = workspace.POOL, type(workspace.POOL)()
    gc.collect()
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    worker.compute_gradient(batch)
    step_peak = tracemalloc.get_traced_memory()[1] - start
    workspace.POOL = kept_pool
    tracemalloc.stop()
    print(json.dumps({
        "held_bytes": held,
        "module_bytes": _held_bytes(kept),
        "pool_bytes": _held_bytes(pooled),
        "module_and_pool_bytes": _held_bytes(kept + pooled),
        "pool_batch_sizes": sizes,
        "trained_pool_batch_sizes": trained_sizes,
        "eval_peak_bytes": eval_peak,
        "replica_forward_bytes": forward,
        "replica_step_peak_bytes": step_peak,
        "param_bytes": sum(m.nbytes for m in models),
        "params_sha256": digest.hexdigest(),
    }), flush=True)


def activation_memory_trial(baseline_src: str):
    """Parent vs change, one child per recipe and side, one after another."""
    recipes = {}
    for recipe in ACTIVATION_RECIPES:
        sides = {}
        for side, src in (("before", baseline_src), ("after", ROOT / "src")):
            child = _spawn_child(src, "--activation-memory-child", recipe)
            sides[side] = json.loads(child.stdout.readline())
            _finish([child])
        sides["params_equal"] = (
            sides["before"]["params_sha256"] == sides["after"]["params_sha256"]
        )
        recipes[recipe] = sides
    return {
        "trial": "activation_memory",
        "workload": "each recipe built at seed 0, one block of trainer.run, then "
        "trainer.evaluate, under tracemalloc: held_bytes (everything allocated "
        "since before the build and still alive), module_bytes (ndarrays the "
        "replicas' modules keep outside their parameters, held or saved "
        "workspaces included), pool_bytes (the workspaces workspace.POOL "
        "keeps, free ones at a commit with checkout/give_back), "
        "module_and_pool_bytes (both, each buffer once), pool_batch_sizes "
        "(the batch sizes the pool keeps after the evaluation; "
        "trained_pool_batch_sizes before it), eval_peak_bytes (traced peak "
        "during the evaluation over the bytes before it), "
        "replica_forward_bytes (module arrays of replica 0 after one more "
        "training forward), replica_step_peak_bytes (traced peak over "
        "replica 0's compute_gradient in a fresh pool); params_equal: both "
        "sides' replicas hold the same parameter bytes",
        "recipes": recipes,
    }


PPL_EVALS = 5


def perplexity_eval_child(steps: int) -> None:
    """One side of :func:`perplexity_eval_trial`, in a fresh interpreter:
    the e2e benchmark's ``xfmr4_selsync`` recipe run ``steps`` steps, then
    ``PPL_EVALS`` evaluations; prints one JSON line."""
    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    from workloads import BY_NAME  # read-only use of the benchmark's recipe

    from repro.core import TrainConfig

    def faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    built, trainer = BY_NAME["xfmr4_selsync"].build(seed=0, n_steps=steps)
    cfg = TrainConfig(n_steps=steps, eval_fn=built.eval_fn)
    step_faults, eval_faults, eval_ms = [], [], []
    for i in range(steps):
        f = faults()
        trainer.step(i)
        step_faults.append(faults() - f)
    for _ in range(PPL_EVALS):
        f, t0 = faults(), time.perf_counter()
        ppl = trainer.evaluate(cfg)
        eval_ms.append((time.perf_counter() - t0) * 1e3)
        eval_faults.append(faults() - f)
    print(json.dumps({
        "eval_ms": statistics.median(eval_ms),
        "eval_faults": statistics.median(eval_faults),
        # The first step builds every workspace; the rest show the churn.
        "step_faults_before_eval": statistics.median(step_faults[1:]),
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "perplexity": ppl,
    }), flush=True)


def perplexity_eval_trial(baseline_src: str, trials: int, steps: int):
    """Parent vs change, a fresh child per side and turn, parent first."""
    turns = []
    for _ in range(trials):
        pair = []
        for src in (baseline_src, ROOT / "src"):
            child = _spawn_child(src, "--perplexity-eval-child", steps)
            pair.append(json.loads(child.stdout.readline()))
            _finish([child])
        turns.append(pair)
    keys = ("eval_ms", "eval_faults", "step_faults_before_eval", "maxrss_mb")
    sides = {
        side: {k: round(statistics.median(t[i][k] for t in turns), 2) for k in keys}
        for i, side in enumerate(("before", "after"))
    }
    speedups = [b["eval_ms"] / a["eval_ms"] for b, a in turns]
    return {
        "trial": "perplexity_eval",
        "workload": f"xfmr4_selsync recipe (TinyTransformer, 4 workers, SelSync "
        f"delta=0.1 PA), seed 0, {steps} steps then {PPL_EVALS} evaluations per "
        "child; medians over children of: eval_ms and eval_faults (ms and "
        "minor page faults per evaluation), step_faults_before_eval (faults "
        "per step from the second step on), maxrss_mb (ru_maxrss at the end)",
        **sides,
        "eval_ms_speedup_median_pairwise": round(statistics.median(speedups), 3),
        "perplexity_equal": all(b["perplexity"] == a["perplexity"] for b, a in turns),
    }


def _git_head(path) -> str:
    out = subprocess.run(
        ["git", "-C", str(path), "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True,
    )
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="fewer/shorter trials")
    ap.add_argument("--out", default=str(ROOT / "BENCH_hotpath.json"))
    ap.add_argument("--executor-out", default=str(ROOT / "BENCH_executor.json"))
    ap.add_argument(
        "--skip-hotpath",
        action="store_true",
        help="run only the executor sweep",
    )
    ap.add_argument(
        "--baseline-src",
        help="src/ of the commit to compare against: run only --trial and "
        "append it to --out's history",
    )
    ap.add_argument(
        "--trial",
        choices=(
            "transformer_4w_selsync", "vgg_8w_bsp", "checkpoint_io", "robust_aggregate",
            "conv_kernel", "pool_kernel", "grad_write", "dataset_build",
            "trace_write", "activation_memory", "perplexity_eval",
        ),
        default="transformer_4w_selsync",
        help="which cross-commit trial --baseline-src runs",
    )
    ap.add_argument("--pr", type=int, help="PR number of the history entry")
    ap.add_argument("--transformer-child", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--vgg-child", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--checkpoint-io-child", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--robust-aggregate-child", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--conv-kernel-child", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--pool-kernel-child", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--grad-write-child", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--dataset-build-child", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--trace-write-child", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--activation-memory-child", help=argparse.SUPPRESS)
    ap.add_argument("--perplexity-eval-child", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.transformer_child:
        transformer_child(args.transformer_child)
        return 0
    if args.vgg_child:
        vgg_child(args.vgg_child)
        return 0
    if args.checkpoint_io_child:
        checkpoint_io_child(args.checkpoint_io_child)
        return 0
    if args.robust_aggregate_child:
        robust_aggregate_child(args.robust_aggregate_child)
        return 0
    if args.conv_kernel_child:
        conv_kernel_child(args.conv_kernel_child)
        return 0
    if args.pool_kernel_child:
        pool_kernel_child(args.pool_kernel_child)
        return 0
    if args.grad_write_child:
        grad_write_child(args.grad_write_child)
        return 0
    if args.dataset_build_child:
        dataset_build_child(args.dataset_build_child)
        return 0
    if args.trace_write_child:
        trace_write_child(args.trace_write_child)
        return 0
    if args.activation_memory_child:
        activation_memory_child(args.activation_memory_child)
        return 0
    if args.perplexity_eval_child:
        perplexity_eval_child(args.perplexity_eval_child)
        return 0

    trials = 3 if args.quick else 10
    steps = 8 if args.quick else 16

    out_path = Path(args.out)
    snapshot = json.loads(out_path.read_text()) if out_path.exists() else {}
    history = snapshot.get("history", [])

    if args.baseline_src:
        if args.pr is None:
            ap.error("--baseline-src needs --pr N to label the history entry")
        if args.trial == "checkpoint_io":
            points = (100, 250) if args.quick else (250, 750)
            trial = checkpoint_io_trial(args.baseline_src, points)
        elif args.trial == "vgg_8w_bsp":
            trial = vgg_trial(args.baseline_src, trials, 10 if args.quick else 25)
        elif args.trial == "robust_aggregate":
            trial = robust_aggregate_trial(
                args.baseline_src, trials, 5 if args.quick else 15
            )
        elif args.trial == "conv_kernel":
            trial = conv_kernel_trial(
                args.baseline_src, trials, 20 if args.quick else 80
            )
        elif args.trial == "pool_kernel":
            trial = pool_kernel_trial(
                args.baseline_src, trials, 50 if args.quick else 200
            )
        elif args.trial == "grad_write":
            trial = grad_write_trial(
                args.baseline_src, trials, 10 if args.quick else 40
            )
        elif args.trial == "dataset_build":
            trial = dataset_build_trial(
                args.baseline_src, trials, 2 if args.quick else 5
            )
        elif args.trial == "trace_write":
            trial = trace_write_trial(
                args.baseline_src, trials, 2 if args.quick else 5
            )
        elif args.trial == "activation_memory":
            trial = activation_memory_trial(args.baseline_src)
        elif args.trial == "perplexity_eval":
            trial = perplexity_eval_trial(
                args.baseline_src, trials, 10 if args.quick else 20
            )
        else:
            trial = transformer_trial(
                args.baseline_src, trials, 20 if args.quick else 50
            )
        entry = {
            "pr": args.pr,
            # The tree measured is this commit's parent plus the PR's diff.
            "commit": _git_head(ROOT) + "+",
            "baseline_commit": _git_head(Path(args.baseline_src)),
            **trial,
        }
        print(f"{args.trial}: {entry}")
        snapshot["history"] = history + [entry]
        out_path.write_text(json.dumps(snapshot, indent=2) + "\n")
        print(f"appended history entry to {out_path}")
        return 0

    if not args.skip_hotpath:
        results = {
            "workload": "vgg_cifar100 (SmallVGG), 8 workers, data_scale=0.25",
            "methodology": (
                "interleaved trials; every ratio is the median of pairwise "
                "(adjacent) steps-per-sec ratios, which cancels host clock "
                "drift"
            ),
            "quick": args.quick,
            "micro": micro_flat_ops(),
            "aggregator_overhead": aggregator_sweep(trials, steps),
            "shard_speedup": shard_sweep(4 if args.quick else 10),
            "elastic_goodput": elastic_sweep(24 if args.quick else 40),
        }
        print(f"shard_speedup: {results['shard_speedup']['per_shard']}")
        print(f"elastic_goodput: {results['elastic_goodput']['runs']}")
        results["history"] = history  # append-only: survives the re-snapshot
        out_path.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {out_path}")

    ex_path = Path(args.executor_out)
    ex_history = (
        json.loads(ex_path.read_text()).get("history", []) if ex_path.exists() else []
    )
    ex_results = executor_sweep(trials, steps, args.quick)
    ex_results["history"] = ex_history  # append-only: survives the re-snapshot
    ex_path.write_text(json.dumps(ex_results, indent=2) + "\n")
    print(f"wrote {args.executor_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
