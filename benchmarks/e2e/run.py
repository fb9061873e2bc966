"""End-to-end benchmark: four workloads, two clocks.

One workload, one run (what ``BENCHMARK.json``'s ``command`` invokes)::

    python3 benchmarks/e2e/run.py --workload vgg8_bsp --seed 0 --seconds 20 --trace 0

prints every end-to-end metric by name and unit (``--trace 1``: every
per-layer metric, from a run under spans), checks the outputs, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.

All four, each in a fresh child process, untraced then traced, with the
cross-workload summary — the report ``compare.py`` takes::

    python3 benchmarks/e2e/run.py [--seed N] [--quick] [--out FILE]

See README.md beside this file for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
QUICK_SECONDS = 2


def prepare_process() -> None:
    """Noise hygiene; must run before numpy is imported.

    BLAS is pinned to one thread (two threads burn twice the CPU for no
    wall gain on this 2-core host, and make timings noisier), and the
    ``REPRO_*`` defaults are cleared so the environment cannot change which
    executor or shard count a workload runs with.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in ("REPRO_EXECUTOR", "REPRO_PS_SHARDS", "REPRO_BENCH_SCALE"):
        os.environ.pop(var, None)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"run.py: {src}/repro not found; the benchmark runs the program from source")
    sys.path.insert(0, str(src))


def provenance(args, wall_s: float) -> Dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "total_wall_s": wall_s,
    }


# -- one workload, one process -------------------------------------------------
def run_one(args, t_start: float) -> int:
    import harness as h  # numpy and repro load here, after the pinning
    from catalog import END_TO_END, PER_LAYER
    from workloads import BY_NAME

    import_s = time.perf_counter() - t_start
    spec = BY_NAME[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.trace:
            spans = OUT / f"{spec.name}.spans.json"
            doc = h.run_traced(spec, args.seed, args.seconds, Path(tmp), import_s, spans)
        else:
            doc = h.run_untraced(spec, args.seed, args.seconds, Path(tmp))

    units = {m.name: m.unit for m in (PER_LAYER if args.trace else END_TO_END)}
    clocks = {m.name: m.clock for m in END_TO_END}
    doc["metrics"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in doc["metrics"].items()
    }
    doc.update(
        workload=spec.name,
        trace=args.trace,
        correct=not doc["failures"],
        provenance=provenance(args, time.perf_counter() - t_start),
    )
    print(
        f"# {spec.name} seed={args.seed} trace={args.trace}: sim budget {doc['sim_steps']} steps, "
        f"ran {doc['n_steps']}, {doc['timed_blocks']} timed blocks of {spec.block}"
    )
    for name, m in doc["metrics"].items():
        clock = f"  [{clocks[name]}]" if name in clocks else ""
        print(f"{name:50s} {m['value']:14.6g} {m['unit']}{clock}")
    for name, value in doc.get("info", {}).items():
        if name != "evals":
            print(f"  (info) {name:41s} {value:14.6g}")
    print(f"run_digest {doc['run_digest']}")
    for failure in doc["failures"]:
        print(f"CHECK FAILED: {failure}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1))
    print(
        json.dumps(
            {k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0 if doc["correct"] else 1


# -- all workloads, one child each -----------------------------------------------
def run_all(args) -> int:
    """Each workload in a fresh child (its own peak RSS, its own BLAS
    state), untraced first, then traced unless ``--quick``."""
    t_start = time.perf_counter()
    from workloads import SPECS

    if args.quick:
        traces = [0, 1] if args.trace else [0]
    else:
        traces = [0, 1] if args.trace is None else [args.trace]
    runs: Dict[str, Dict] = {}
    status = 0
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for spec in SPECS:
            for trace in traces:
                part = Path(tmp) / f"{spec.name}.{trace}.json"
                cmd = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", spec.name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--out", str(part),
                ]
                child = subprocess.run(cmd, capture_output=True, text=True)
                sys.stdout.write(child.stdout.rsplit("\n", 2)[0] + "\n")
                sys.stderr.write(child.stderr)
                if child.returncode != 0:
                    status = 1
                if part.exists():
                    key = "per_layer" if trace else "end_to_end"
                    runs.setdefault(spec.name, {})[key] = json.loads(part.read_text())

    derived = {}
    try:
        derived["sim_speedup_vs_bsp"] = (
            runs["vgg8_bsp"]["end_to_end"]["metrics"]["sim_time_to_target_s"]["value"]
            / runs["vgg8_selsync"]["end_to_end"]["metrics"]["sim_time_to_target_s"]["value"]
        )
        print(
            "sim_speedup_vs_bsp = vgg8_bsp.sim_time_to_target_s / "
            f"vgg8_selsync.sim_time_to_target_s = {derived['sim_speedup_vs_bsp']:.3f}"
        )
    except KeyError:
        pass
    print_share_table(runs)
    if args.out:
        doc = {
            "provenance": provenance(args, time.perf_counter() - t_start),
            "runs": runs,
            "derived": derived,
        }
        Path(args.out).write_text(json.dumps(doc, indent=1))
        print(f"wrote {args.out}")
    return status


def print_share_table(runs: Dict[str, Dict]) -> None:
    shares = {w: r["per_layer"]["layer_share"] for w, r in runs.items() if "per_layer" in r}
    if not shares:
        return
    layers: List[str] = sorted({layer for s in shares.values() for layer in s})
    print("\nself-time share of the traced run, % (the most a faster layer can save)")
    print(f"{'layer':22s}" + "".join(f"{w:>20s}" for w in shares))
    for layer in layers:
        print(f"{layer:22s}" + "".join(f"{s.get(layer, 0.0):20.2f}" for s in shares.values()))


def main(argv=None) -> int:
    t_start = time.perf_counter()
    from catalog import RUN_SECONDS, benchmark_json

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", help="one workload name, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=None)
    p.add_argument("--quick", action="store_true", help=f"--seconds {QUICK_SECONDS}, no traced run")
    p.add_argument("--out", default=None, help="also write the full result as JSON here")
    p.add_argument("--benchmark-json", action="store_true", help="print BENCHMARK.json and exit")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else RUN_SECONDS
    prepare_process()
    if args.benchmark_json:
        from workloads import SPECS

        print(json.dumps(benchmark_json(SPECS), indent=2))
        return 0
    if args.workload == "all":
        return run_all(args)
    args.trace = args.trace or 0
    from workloads import BY_NAME

    if args.workload not in BY_NAME:
        p.error(f"unknown workload {args.workload!r}; known: {sorted(BY_NAME)}")
    return run_one(args, t_start)


if __name__ == "__main__":
    sys.exit(main())
