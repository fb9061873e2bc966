"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Train one method on one workload and print the summary (optionally
    persisting the run log as JSONL).
``compare``
    Run several methods on the same workload and print a comparison table.
``workloads`` / ``methods``
    List the available registries.
``table1``
    Regenerate the paper's Table I at a configurable scale.
``fig``
    Run one figure generator at a quick scale and print its data.

Examples::

    python -m repro run --workload resnet_cifar10 --method selsync --delta 0.3
    python -m repro compare --workload vgg_cifar100 --methods bsp,selsync,fedavg
    python -m repro table1 --workloads resnet_cifar10 --steps 100
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import sys
import typing
from typing import List, Optional

from repro.core.config import ClusterConfig
from repro.core.selsync import AGGREGATIONS
from repro.experiments.reporting import render_table, render_table1
from repro.experiments.runner import _TRAINERS, MethodSpec, run_method
from repro.experiments.workloads import WORKLOADS, get_workload
from repro.utils.serialization import save_runlog

#: The ``ClusterConfig`` fields the ``run`` / ``compare`` parsers expose: the
#: ones whose ``flag`` metadata declares the flag (help, name, choices,
#: metavar). Type and default come from the field itself.
CLUSTER_FLAGS = [
    f for f in dataclasses.fields(ClusterConfig) if "flag" in f.metadata
]

#: Method -> the constructor keywords its flags expose, each with any extra
#: ``add_argument`` keywords. Default and type come from the trainer's
#: signature.
METHOD_FLAGS = {
    "selsync": {
        "delta": {"help": "selsync threshold"},
        "aggregation": {"choices": list(AGGREGATIONS)},
    },
    "fedavg": {"c_fraction": {"help": "fedavg C"}, "e_factor": {"help": "fedavg E"}},
    "ssp": {"staleness": {"help": "ssp s"}},
    "easgd": {"rho": {"help": "easgd elasticity"}, "tau": {"help": "easgd period"}},
}


def _method_spec(args) -> MethodSpec:
    keywords = METHOD_FLAGS.get(args.method, {})
    return MethodSpec(args.method, {kw: getattr(args, kw) for kw in keywords})


def _add_flag(
    p: argparse.ArgumentParser, dest: str, kind, default, name=None, **kw
) -> None:
    """One generated flag, ``--dest`` with ``-`` for ``_`` unless ``name`` is
    given: a ``bool`` is ``store_true``; any other kind is the flag's
    ``type`` unless it is ``str`` or ``choices`` are given."""
    if kind is bool:
        kw["action"] = "store_true"
    elif "choices" not in kw and kind is not str:
        kw["type"] = kind
    p.add_argument(
        name or "--" + dest.replace("_", "-"), dest=dest, default=default, **kw
    )


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workload", default="resnet_cifar10", choices=list(WORKLOADS))
    p.add_argument("--n-workers", type=int, default=4)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--eval-every", type=int, default=50)
    p.add_argument(
        "--partition", default=None, choices=[None, "seldp", "defdp", "noniid"],
        help="default: seldp for selsync, defdp otherwise",
    )
    p.add_argument("--labels-per-worker", type=int, default=1)
    p.add_argument("--data-scale", type=float, default=0.3)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    # A default is its field's default, so $REPRO_EXECUTOR / $REPRO_PS_SHARDS
    # are read in one place.
    defaults = ClusterConfig()
    hints = typing.get_type_hints(ClusterConfig)
    for f in CLUSTER_FLAGS:
        kinds = [k for k in typing.get_args(hints[f.name]) if k is not type(None)]
        kind = kinds[0] if kinds else hints[f.name]
        _add_flag(p, f.name, kind, getattr(defaults, f.name), **f.metadata["flag"])


def _add_method_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--method", default="selsync", choices=sorted(_TRAINERS),
    )
    for method, keywords in METHOD_FLAGS.items():
        params = inspect.signature(_TRAINERS[method]).parameters
        for kw, extra in keywords.items():
            default = params[kw].default
            _add_flag(p, kw, type(default), default, **extra)


def _build(args, spec: MethodSpec):
    scheme = args.partition or ("seldp" if spec.kind == "selsync" else "defdp")
    cluster_kwargs = {f.name: getattr(args, f.name) for f in CLUSTER_FLAGS}
    # '' means "no net faults" / "no elastic membership" and must behave
    # exactly like unset (byte-identity contract; parse maps it, and 'off',
    # to the empty plan, but None keeps even the config field identical).
    for field in ("net_fault_spec", "elastic_spec"):
        cluster_kwargs[field] = cluster_kwargs[field] or None
    return get_workload(args.workload).build(
        n_workers=args.n_workers,
        n_steps=args.steps,
        partition_scheme=scheme,
        labels_per_worker=args.labels_per_worker,
        data_scale=args.data_scale,
        batch_size=args.batch_size,
        seed=args.seed,
        cluster_kwargs=cluster_kwargs,
    )


def cmd_run(args) -> int:
    if args.divergence_threshold is not None and args.max_recoveries is None:
        print("--divergence-threshold requires --max-recoveries")
        return 2
    spec = _method_spec(args)
    built = _build(args, spec)
    tracer = None
    if args.trace or args.trace_path or args.metrics_summary:
        from repro.obs import Tracer

        tracer = Tracer(path=args.trace_path, name=spec.kind)
    supervisor = None
    if args.max_recoveries is not None:
        from repro.core.recovery import RecoverySupervisor

        supervisor = RecoverySupervisor(
            max_recoveries=args.max_recoveries,
            divergence_threshold=args.divergence_threshold,
        )
    res = run_method(
        spec, built, n_steps=args.steps, eval_every=args.eval_every,
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=args.checkpoint_path,
        resume_from=args.resume,
        stop_after=args.stop_after,
        tracer=tracer,
        supervisor=supervisor,
    )
    rows = [
        ["method", spec.display],
        ["workload", args.workload],
        ["iterations", res.steps],
        ["best_metric", res.best_metric],
        ["final_metric", res.final_metric],
        ["lssr", res.lssr],
        ["sim_time_s", round(res.sim_time, 2)],
    ]
    if res.log.faults:
        rows.append(["n_faults", res.log.n_faults])
    if supervisor is not None:
        rows.append(["n_recoveries", len(supervisor.recoveries)])
    print(render_table(["field", "value"], rows))
    if tracer is not None:
        tracer.close()
        from repro.experiments.reporting import render_run_dashboard

        print(render_run_dashboard(tracer))
        if args.trace_path:
            print(f"trace written to {args.trace_path}")
        if args.metrics_summary:
            import json

            from repro.utils.serialization import encode_jsonable

            with open(args.metrics_summary, "w") as f:
                json.dump(
                    encode_jsonable(tracer.metrics),
                    f, indent=2, sort_keys=True,
                )
            print(f"metrics summary written to {args.metrics_summary}")
    if args.save_log:
        save_runlog(res.log, args.save_log)
        print(f"run log written to {args.save_log}")
    return 0


def cmd_compare(args) -> int:
    rows = []
    for name in args.methods.split(","):
        name = name.strip()
        ns = argparse.Namespace(**vars(args))
        ns.method = name
        spec = _method_spec(ns)
        built = _build(args, spec)
        res = run_method(
            spec, built, n_steps=args.steps, eval_every=args.eval_every
        )
        rows.append(
            [
                spec.display,
                res.best_metric,
                res.lssr,
                round(res.sim_time, 2),
                round(res.log.total_comm_time, 2),
            ]
        )
    print(
        render_table(
            ["method", "best_metric", "lssr", "sim_time_s", "comm_time_s"],
            rows,
            title=f"{args.workload} — {args.n_workers} workers, {args.steps} steps",
        )
    )
    return 0


def cmd_workloads(_args) -> int:
    for name in WORKLOADS:
        w = get_workload(name)
        print(
            f"{name}: {w.model_name} on {w.dataset_name} "
            f"(b={w.batch_size}, metric={w.metric})"
        )
    return 0


def cmd_methods(_args) -> int:
    for name, cls in sorted(_TRAINERS.items()):
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        print(f"{name}: {doc}")
    return 0


def cmd_table1(args) -> int:
    from repro.experiments.table1 import DEFAULT_METHODS, DegenerateRowError, run_table1

    def grid(workload, refused=()):
        return run_table1(
            workloads=(workload,),
            methods=[m for m in DEFAULT_METHODS if (workload, m.display) not in refused],
            n_workers=args.n_workers,
            n_steps=args.steps,
            eval_every=args.eval_every,
            data_scale=args.data_scale,
            seed=args.seed,
        )

    rows, refused = [], {}
    for workload in args.workloads.split(","):
        try:
            rows += grid(workload)
        except DegenerateRowError as e:
            # Refused before any training step: the rest of the grid runs.
            refused.update(e.refused)
            rows += grid(workload, e.refused)
    print(render_table1(rows))
    for (w, m), why in refused.items():
        print(f"{w} / {m}: not reproduced ({why})")
    return 0


#: quick-scale runners for the `fig` subcommand (name → zero-arg callable).
def _fig_runners():
    from repro.experiments import figures as F

    return {
        "fig1a": lambda: F.fig1a_relative_throughput(),
        "fig2": lambda: F.fig2_batchsize_scaling(batch_sizes=(16, 64, 256)),
        "fig4": lambda: F.fig4_hessian_vs_gradient(n_steps=40),
        "fig6": lambda: F.fig6_delta_dial(
            deltas=(0.0, 0.1, 1e9), n_workers=2, n_steps=60, data_scale=0.15
        ),
        "fig8a": lambda: F.fig8a_tracker_overhead(n_updates=100),
        "fig8b": lambda: F.fig8b_partition_overhead(repeats=1),
    }


def cmd_fig(args) -> int:
    runners = _fig_runners()
    if args.name not in runners:
        print(f"unknown figure {args.name!r}; choices: {sorted(runners)}")
        return 2
    result = runners[args.name]()
    import pprint

    pprint.pprint(result)
    return 0


def cmd_results(args) -> int:
    """Collate benchmarks/results/*.txt into one report."""
    from pathlib import Path

    results_dir = Path(args.results_dir)
    if not results_dir.is_dir():
        print(f"no results directory at {results_dir}; run the benchmarks first")
        return 1
    files = sorted(results_dir.glob("*.txt"))
    if not files:
        print(f"no result files in {results_dir}")
        return 1
    blocks = []
    for f in files:
        blocks.append(f"## {f.stem}\n\n```\n{f.read_text().rstrip()}\n```")
    report = "# SelSync reproduction — collected benchmark results\n\n" + "\n\n".join(blocks) + "\n"
    out_path = Path(args.output)
    out_path.write_text(report)
    print(f"wrote {out_path} ({len(files)} result blocks)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SelSync reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train one method on one workload")
    _add_workload_args(p_run)
    _add_method_args(p_run)
    p_run.add_argument("--save-log", default=None, help="write run log JSONL here")
    p_run.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="K",
        help="snapshot full trainer state every K steps (requires "
        "--checkpoint-path)",
    )
    p_run.add_argument(
        "--checkpoint-path", default=None, metavar="FILE",
        help="checkpoint file, atomically overwritten at each snapshot",
    )
    p_run.add_argument(
        "--resume", default=None, metavar="FILE",
        help="resume from a checkpoint; continuation is bitwise-identical "
        "to an uninterrupted run",
    )
    p_run.add_argument(
        "--stop-after", type=int, default=None, metavar="K",
        help="simulate a crash: abort right after step K (keep all other "
        "flags identical to the full run, then --resume the checkpoint)",
    )
    p_run.add_argument(
        "--trace", action="store_true",
        help="record a structured event trace and print the run dashboard "
        "(traces are deterministic: byte-identical across executors)",
    )
    p_run.add_argument(
        "--trace-path", default=None, metavar="FILE",
        help="write the event trace as JSONL here (implies --trace)",
    )
    p_run.add_argument(
        "--metrics-summary", default=None, metavar="FILE",
        help="write the run metrics as JSON here (implies --trace)",
    )
    p_run.add_argument(
        "--max-recoveries", type=int, default=None, metavar="N",
        help="wrap the run in a RecoverySupervisor: roll back to the "
        "latest checkpoint and retry up to N times on quorum loss "
        "or divergence",
    )
    p_run.add_argument(
        "--divergence-threshold", type=float, default=None,
        help="replica-spread level the supervisor's watchdog treats as "
        "divergence (requires --max-recoveries)",
    )
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare methods on a workload")
    _add_workload_args(p_cmp)
    _add_method_args(p_cmp)
    p_cmp.add_argument(
        "--methods", default="bsp,selsync", help="comma-separated method names"
    )
    p_cmp.set_defaults(fn=cmd_compare)

    p_wl = sub.add_parser("workloads", help="list available workloads")
    p_wl.set_defaults(fn=cmd_workloads)

    p_m = sub.add_parser("methods", help="list available trainers")
    p_m.set_defaults(fn=cmd_methods)

    p_t1 = sub.add_parser("table1", help="regenerate Table I")
    p_t1.add_argument("--workloads", default="resnet_cifar10")
    p_t1.add_argument("--n-workers", type=int, default=4)
    p_t1.add_argument("--steps", type=int, default=150)
    p_t1.add_argument("--eval-every", type=int, default=30)
    p_t1.add_argument("--data-scale", type=float, default=0.25)
    p_t1.add_argument("--seed", type=int, default=0)
    p_t1.set_defaults(fn=cmd_table1)

    p_fig = sub.add_parser("fig", help="run a figure generator (quick scale)")
    p_fig.add_argument("name", help="e.g. fig1a, fig2, fig4, fig6, fig8a, fig8b")
    p_fig.set_defaults(fn=cmd_fig)

    p_res = sub.add_parser(
        "results", help="collate benchmarks/results/*.txt into one markdown report"
    )
    p_res.add_argument("--results-dir", default="benchmarks/results")
    p_res.add_argument("--output", default="RESULTS.md")
    p_res.set_defaults(fn=cmd_results)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
