#!/usr/bin/env python3
"""Byte-identity of this checkout against a parent revision.

    python tools/identity.py --parent HEAD~1
    python tools/identity.py --parent HEAD~1 --expect-differs 'bsp/shards3+trimmed_mean/*:trace'
    python tools/identity.py --parent HEAD~1 --declare 'header.schema,sync_decision.overhead_s'

Clones ``--parent`` with plain ``git clone``, runs the same matrix of small
training runs against both source trees (one subprocess per side, each with
its own ``PYTHONPATH``) and compares, per cell, the sha256 of four
artifacts: the RunLog JSONL, the trace JSONL, every replica's final
parameters and the decoded final checkpoint tree.

The matrix (tier-1 MLP fixture, 4 workers x 30 steps) is rule variant x
scenario x executor: :data:`RULES` x :data:`SCENARIOS` x {serial, process},
plus :data:`EXTRA_CELLS` — among them the conv leg, ``bsp@vgg`` and
``selsync-pa@vgg``: SmallVGG on 16x16 images, batch 16, 12 steps, so "the
conv models did not move" is a verdict of this tool. A cell that raises
counts as equal when both sides raise the same error (SSP refuses health /
elastic; the injector is built for a fixed N).

A second, **resume leg** runs on this checkout only (serial executor,
``checkpoint_every=3``): every rule variant x scenario, and BSP under each
codec of :data:`CODECS`, killed at each step of :data:`KILLS` (SSP at N
times as many landed pushes, the same iterations) and resumed, must equal
its uninterrupted run on all four artifacts (the trace without the resumed
process's header line).

Exit status is non-zero when a cell differs that no ``--expect-differs
'GLOB[:artifact,...]'`` declares (a glob over ``rule/scenario/executor``;
with artifacts named, only those may differ), or when any resume-leg cell
(``rule/scenario/kill@K``; nothing to declare there) is unequal. For each
unequal cell the first differing trace line (or RunLog line, when the
traces agree) is printed with its step and field.

``--declare 'ITEM,...'`` names a trace change every cell may carry: both
sides' traces are normalized before their digests are compared — a
``header.FIELD`` is dropped from the header, an ``ETYPE.FIELD`` from every
event of that type, and an event matching ``ETYPE/KEY=VALUE`` is dropped
whole (the ``seq`` of each ``(step, worker)`` is renumbered after it). No
other artifact can be declared this way.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

N_WORKERS = 4
N_STEPS = 30
VGG_STEPS = 12  # rules named ``<rule>@vgg`` (see :func:`_build`)
KILL_AT = 12
#: resume leg: kill points (multiples of its checkpoint period, 3) before,
#: inside and after the partition / crash / join windows of SCENARIOS
KILLS = (6, 12, 15, 21)
#: resume leg: codecs BSP runs fault-free, beside ``bsp+topk`` in RULES
CODECS = ("randomk", "dgc", "terngrad", "signsgd", "powersgd", "accordion")
ARTIFACTS = ("runlog", "trace", "params", "checkpoint")
EXECUTORS = ("serial", "process")

WORKER_FAULTS = "crash:w1@5-12,straggle:w0x3@3+,drop:p=0.2,corrupt:w2@8,corrupt:p=0.1"

#: scenario -> (ClusterConfig overrides, kill-and-resume?)
SCENARIOS = {
    "fault-free": ({}, False),
    "faults+trimmed_mean+health": (
        dict(fault_spec=WORKER_FAULTS, aggregator="trimmed_mean", trim_f=1,
             health=True, probation=5, min_quorum=1),
        False,
    ),
    "faults+mean": (dict(fault_spec=WORKER_FAULTS, min_quorum=1), False),
    "kill@12+resume": ({}, True),
    "ring+loss+flap": (
        dict(topology="ring", net_fault_spec="loss:p=0.1,flap:link(1,2)x3@1+",
             min_quorum=2),
        False,
    ),
    "ps+loss+partition": (
        dict(net_fault_spec="loss:p=0.1,partition:{w0|w1,w2,w3}@10-20",
             min_quorum=2),
        False,
    ),
    "shards3": (dict(ps_shards=3), False),
    "shards3+loss0.3+retry0": (
        dict(ps_shards=3, net_fault_spec="loss:p=0.3", retry_max=0, min_quorum=1),
        False,
    ),
    "elastic-join+drain": (dict(elastic_spec="join:+2@8,drain:w1@18"), False),
    # A drain and a join at one step under health tracking: the joiner's
    # consensus reads the live set renumbered through the drain.
    "elastic+health": (
        dict(elastic_spec="join:+1@8,drain:w3@8", health=True, probation=5),
        False,
    ),
    # Policy-driven scaling inside the plan's bounds: the comm policy drains
    # toward the floor or joins toward the ceiling, depending on the rule.
    "elastic-scale-comm": (
        dict(elastic_spec="scale:2..6", scale_policy="comm"), False,
    ),
}

#: rule variants; :func:`_build` holds each one's constructor call
RULES = (
    "bsp", "bsp+topk", "selsync-pa", "selsync-ga", "selsync-majority",
    "selsync+injector", "fedavg-c0.5", "easgd-tau2", "localsgd", "ssp",
)

#: cells outside the product: (rule, scenario name, overrides, resume?)
EXTRA_CELLS = (
    ("bsp", "shards3+trimmed_mean",
     dict(ps_shards=3, aggregator="trimmed_mean", trim_f=1), False),
    ("bsp@vgg", "fault-free", {}, False),
    ("selsync-pa@vgg", "fault-free", {}, False),
    # Every live worker pushes while w1 is down. A ring round's seconds
    # depend on its rank count (a PS round at this payload does not), so
    # a pull-back over the live ranks shows in the clock.
    ("fedavg-c1", "ring+crash",
     dict(topology="ring", fault_spec="crash:w1@2-9", min_quorum=1), False),
)


def cells():
    for rule in RULES:
        for scenario, (overrides, resume) in SCENARIOS.items():
            yield rule, scenario, overrides, KILL_AT if resume else None
    for rule, scenario, overrides, resume in EXTRA_CELLS:
        yield rule, scenario, overrides, KILL_AT if resume else None


def resume_cells():
    for rule in RULES:
        for scenario, (overrides, _) in SCENARIOS.items():
            yield rule, scenario, overrides
    for codec in CODECS:
        yield f"bsp+{codec}", "fault-free", {}


# -- one side: run the matrix with whatever ``repro`` is importable ---------
def _build(rule, overrides, executor):
    from repro.cluster import ElasticContext
    from repro.cluster.worker import build_worker_group
    from repro.core import (
        BSPTrainer, ClusterConfig, EASGDTrainer, FedAvgTrainer,
        LocalSGDTrainer, SelSyncTrainer, SSPTrainer,
    )
    from repro.core.compression import TopKCompressor, build_compressor
    from repro.data import BatchLoader, build_dataset, selsync_partition
    from repro.data.injection import DataInjector
    from repro.nn.models import build_model
    from repro.optim import SGD

    rule, _, fixture = rule.partition("@")
    vgg = fixture == "vgg"
    if vgg:
        train, _ = build_dataset(
            "cifar100_like", n_train=256, n_test=16, n_classes=10, rng=0
        )
    else:
        train, _ = build_dataset(
            "blobs", n_train=256, n_test=64, n_features=16, n_classes=4, rng=0
        )
    part = selsync_partition(len(train), N_WORKERS, rng=1)
    loaders = BatchLoader.for_workers(train, part, batch_size=16, seed=2)

    def model_factory():
        if vgg:
            return build_model("smallvgg", n_classes=10, image_size=16, rng=7)
        return build_model("mlp", in_features=16, n_classes=4, hidden=(16,), rng=7)

    def optimizer_factory(m):
        return SGD(m, lr=0.05, momentum=0.9)

    workers = build_worker_group(N_WORKERS, model_factory, optimizer_factory, loaders)
    cluster = ClusterConfig(
        n_workers=N_WORKERS, seed=0, comm_bytes=1e6, flops_per_sample=1e6,
        executor=executor, **{"ps_shards": 1, **overrides},
    )
    make = {
        "bsp": lambda: BSPTrainer(workers, cluster),
        "bsp+topk": lambda: BSPTrainer(
            workers, cluster, compressor=TopKCompressor(ratio=0.1)),
        # 0.25 on the conv leg: its 12 steps then hold syncs and local steps.
        "selsync-pa": lambda: SelSyncTrainer(
            workers, cluster, delta=0.25 if vgg else 0.1),
        "selsync-ga": lambda: SelSyncTrainer(
            workers, cluster, delta=0.1, aggregation="grads"),
        "selsync-majority": lambda: SelSyncTrainer(
            workers, cluster, delta=0.1, sync_vote="majority"),
        "selsync+injector": lambda: SelSyncTrainer(
            workers, cluster, delta=0.1,
            injector=DataInjector(0.5, 0.5, N_WORKERS, sample_nbytes=64, rng=0)),
        "fedavg-c0.5": lambda: FedAvgTrainer(
            workers, cluster, c_fraction=0.5, e_factor=0.25),
        "fedavg-c1": lambda: FedAvgTrainer(
            workers, cluster, c_fraction=1.0, e_factor=0.25),
        "easgd-tau2": lambda: EASGDTrainer(workers, cluster, rho=0.1, tau=2),
        "localsgd": lambda: LocalSGDTrainer(workers, cluster),
        "ssp": lambda: SSPTrainer(workers, cluster, staleness=3),
    }
    if rule not in make:  # bsp+<codec>; seeded where the codec draws
        kw = {"rng": 0} if rule[4:] in ("randomk", "terngrad", "powersgd") else {}
        make[rule] = lambda: BSPTrainer(
            workers, cluster, compressor=build_compressor(rule[4:], **kw))
    trainer = make[rule]()
    if trainer.elastic is not None:
        trainer.bind_elastic(ElasticContext(
            model_factory=model_factory, optimizer_factory=optimizer_factory,
            dataset=train, batch_size=16, partition_fn=selsync_partition,
        ))
    return trainer


def _tree_digest(node, h):
    """Feed a decoded checkpoint tree to ``h``: keys in order, arrays as
    dtype + shape + bytes, everything else as its repr."""
    import numpy as np

    if isinstance(node, dict):
        for k in node:
            h.update(repr(k).encode())
            _tree_digest(node[k], h)
    elif isinstance(node, (list, tuple)):
        h.update(f"[{len(node)}".encode())
        for v in node:
            _tree_digest(v, h)
    elif isinstance(node, np.ndarray):
        h.update(f"{node.dtype}{node.shape}".encode())
        h.update(np.ascontiguousarray(node).tobytes())
    else:
        h.update(repr(node).encode())


def _run_cell(rule, overrides, kill, executor, out: Path, every=6):
    """One cell — killed after ``kill`` steps and resumed, or with ``None``
    uninterrupted: artifacts under ``out``, their digests returned; an
    exception is the cell's result (an equal failure on both sides is equal)."""
    out.mkdir(parents=True)
    try:
        return _run_legs(rule, overrides, kill, executor, out, every)
    except Exception as e:
        return {"error": f"{type(e).__name__}: {e}"}


def _run_legs(rule, overrides, kill, executor, out, every):
    from repro.core import TrainConfig
    from repro.obs import Tracer
    from repro.utils.serialization import RunLogLines, load_checkpoint

    ck = out / "ck.npz"
    legs = [dict(stop_after=kill), dict(resume_from=str(ck))] if kill else [{}]
    for n, leg in enumerate(legs):
        trainer = _build(rule, overrides, executor)
        tracer = Tracer(path=out / f"trace{n}.jsonl", name="identity")
        try:
            res = trainer.run(TrainConfig(
                n_steps=VGG_STEPS if rule.endswith("@vgg") else N_STEPS,
                eval_fn=None, tracer=tracer,
                checkpoint_every=every, checkpoint_path=str(ck),
                **leg,
            ))
        finally:
            trainer.executor.shutdown()
            tracer.close()
    # One header, then every leg's events: what the uninterrupted run writes.
    lines = [(out / f"trace{n}.jsonl").read_text().splitlines(True) for n in range(len(legs))]
    trace = "".join(lines[0][:1] + [ln for leg in lines for ln in leg[1:]])
    (out / "trace.jsonl").write_text(trace)
    runlog = RunLogLines().text(res.log) + "\n"
    (out / "runlog.jsonl").write_text(runlog)
    params, tree = hashlib.sha256(), hashlib.sha256()
    for w in trainer.workers:
        params.update(w.get_params().tobytes())
    _tree_digest(load_checkpoint(ck), tree)
    return {
        "runlog": hashlib.sha256(runlog.encode()).hexdigest(),
        "trace": hashlib.sha256(trace.encode()).hexdigest(),
        "params": params.hexdigest(),
        "checkpoint": tree.hexdigest(),
    }


def _selected(name, only) -> bool:
    return not only or any(fnmatch.fnmatch(name, g) for g in only)


def emit(out_dir: Path, only):
    """Run every selected cell; write artifacts and ``digests.json``."""
    digests = {}
    for rule, scenario, overrides, kill in cells():
        for executor in EXECUTORS:
            name = f"{rule}/{scenario}/{executor}"
            if not _selected(name, only):
                continue
            cell_dir = out_dir / name.replace("/", "__")
            digests[name] = _run_cell(rule, overrides, kill, executor, cell_dir)
    (out_dir / "digests.json").write_text(json.dumps(digests, indent=1))


def resume_leg(out_dir: Path, only) -> int:
    """Kill-and-resume against the uninterrupted run, on the importable
    ``repro`` alone; the number of unequal cells."""
    n = bad = n_failed = 0
    for rule, scenario, overrides in resume_cells():
        # SSP's step is one landed push, N of them per worker iteration.
        scale = N_WORKERS if rule == "ssp" else 1
        kills = [
            k * scale for k in KILLS
            if _selected(f"{rule}/{scenario}/kill@{k * scale}", only)
        ]
        if not kills:
            continue
        whole_dir = out_dir / f"{rule}__{scenario}__uninterrupted"
        whole = _run_cell(rule, overrides, None, "serial", whole_dir, every=3)
        for k in kills:
            cell_dir = out_dir / f"{rule}__{scenario}__kill@{k}"
            got = _run_cell(rule, overrides, k, "serial", cell_dir, every=3)
            n += 1
            n_failed += got == whole and "error" in got
            if got != whole:
                bad += 1
                differing = sorted(a for a in set(whole) | set(got) if whole.get(a) != got.get(a))
                print(f"  resume differs: {rule}/{scenario}/kill@{k}: {', '.join(differing)}")
                print(explain(whole_dir, cell_dir, ("uninterrupted", "resumed"), whole, got))
    print(
        f"resume leg: {n} cells: {n - bad} equal ({n_failed} of them equal "
        f"failures), {bad} unequal"
    )
    return bad


# -- the comparison -----------------------------------------------------------
#: what names an event (a trace line's ``etype``, a RunLog line's ``kind``);
#: compared before its other fields
IDENTITY_KEYS = ("etype", "kind", "step", "worker")


def _event_key(line: str):
    rec = json.loads(line)
    return tuple(rec.get(k) for k in IDENTITY_KEYS)


def _first_difference(a, b, path=""):
    """``(field path, a's value, b's value)`` of the first difference, the
    top level's :data:`IDENTITY_KEYS` first."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys = sorted(set(a) | set(b))
        if not path:  # an event's identity before its fields
            keys = [k for k in IDENTITY_KEYS if k in keys] + [
                k for k in keys if k not in IDENTITY_KEYS
            ]
        for k in keys:
            if a.get(k) != b.get(k) or (k in a) != (k in b):
                return _first_difference(a.get(k), b.get(k), f"{path}.{k}" if path else k)
    return path or "<line>", a, b


def _one_sided(old, new, n):
    """The side (0: ``old``, 1: ``new``) whose line ``n`` is an event the
    other side lacks: the one whose later lines reach the other side's event
    at ``n`` sooner. ``None`` when neither reaches it."""
    keys = [[_event_key(line) for line in lines[n:]] for lines in (old, new)]
    reach = {
        s: keys[s].index(keys[1 - s][0], 1)
        for s in (0, 1) if keys[1 - s][0] in keys[s][1:]
    }
    return min(reach, key=reach.get) if reach else None


def normalize(trace: str, declared) -> str:
    """``trace`` (JSONL text) without what ``declared`` names: header
    fields, event fields and whole events (see the module docstring)."""
    fields, events = defaultdict(set), []
    for item in declared:
        if "/" in item:
            etype, _, cond = item.partition("/")
            key, _, value = cond.partition("=")
            events.append((etype, key, value))
        else:
            etype, _, name = item.partition(".")
            fields[etype].add(name)
    lines = trace.splitlines()
    header = {k: v for k, v in json.loads(lines[0]).items() if k not in fields["header"]}
    out, seq = [json.dumps(header, sort_keys=True)], {}
    for line in lines[1:]:
        rec = json.loads(line)
        data = rec["data"]
        if any(rec["etype"] == e and str(data.get(k)) == v for e, k, v in events):
            continue
        for name in fields[rec["etype"]]:
            data.pop(name, None)
        key = (rec["step"], rec["worker"])
        rec["seq"] = seq.get(key, 0)
        seq[key] = rec["seq"] + 1
        out.append(json.dumps(rec, sort_keys=True))
    return "\n".join(out) + "\n"


def _declare(out_dir: Path, digests, declared) -> None:
    """Replace each cell's trace digest by its normalized trace's, written
    beside it as ``trace.declared.jsonl``."""
    for name, cell in digests.items():
        if "error" in cell:
            continue
        d = out_dir / name.replace("/", "__")
        text = normalize((d / "trace.jsonl").read_text(), declared)
        (d / "trace.declared.jsonl").write_text(text)
        cell["trace"] = hashlib.sha256(text.encode()).hexdigest()


def explain(a_dir: Path, b_dir: Path, sides, a, b, trace="trace.jsonl") -> str:
    """Name the first trace (else RunLog) line on which two runs of a cell
    (directories ``a_dir`` / ``b_dir``, digests ``a`` / ``b``) disagree;
    ``trace`` names the trace file compared."""
    if "error" in a or "error" in b:
        return "\n".join(
            f"    {side}: {d.get('error', 'ran')}" for side, d in zip(sides, (a, b))
        )
    for artifact, name in (("trace", trace), ("runlog", "runlog.jsonl")):
        old = (a_dir / name).read_text().splitlines()
        new = (b_dir / name).read_text().splitlines()
        for n, (lo, ln) in enumerate(zip(old, new)):
            if lo != ln:
                o, c = json.loads(lo), json.loads(ln)
                field, vo, vc = _first_difference(o, c)
                kind = o.get("etype", o.get("kind"))
                side = _one_sided(old, new, n) if field in IDENTITY_KEYS else None
                if side is not None:
                    rec, line = (o, lo) if side == 0 else (c, ln)
                    return (
                        f"    first differing {artifact} line {n + 1}: step "
                        f"{rec.get('step')} worker {rec.get('worker', -1)} "
                        f"{rec.get('etype', rec.get('kind'))} on the {sides[side]} side only\n"
                        f"      {sides[side]}: {line}"
                    )
                return (
                    f"    first differing {artifact} line {n + 1}: step "
                    f"{o.get('step')} worker {o.get('worker', -1)} {kind}, "
                    f"field {field}: {sides[0]} {vo!r} vs {sides[1]} {vc!r}\n"
                    f"      {sides[0]}: {lo}\n      {sides[1]}: {ln}"
                )
        if len(old) != len(new):
            return (
                f"    {artifact} lengths differ after {min(len(old), len(new))} "
                f"equal lines: {sides[0]} {len(old)} vs {sides[1]} {len(new)}"
            )
    return "    traces and RunLogs agree line for line"


def compare(parent_dir: Path, change_dir: Path, expected, normalized=()) -> int:
    old = json.loads((parent_dir / "digests.json").read_text())
    new = json.loads((change_dir / "digests.json").read_text())
    if normalized:
        _declare(parent_dir, old, normalized)
        _declare(change_dir, new, normalized)
    n_equal = n_failed = 0
    declared, undeclared = [], []
    for name in new:
        if old[name] == new[name]:
            n_equal += 1
            n_failed += "error" in new[name]
            continue
        differing = sorted(
            k for k in set(old[name]) | set(new[name])
            if old[name].get(k) != new[name].get(k)
        )
        allowed = [
            arts for glob, arts in expected
            if fnmatch.fnmatch(name, glob) and (not arts or set(differing) <= arts)
        ]
        (declared if allowed else undeclared).append((name, differing))
    for title, rows in (("declared", declared), ("UNDECLARED", undeclared)):
        for name, differing in rows:
            print(f"  differs ({title}): {name}: {', '.join(differing)}")
            cell = name.replace("/", "__")
            print(explain(parent_dir / cell, change_dir / cell, ("parent", "change"),
                          old[name], new[name],
                          "trace.declared.jsonl" if normalized else "trace.jsonl"))
    print(
        f"{len(new)} cells: {n_equal} equal ({n_failed} of them equal failures), "
        f"{len(declared)} declared different, {len(undeclared)} undeclared different"
    )
    return 1 if undeclared else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="revision to compare this checkout against")
    ap.add_argument(
        "--expect-differs", action="append", default=[], metavar="GLOB[:ARTIFACTS]",
        help="declare cells (rule/scenario/executor glob) that may differ, "
        f"optionally only in the named artifacts ({', '.join(ARTIFACTS)})",
    )
    ap.add_argument(
        "--declare", action="append", default=[], metavar="ITEM[,ITEM...]",
        help="trace changes every cell may carry, normalized away before the "
        "comparison: header.FIELD, ETYPE.FIELD or ETYPE/KEY=VALUE (whole events)",
    )
    ap.add_argument("--only", action="append", default=[], metavar="GLOB",
                    help="run only the cells matching GLOB")
    ap.add_argument("--keep", metavar="DIR",
                    help="leave both sides' artifacts under DIR")
    ap.add_argument("--emit", metavar="DIR", help=argparse.SUPPRESS)
    ap.add_argument("--emit-resume", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.emit:
        emit(Path(args.emit), args.only)
        return 0
    if args.emit_resume:
        return 1 if resume_leg(Path(args.emit_resume), args.only) else 0
    if not args.parent:
        ap.error("--parent is required")
    expected = []
    for item in args.expect_differs:
        glob, _, arts = item.partition(":")
        expected.append((glob, set(arts.split(",")) if arts else set()))
    repo = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        work = Path(args.keep) if args.keep else Path(tmp)
        work.mkdir(parents=True, exist_ok=True)
        clone = work / "parent-src"
        subprocess.run(["git", "clone", "-q", str(repo), str(clone)], check=True)
        subprocess.run(
            ["git", "-C", str(clone), "checkout", "-q", "--detach", args.parent],
            check=True,
        )
        def side(flag, name, src):
            cmd = [sys.executable, str(Path(__file__).resolve()), flag, str(work / name)]
            for g in args.only:
                cmd += ["--only", g]
            env = {**os.environ, "PYTHONPATH": str(src)}
            return subprocess.Popen(cmd, env=env, cwd=str(work))

        procs = {
            "parent": side("--emit", "parent", clone / "src"),
            "change": side("--emit", "change", repo / "src"),
        }
        failed = [name for name, p in procs.items() if p.wait() != 0]
        if failed:
            print(f"matrix run failed on: {', '.join(failed)}", file=sys.stderr)
            return 2
        normalized = [i for item in args.declare for i in item.split(",") if i]
        status = compare(work / "parent", work / "change", expected, normalized)
        return side("--emit-resume", "resume", repo / "src").wait() or status


if __name__ == "__main__":
    sys.exit(main())
