"""A finished run leaves no reference cycle behind.

The simulator runs every replica in one process, and a study builds many
trainers in turn. A trainer that is part of a reference cycle outlives its
last reference until a generation-2 collection happens to run, and its
replicas, arenas and workspaces pile up with the next run's. Each test
builds, runs and drops one run with the cyclic collector off; whatever
``gc.collect()`` then finds was kept alive only by a cycle.
"""

import gc
import types
from collections import Counter
from dataclasses import replace

import pytest

from repro.core import SelSyncTrainer, TrainConfig
from repro.core.evaluation import accuracy_eval
from repro.experiments.runner import _TRAINERS, MethodSpec, run_method
from repro.experiments.workloads import build_workload
from repro.obs import Tracer

from tests.conftest import make_mlp_cluster

FIXTURES = {
    "transformer_wikitext": None,
    "vgg_cifar100": {"n_classes": 30},
}


def cyclic_garbage(run, ignore=lambda obj: False) -> Counter:
    """What a collection frees after ``run()`` and its locals are gone, by
    type name, leaving out what ``ignore`` accepts."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return Counter(type(o).__name__ for o in gc.garbage if not ignore(o))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def header_parse(obj) -> bool:
    """Part of ``ast.literal_eval``'s nested helpers (the functions, their
    cells and closure tuples), which form a cycle on every call. numpy parses
    each ``.npy`` member's header with it, so each checkpoint read leaves
    one; the run has no part in it."""
    if isinstance(obj, types.CellType):
        obj = obj.cell_contents
    if isinstance(obj, tuple):
        return bool(obj) and all(map(header_parse, obj))
    return isinstance(obj, types.FunctionType) and obj.__qualname__.startswith(
        "literal_eval."
    )


@pytest.mark.parametrize("kind", sorted(_TRAINERS))
@pytest.mark.parametrize("wname", sorted(FIXTURES))
def test_a_dropped_run_is_freed_at_once(wname, kind):
    def run():
        built = build_workload(
            wname, n_workers=2, n_steps=6, data_scale=0.15, seed=0,
            dataset_overrides=FIXTURES[wname],
        )
        res = run_method(MethodSpec(kind), built, n_steps=6, eval_every=3)
        assert res.steps == 6

    assert cyclic_garbage(run) == {}


def test_a_traced_checkpointed_faulted_run_is_freed_at_once(blobs_data, tmp_path):
    train, test = blobs_data

    def run():
        workers, cluster = make_mlp_cluster(train, n_workers=8)
        cluster = replace(
            cluster,
            ps_shards=4,
            fault_spec="crash:w2@6-14,straggle:w0x4@2+,drop:p=0.05,corrupt:p=0.02",
            net_fault_spec="loss:p=0.02,delay:link(0,3)x5",
            min_quorum=4,
            aggregator="trimmed_mean",
            trim_f=2,
            health=True,
        )
        trainer = SelSyncTrainer(workers, cluster, delta=0.1, aggregation="params")
        tracer = Tracer(path=tmp_path / "trace.jsonl", name="chaos")
        cfg = TrainConfig(
            n_steps=20,
            eval_every=5,
            eval_fn=accuracy_eval(test),
            higher_is_better=True,
            checkpoint_every=5,
            checkpoint_path=str(tmp_path / "ckpt.npz"),
            tracer=tracer,
        )
        try:
            res = trainer.run(cfg)
        finally:
            tracer.close()
            trainer.executor.shutdown()
        assert res.steps == 20 and (tmp_path / "ckpt.npz").exists()

    # w2's restart reads the checkpoint back.
    assert cyclic_garbage(run, ignore=header_parse) == {}
