"""End-to-end acceptance regression for resilient collectives (slow).

SmallVGG/8w SelSync — the acceptance configuration:

* under ``loss:p=0.05`` the retry envelope absorbs the losses: final
  accuracy stays within 2% of the fault-free run (in practice the retry
  schedule delivers every message, so the *trajectory* is unchanged and
  only simulated time grows);
* with retries disabled (``retry_max=0``) the same loss process
  measurably degrades the run — uploads are abandoned, rounds aggregate
  partial information, and the PS degraded-round ledger ticks.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import FedAvgTrainer, TrainConfig
from repro.experiments.runner import MethodSpec, run_method
from repro.experiments.workloads import build_workload
from repro.obs import Tracer
from tests.conftest import make_mlp_cluster

pytestmark = pytest.mark.slow

LOSS_SPEC = "loss:p=0.05"


def _vgg_run(net_fault_spec=None, retry_max=4):
    kw = {}
    if net_fault_spec:
        kw.update(
            {
                "net_fault_spec": net_fault_spec,
                "retry_max": retry_max,
                "min_quorum": 2,
            }
        )
    built = build_workload(
        "vgg_cifar100",
        n_workers=8,
        seed=0,
        data_scale=0.15,
        partition_scheme="seldp",
        cluster_kwargs=kw,
        dataset_overrides={"n_classes": 10},
    )
    res = run_method(
        MethodSpec("selsync", {"delta": 0.3}), built, n_steps=120,
        eval_every=120,
    )
    return res.log.evals[-1].metric, res


@pytest.fixture(scope="module")
def clean():
    return _vgg_run()


@pytest.fixture(scope="module")
def lossy_with_retries():
    return _vgg_run(LOSS_SPEC, retry_max=4)


@pytest.fixture(scope="module")
def lossy_no_retries():
    return _vgg_run(LOSS_SPEC, retry_max=0)


def test_fault_free_baseline_learns(clean):
    acc, _ = clean
    # Measured 0.9444 at this configuration (same bar as the robust
    # aggregation suite).
    assert acc >= 0.85


def test_retries_hold_fault_free_accuracy(clean, lossy_with_retries):
    clean_acc, _ = clean
    lossy_acc, res = lossy_with_retries
    # The acceptance bar: within 2% of the fault-free final accuracy.
    assert lossy_acc >= clean_acc - 0.02
    assert np.isfinite(res.log.iterations[-1].loss)


def test_no_retries_measurably_degrades(lossy_no_retries):
    acc, res = lossy_no_retries
    # Single-shot sends under p=0.05: uploads are abandoned and rounds
    # proceed on partial information. The degradation must be visible in
    # the fault ledger even when the accuracy hit is mild.
    drops = [f for f in res.log.faults if f.kind == "link_drop"]
    assert len(drops) >= 5
    assert np.isfinite(res.log.iterations[-1].loss)
    assert np.isfinite(acc)


def test_retry_run_charges_more_simulated_time(clean, lossy_with_retries):
    _, res_clean = clean
    _, res_lossy = lossy_with_retries
    t_clean = sum(r.sim_time for r in res_clean.log.iterations)
    t_lossy = sum(r.sim_time for r in res_lossy.log.iterations)
    # Retries cost simulated seconds (timeouts + backoff), never bytes.
    assert t_lossy > t_clean


def test_fedavg_on_a_flapping_ring_pins_its_pull_back(blobs_data):
    """A FedAvg round is charged twice under link faults: its C-sample's
    push round goes to the byte ledger (``charge_sync``), and its pull-back
    half-round over the live workers (``SimGroup.pull``) adds a
    ``collective`` with ``op="pull"`` and no bytes. The pull-back is not a
    pure query: it travels the healed sync schedule, so it reroutes the
    ring too (``reroute`` events with ``op="sync"``, ``comm.reroutes``)."""
    workers, cluster = make_mlp_cluster(blobs_data[0])
    cluster = dataclasses.replace(
        cluster,
        topology="ring",
        net_fault_spec="flap:link(1,2)x3@1+",
        min_quorum=2,
        ps_shards=1,
    )
    trainer = FedAvgTrainer(workers, cluster, c_fraction=0.5, e_factor=0.25)
    tracer = Tracer(name="fedavg-flap")
    res = trainer.run(TrainConfig(n_steps=12, eval_fn=None, tracer=tracer))
    assert res.log.n_synced == 3
    reroutes = [e for e in tracer.events if e.etype == "reroute"]
    assert [e.step for e in reroutes] == [3, 3, 7, 7, 11]
    assert all(e.data["op"] == "sync" for e in reroutes)
    assert tracer.metrics.get("comm.reroutes") == 5
    assert not tracer.metrics.get("comm.retry_wait_s")
    assert not any(e.etype == "retry" for e in tracer.events)
    # One ledger entry and one ``sync`` collective per round: the push
    # round's (its two pushers' bytes); the pull-back half-round adds no
    # ledger entry.
    assert trainer.group.bytes_synced == 3 * 2 * int(cluster.comm_bytes)
    syncs = [
        e for e in tracer.events if e.etype == "collective" and e.data["op"] == "sync"
    ]
    assert [e.step for e in syncs] == [3, 7, 11]
    assert trainer.group.bytes_synced == sum(e.data["bytes"] for e in syncs) > 0
    pulls = [
        e for e in tracer.events if e.etype == "collective" and e.data["op"] == "pull"
    ]
    assert [(e.step, e.data["ranks"], e.data["bytes"]) for e in pulls] == [
        (3, 4, 0.0), (7, 4, 0.0), (11, 4, 0.0)
    ]
