"""RecoverySupervisor: rollback-and-retry on quorum loss and divergence."""

import numpy as np
import pytest

from repro.cluster.faults import QuorumLostError
from repro.core import TrainConfig
from repro.core.recovery import DivergenceExceededError, RecoverySupervisor
from repro.experiments.runner import MethodSpec, build_trainer
from repro.experiments.workloads import build_workload


def _built(fault_spec=None, n_workers=4, **extra):
    kw = dict(extra)
    if fault_spec:
        kw["fault_spec"] = fault_spec
    return build_workload(
        "resnet_cifar10",
        n_workers=n_workers,
        seed=0,
        data_scale=0.05,
        cluster_kwargs=kw,
    )


def _run(trainer, cfg, supervisor=None):
    try:
        if supervisor is not None:
            return supervisor.run(trainer, cfg)
        return trainer.run(cfg)
    finally:
        trainer.executor.shutdown()


# ------------------------------------------------------------- validation


def test_constructor_validation():
    with pytest.raises(ValueError):
        RecoverySupervisor(max_recoveries=-1)
    with pytest.raises(ValueError):
        RecoverySupervisor(divergence_threshold=0.0)


def test_step_monitor_conflict_rejected():
    sup = RecoverySupervisor(divergence_threshold=1.0)
    built = _built()
    trainer = build_trainer(MethodSpec("bsp", {}), built)
    cfg = TrainConfig(n_steps=1, step_monitor=lambda t, i: None)
    try:
        with pytest.raises(ValueError):
            sup.run(trainer, cfg)
    finally:
        trainer.executor.shutdown()


# ------------------------------------------------- fault-free equivalence


def test_fault_free_supervised_run_is_bitwise_identical():
    results = []
    for supervised in (False, True):
        trainer = build_trainer(MethodSpec("selsync", {"delta": 0.3}), _built())
        sup = RecoverySupervisor() if supervised else None
        res = _run(trainer, TrainConfig(n_steps=12, eval_every=6), sup)
        results.append((np.asarray(trainer.mean_params()), res))
    params_a, res_a = results[0]
    params_b, res_b = results[1]
    assert params_a.tobytes() == params_b.tobytes()
    assert [e.metric for e in res_a.log.evals] == [
        e.metric for e in res_b.log.evals
    ]
    assert [f.kind for f in res_b.log.faults] == [
        f.kind for f in res_a.log.faults
    ]


# ------------------------------------------------------------ quorum loss


def test_quorum_loss_aborts_without_supervisor():
    trainer = build_trainer(MethodSpec("bsp", {}), _built("crash:w3@10+"))
    with pytest.raises(QuorumLostError) as exc_info:
        _run(trainer, TrainConfig(n_steps=20))
    assert exc_info.value.step == 10
    assert exc_info.value.contributing == 3


def test_quorum_loss_recovers_with_supervisor():
    trainer = build_trainer(MethodSpec("bsp", {}), _built("crash:w3@10+"))
    sup = RecoverySupervisor(max_recoveries=2)
    res = _run(trainer, TrainConfig(n_steps=20), sup)
    assert len(sup.recoveries) == 1
    rec = sup.recoveries[0]
    assert rec.kind == "recovery"
    assert rec.detail["reason"] == "quorum_lost"
    assert rec.detail["quorum_before"] == 4
    assert rec.detail["quorum_after"] == 3
    assert rec.detail["backoff_s"] == 1.0
    # The quorum was relaxed to the survivor count for the retry.
    assert trainer.fault_protocol.quorum == 3
    # The incident landed on the final run's log as a typed fault record.
    assert [f.kind for f in res.log.faults].count("recovery") == 1
    assert np.isfinite(res.log.iterations[-1].loss)


def test_quorum_loss_resumes_from_checkpoint(tmp_path):
    ck = str(tmp_path / "ck.npz")
    trainer = build_trainer(MethodSpec("bsp", {}), _built("crash:w3@10+"))
    sup = RecoverySupervisor(max_recoveries=2)
    res = _run(
        trainer,
        TrainConfig(
            n_steps=20, checkpoint_every=4, checkpoint_path=ck
        ),
        sup,
    )
    assert len(sup.recoveries) == 1
    # The retry resumed mid-run instead of replaying from step 0: the
    # final log still covers every step exactly once.
    assert [r.step for r in res.log.iterations] == list(range(20))


def test_quorum_loss_exhausts_max_recoveries():
    # Total loss: every worker is down from step 5 to past the end of the
    # run; even a quorum of 1 cannot be met, so each retry fails again until
    # the budget runs out. (Bounded windows: a plan that crashes everyone
    # *for good* is refused when the cluster is configured.)
    spec = ",".join(f"crash:w{w}@5-1000" for w in range(4))
    trainer = build_trainer(MethodSpec("bsp", {}), _built(spec))
    sup = RecoverySupervisor(max_recoveries=2)
    with pytest.raises(QuorumLostError):
        _run(trainer, TrainConfig(n_steps=20), sup)
    # Initial incident + 2 failed retries, with exponential backoff.
    assert len(sup.recoveries) == 3
    assert [r.detail["backoff_s"] for r in sup.recoveries] == [1.0, 2.0, 4.0]


# ------------------------------------------------------------- divergence


def test_divergence_watchdog_trips_and_recovers(tmp_path):
    # Pure local SGD on this workload grows the replica spread ~0.07/step
    # (measured): it crosses 1.5 around step 18 and trips after 3
    # consecutive hot steps. The supervisor rolls back to the latest
    # checkpoint, resyncs every replica to consensus (spread 0), and the
    # remaining steps stay under the threshold.
    ck = str(tmp_path / "ck.npz")
    trainer = build_trainer(MethodSpec("localsgd", {}), _built())
    sup = RecoverySupervisor(max_recoveries=2, divergence_threshold=1.5)
    res = _run(
        trainer,
        TrainConfig(n_steps=30, checkpoint_every=10, checkpoint_path=ck),
        sup,
    )
    assert len(sup.recoveries) == 1
    rec = sup.recoveries[0]
    assert rec.detail["reason"] == "divergence"
    assert rec.detail["spread"] > 1.5
    assert [f.kind for f in res.log.faults].count("recovery") == 1
    # After the resync the run finished below the threshold.
    from repro.core.divergence import replica_spread

    assert replica_spread(trainer.workers) < 1.5


def test_divergence_without_checkpoint_replays_deterministically():
    # No checkpoint: rollback restores the initial snapshot and the retry
    # replays the identical divergent trajectory, so the budget exhausts.
    trainer = build_trainer(MethodSpec("localsgd", {}), _built())
    sup = RecoverySupervisor(max_recoveries=2, divergence_threshold=1.5)
    with pytest.raises(DivergenceExceededError) as exc_info:
        _run(trainer, TrainConfig(n_steps=30), sup)
    assert len(sup.recoveries) == 3
    # Deterministic replay: every attempt tripped at the same step.
    steps = {r.step for r in sup.recoveries}
    assert len(steps) == 1
    assert exc_info.value.step in steps


def test_divergence_before_the_first_checkpoint_rolls_back_to_the_snapshot(tmp_path):
    # A checkpoint path is configured, but the trip (step ~20) comes before
    # the first write (step 25): there is no file to resume from or to
    # rewrite, so this is the no-checkpoint case above — not an OSError
    # from rewriting a checkpoint that does not exist.
    ck = tmp_path / "ck.npz"
    trainer = build_trainer(MethodSpec("localsgd", {}), _built())
    sup = RecoverySupervisor(max_recoveries=2, divergence_threshold=1.5)
    cfg = TrainConfig(n_steps=30, checkpoint_every=25, checkpoint_path=str(ck))
    with pytest.raises(DivergenceExceededError) as exc_info:
        _run(trainer, cfg, sup)
    assert len(sup.recoveries) == 3
    assert {r.step for r in sup.recoveries} == {exc_info.value.step}
    assert exc_info.value.step < 24 and not ck.exists()


def test_no_watchdog_leaves_config_untouched():
    sup = RecoverySupervisor()  # divergence_threshold=None
    cfg = TrainConfig(n_steps=5)
    assert sup._wrap(cfg) is cfg
