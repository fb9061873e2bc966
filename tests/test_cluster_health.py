"""HealthTracker unit tests + quarantine/reinstate trainer integration."""

import numpy as np
import pytest

from repro.cluster.health import HealthTracker, QuarantineDecision


def _normal_round(tracker, step, norm=1.0, n=4):
    return tracker.observe(step, {w: norm for w in range(n)})


# ------------------------------------------------------------------ unit


def test_constructor_validation():
    with pytest.raises(ValueError):
        HealthTracker(0)
    with pytest.raises(ValueError):
        HealthTracker(4, threshold=0.0)
    with pytest.raises(ValueError):
        HealthTracker(4, probation=0)
    with pytest.raises(ValueError):
        HealthTracker(4, alpha=0.0)


def test_healthy_cohort_never_flagged():
    t = HealthTracker(4, threshold=3.0)
    for step in range(50):
        assert _normal_round(t, step) == []
    assert t.quarantined_workers == []
    assert all(s < 0.5 for s in t.scores)


def test_norm_outlier_quarantined_after_warmup():
    t = HealthTracker(4, threshold=1.0, alpha=0.5, warmup=3, probation=10)
    flagged = []
    for step in range(20):
        norms = {0: 1.0, 1: 1.0, 2: 1.0, 3: 50.0}
        flagged = t.observe(step, norms)
        if flagged:
            break
    assert len(flagged) == 1
    d = flagged[0]
    assert isinstance(d, QuarantineDecision)
    assert d.worker == 3 and d.reason == "outlier"
    assert d.until == step + 10
    assert t.quarantined(3) and t.quarantined_workers == [3]
    # Score/strike evidence resets on quarantine.
    assert t.scores[3] == 0.0 and t.observed[3] == 0


def test_warmup_blocks_score_quarantine():
    t = HealthTracker(4, threshold=0.1, alpha=1.0, warmup=5)
    for step in range(5):
        assert t.observe(step, {0: 1.0, 1: 1.0, 2: 1.0, 3: 100.0}) == []


def test_nonfinite_strikes_quarantine_without_warmup():
    t = HealthTracker(4, warmup=100)
    assert t.observe(0, {0: 1.0, 1: 1.0, 2: 1.0, 3: float("nan")}) == []
    flagged = t.observe(1, {0: 1.0, 1: 1.0, 2: 1.0, 3: float("inf")})
    assert [d.worker for d in flagged] == [3]
    assert flagged[0].reason == "non_finite"


def test_finite_round_resets_strikes():
    t = HealthTracker(4)
    t.observe(0, {0: 1.0, 1: 1.0, 2: 1.0, 3: float("nan")})
    t.observe(1, {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0})  # recovers
    assert t.strikes[3] == 0
    t.observe(2, {0: 1.0, 1: 1.0, 2: 1.0, 3: float("nan")})
    assert t.quarantined_workers == []  # one strike again, not two


def test_straggler_reason_and_tolerance():
    t = HealthTracker(4, threshold=1.0, alpha=1.0, warmup=0)
    norms = {w: 1.0 for w in range(4)}
    # 2x the median compute time: inside tolerance, no evidence.
    times = {0: 1.0, 1: 1.0, 2: 1.0, 3: 2.0}
    assert t.observe(0, norms, times) == []
    assert t.scores[3] == 0.0
    # 6x: excess = 6 - 3 = 3 > threshold → immediate (warmup=0) flag.
    times = {0: 1.0, 1: 1.0, 2: 1.0, 3: 6.0}
    flagged = t.observe(1, norms, times)
    assert [d.worker for d in flagged] == [3]
    assert flagged[0].reason == "straggler"


def test_small_cohort_has_no_norm_deviation():
    # With < 3 finite peers there is no consensus median to deviate from.
    t = HealthTracker(2, threshold=0.5, alpha=1.0, warmup=0)
    for step in range(10):
        assert t.observe(step, {0: 1.0, 1: 1000.0}) == []


def test_quarantined_worker_is_ignored_until_release():
    t = HealthTracker(4, threshold=1.0, alpha=1.0, warmup=0, probation=5)
    t.observe(0, {0: 1.0, 1: 1.0, 2: 1.0, 3: 99.0})
    assert t.quarantined(3)
    # Observing it again does not accumulate evidence.
    t.observe(1, {0: 1.0, 1: 1.0, 2: 1.0, 3: 99.0})
    assert t.scores[3] == 0.0
    assert t.due_reinstatements(4) == []
    assert t.due_reinstatements(5) == [3]
    t.release(3)
    assert not t.quarantined(3) and t.due_reinstatements(99) == []


def test_state_dict_roundtrip():
    t = HealthTracker(4, threshold=1.0, alpha=1.0, warmup=0, probation=7)
    t.observe(0, {0: 1.0, 1: 1.0, 2: 1.0, 3: 50.0})
    t.observe(1, {0: 1.0, 1: 1.2, 2: float("nan"), 3: 1.0})
    state = t.state_dict()
    # JSON-safe: quarantine keys are strings.
    assert all(isinstance(k, str) for k in state["quarantined_until"])
    t2 = HealthTracker(4, threshold=1.0, alpha=1.0, warmup=0, probation=7)
    t2.load_state_dict(state)
    assert t2.scores == t.scores
    assert t2.strikes == t.strikes
    assert t2.quarantined_until == t.quarantined_until


# ----------------------------------------------------------- integration


def _run(health, fault_spec=None, n_steps=30, method="selsync", params=None):
    from repro.core import TrainConfig
    from repro.experiments.runner import MethodSpec, build_trainer
    from repro.experiments.workloads import build_workload
    from repro.obs import Tracer

    kw = {"health": health, "probation": 8}
    if fault_spec:
        kw.update({"fault_spec": fault_spec, "min_quorum": 2})
    built = build_workload(
        "resnet_cifar10",
        n_workers=4,
        seed=0,
        data_scale=0.05,
        cluster_kwargs=kw,
    )
    tracer = Tracer()
    trainer = build_trainer(MethodSpec(method, params or {}), built)
    try:
        result = trainer.run(
            TrainConfig(n_steps=n_steps, eval_every=n_steps, tracer=tracer)
        )
    finally:
        trainer.executor.shutdown()
    return trainer, result, tracer


def test_health_disabled_is_inert():
    trainer, result, _ = _run(health=False)
    assert trainer.health is None
    assert all(f.kind not in ("quarantine", "reinstate") for f in result.log.faults)


def test_adversarial_worker_is_quarantined_and_reinstated():
    trainer, result, tracer = _run(
        health=True, fault_spec="corrupt:p=0.08", n_steps=60
    )
    kinds = [f.kind for f in result.log.faults]
    assert "quarantine" in kinds
    assert "reinstate" in kinds
    q_events = [e for e in tracer.events if e.etype == "quarantine"]
    r_events = [e for e in tracer.events if e.etype == "reinstate"]
    assert q_events and r_events
    for e in q_events:
        assert e.data["reason"] in ("outlier", "non_finite", "straggler")
        assert e.data["until"] > e.step
    # Reinstatement only ever follows a quarantine of the same worker.
    for e in r_events:
        assert any(
            q.worker == e.worker and q.step < e.step for q in q_events
        )
    # The model survived: finite loss and params all the way through.
    assert np.isfinite(result.log.iterations[-1].loss)
    assert np.isfinite(trainer.mean_params()).all()


def test_health_checkpoint_roundtrip_carries_quarantine_state():
    trainer, _, _ = _run(health=True, fault_spec="corrupt:p=0.15", n_steps=40)
    state = trainer.state_dict()
    assert "health" in state
    # Restore into a fresh trainer; quarantine bookkeeping must survive.
    from repro.experiments.runner import MethodSpec, build_trainer
    from repro.experiments.workloads import build_workload

    built = build_workload(
        "resnet_cifar10",
        n_workers=4,
        seed=0,
        data_scale=0.05,
        # The tracker's settings are hyper-parameters, checked on load.
        cluster_kwargs={"health": True, "probation": 8},
    )
    fresh = build_trainer(MethodSpec("selsync", {}), built)
    try:
        fresh.load_state_dict(state)
        assert fresh.health.state_dict() == trainer.health.state_dict()
    finally:
        fresh.executor.shutdown()


def test_ssp_rejects_health():
    from repro.experiments.runner import MethodSpec, build_trainer
    from repro.experiments.workloads import build_workload

    built = build_workload(
        "resnet_cifar10",
        n_workers=4,
        seed=0,
        data_scale=0.05,
        cluster_kwargs={"health": True},
    )
    with pytest.raises(NotImplementedError):
        build_trainer(MethodSpec("ssp", {}), built)
