"""Fault-plan parsing, injector determinism, and degraded-mode training."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.faults import (
    MAX_UPLOAD_RETRIES,
    FaultInjector,
    QuorumLostError,
    retry_backoff_seconds,
)
from repro.utils.spec import Clause, parse_spec
from repro.core import ClusterConfig, SelSyncTrainer, TrainConfig
from repro.cluster.worker import build_worker_group
from repro.data import ArrayDataset, BatchLoader, selsync_partition
from repro.nn.models import build_model
from repro.optim import SGD


# -- spec grammar (the table-driven suite is tests/test_spec_grammar.py) ------

parse_fault_spec = partial(parse_spec, family="worker")


class TestSpecParsing:
    def test_full_spec_round_trips(self):
        spec = "crash:w2@50-120,straggle:w0x4@30+,drop:p=0.05"
        plan = parse_fault_spec(spec)
        assert plan.of("crash") == (Clause("crash", 2, None, 50, 120),)
        assert plan.of("straggle") == (Clause("straggle", 0, 4.0, 30),)
        assert plan.of("drop") == (Clause("drop", None, 0.05),)
        assert parse_fault_spec(plan.to_spec()) == plan

    def test_empty_and_none_are_empty_plans(self):
        assert parse_fault_spec(None).empty
        assert parse_fault_spec("").empty
        assert parse_fault_spec("  ").empty

    @pytest.mark.parametrize(
        "bad",
        [
            "crash:w1",  # no window
            "crash:w1@9-5",  # end before start
            "straggle:w0x0@0+",  # factor must be positive
            "drop:p=1.5",  # probability > 1
            "corrupt:w0@5+",  # corruption must be bounded
            "teleport:w0@3",  # unknown kind
        ],
    )
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)

    def test_worker_out_of_range_rejected_at_config_time(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_workers=2, fault_spec="crash:w5@3+")

    def test_plan_that_crashes_every_worker_for_good_rejected_at_config_time(self):
        """It used to be accepted and die at step 0 with a quorum error."""
        with pytest.raises(ValueError, match="crash:w0@0\\+,crash:w1@3\\+.*all 2 workers"):
            ClusterConfig(n_workers=2, fault_spec="crash:w1@3+,crash:w0@0+")
        with pytest.raises(ValueError, match="all 1 workers"):
            FaultInjector(parse_fault_spec("crash:w0@5"), 1)
        # Someone survives, or everyone comes back: runnable.
        ClusterConfig(n_workers=3, fault_spec="crash:w1@3+,crash:w0@0+")
        ClusterConfig(n_workers=2, fault_spec="crash:w1@3-9,crash:w0@0+")
        ClusterConfig(
            n_workers=8, fault_spec="crash:w0@0+,crash:w1@0+,crash:w2@0+,crash:w3@0+"
        )

    def test_min_quorum_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_workers=4, min_quorum=0)
        with pytest.raises(ValueError):
            ClusterConfig(n_workers=4, min_quorum=5)
        assert ClusterConfig(n_workers=4).effective_quorum == 4
        assert ClusterConfig(n_workers=4, min_quorum=2).effective_quorum == 2


def event_trace(injector: FaultInjector, n_steps: int) -> list:
    """Flat, ordered list of every event the plan injects in
    ``[0, n_steps)`` — the property-test surface for determinism."""
    trace = []
    for step in range(n_steps):
        sf = injector.begin_step(step)
        for w in sf.crashed:
            trace.append(("crash", step, w))
        for w in sf.rejoined:
            trace.append(("rejoin", step, w))
        for w in sf.live:
            f = injector.straggle_factor(w, step)
            if f != 1.0:
                trace.append(("straggle", step, w, f))
            retries, lost = injector.upload_retries(w, step)
            if retries:
                trace.append(("drop", step, w, retries, lost))
        for w in sf.corrupted:
            trace.append(("corrupt", step, w))
        for w in sf.adversarial:
            trace.append(("adv_corrupt", step, w))
    return trace


class TestSpecProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_same_seed_same_event_sequence(self, seed):
        plan = parse_fault_spec("crash:w1@3-7,straggle:w0x3@2+,drop:p=0.3")
        a = FaultInjector(plan, n_workers=4, seed=seed)
        b = FaultInjector(plan, n_workers=4, seed=seed)
        assert event_trace(a, 20) == event_trace(b, 20)


# -- injector semantics ------------------------------------------------------


class TestInjector:
    def test_disabled_injector_is_inert(self):
        inj = FaultInjector.disabled(4)
        assert not inj.active
        sf = inj.begin_step(0)
        assert sf.live == [0, 1, 2, 3]
        assert sf.crashed == [] and sf.rejoined == [] and sf.corrupted == []

    def test_crash_window_transitions(self):
        inj = FaultInjector(parse_fault_spec("crash:w1@3-5"), 3)
        assert inj.begin_step(2).live == [0, 1, 2]
        sf3 = inj.begin_step(3)
        assert sf3.crashed == [1] and sf3.live == [0, 2]
        assert inj.begin_step(4).crashed == []  # already down
        sf5 = inj.begin_step(5)
        assert sf5.rejoined == [1] and sf5.live == [0, 1, 2]

    def test_overlapping_straggles_multiply(self):
        inj = FaultInjector(parse_fault_spec("straggle:w0x2@0+,straggle:w0x3@5-10"), 2)
        assert inj.straggle_factor(0, 0) == 2.0
        assert inj.straggle_factor(0, 5) == 6.0
        assert inj.straggle_factor(1, 5) == 1.0

    def test_certain_drop_abandons_upload(self):
        inj = FaultInjector(parse_fault_spec("drop:p=1.0"), 2, seed=0)
        retries, lost = inj.upload_retries(0, 0)
        assert retries == MAX_UPLOAD_RETRIES and lost

    def test_drop_outside_window_never_retries(self):
        inj = FaultInjector(parse_fault_spec("drop:p=1.0@50+"), 2, seed=0)
        assert inj.upload_retries(0, 0) == (0, False)

    def test_zero_drop_probability_rejected(self):
        with pytest.raises(ValueError):
            parse_fault_spec("drop:p=0.0")

    def test_backoff_is_exponential(self):
        assert retry_backoff_seconds(0) == 0.0
        assert retry_backoff_seconds(2) == pytest.approx(3 * retry_backoff_seconds(1))

    def test_corrupt_gradient_injects_nonfinite(self):
        inj = FaultInjector(parse_fault_spec("corrupt:w0@0-1"), 1, seed=3)
        g = inj.corrupt_gradient(0, 0, np.zeros(256))
        assert not np.isfinite(g).all()

    def test_event_trace_independent_of_query_order(self):
        """Fault draws are keyed on (seed, worker, step): querying workers
        in any order — as a concurrent executor would — changes nothing."""
        plan = parse_fault_spec("drop:p=0.4")
        a = FaultInjector(plan, 4, seed=9)
        b = FaultInjector(plan, 4, seed=9)
        fwd = [a.upload_retries(w, s) for s in range(10) for w in range(4)]
        rev = [b.upload_retries(w, s) for s in reversed(range(10)) for w in reversed(range(4))]
        assert fwd == list(reversed(rev))


# -- executor-independence under a live trainer ------------------------------


def _mlp_workers(n, lr=0.1, n_samples=64):
    rng = np.random.default_rng(0)
    ds = ArrayDataset(rng.normal(size=(n_samples, 8)), rng.integers(0, 3, n_samples))
    part = selsync_partition(n_samples, n, rng=1)
    loaders = BatchLoader.for_workers(ds, part, batch_size=8, seed=2)
    return build_worker_group(
        n,
        lambda: build_model("mlp", in_features=8, n_classes=3, rng=5),
        lambda m: SGD(m, lr=lr),
        loaders,
    )


class TestExecutorIndependence:
    def test_faulted_run_identical_serial_vs_process(self):
        spec = "crash:w2@3-6,straggle:w0x3@2+,drop:p=0.2"
        results = {}
        for kind in ("serial", "process"):
            workers = _mlp_workers(4)
            cluster = ClusterConfig(
                n_workers=4, comm_bytes=1e6, flops_per_sample=1e6,
                fault_spec=spec, min_quorum=2, executor=kind,
            )
            trainer = SelSyncTrainer(workers, cluster, delta=0.1)
            res = trainer.run(TrainConfig(n_steps=10, eval_every=10, eval_fn=None))
            results[kind] = (
                [w.get_params() for w in workers],
                [(f.step, f.worker, f.kind) for f in res.log.faults],
            )
            trainer.executor.shutdown()
        for ps, pt in zip(*[r[0] for r in results.values()]):
            np.testing.assert_array_equal(ps, pt)
        assert results["serial"][1] == results["process"][1]

    def test_quorum_lost_raises_same_step_both_executors(self):
        spec = "crash:w1@4+,crash:w2@4+,crash:w3@4+"
        for kind in ("serial", "process"):
            workers = _mlp_workers(4)
            cluster = ClusterConfig(
                n_workers=4, comm_bytes=1e6, flops_per_sample=1e6,
                fault_spec=spec, min_quorum=2, executor=kind,
            )
            trainer = SelSyncTrainer(workers, cluster, delta=0.1)
            with pytest.raises(QuorumLostError, match="step 4"):
                trainer.run(TrainConfig(n_steps=10, eval_every=10, eval_fn=None))
            trainer.executor.shutdown()
