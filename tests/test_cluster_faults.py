"""Fault-plan parsing, injector determinism, and degraded-mode training."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.faults import (
    MAX_UPLOAD_RETRIES,
    CrashFault,
    DropFault,
    FaultInjector,
    FaultPlan,
    QuorumLostError,
    StraggleFault,
    canonical_fault_spec,
    parse_fault_spec,
    retry_backoff_seconds,
)
from repro.core import ClusterConfig, SelSyncTrainer, TrainConfig
from repro.cluster.worker import build_worker_group
from repro.data import ArrayDataset, BatchLoader, selsync_partition
from repro.nn.models import build_model
from repro.optim import SGD


# -- spec grammar ------------------------------------------------------------


class TestSpecParsing:
    def test_full_spec_round_trips(self):
        spec = "crash:w2@50-120,straggle:w0x4@30+,drop:p=0.05"
        plan = parse_fault_spec(spec)
        assert plan.crashes == (CrashFault(worker=2, start=50, end=120),)
        assert plan.straggles == (StraggleFault(worker=0, factor=4.0, start=30),)
        assert plan.drops == (DropFault(p=0.05),)
        assert parse_fault_spec(plan.to_spec()) == plan

    def test_empty_and_none_are_empty_plans(self):
        assert parse_fault_spec(None).empty
        assert parse_fault_spec("").empty
        assert parse_fault_spec("  ").empty

    def test_canonical_is_idempotent(self):
        spec = "drop:p=0.1,crash:w1@5-9,crash:w0@2+,straggle:w1x2@0-4"
        once = canonical_fault_spec(spec)
        assert canonical_fault_spec(once) == once

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

    def test_min_quorum_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_workers=4, min_quorum=0)
        with pytest.raises(ValueError):
            ClusterConfig(n_workers=4, min_quorum=5)
        assert ClusterConfig(n_workers=4).effective_quorum == 4
        assert ClusterConfig(n_workers=4, min_quorum=2).effective_quorum == 2


# Property: specs assembled from arbitrary valid clauses survive a
# parse → to_spec → parse cycle, and the canonical form is a fixed point.
_crash = st.builds(
    lambda w, s, d: f"crash:w{w}@{s}-{s + d}" if d else f"crash:w{w}@{s}+",
    st.integers(0, 7), st.integers(0, 99), st.integers(0, 50),
)
_straggle = st.builds(
    lambda w, f, s: f"straggle:w{w}x{f}@{s}+",
    st.integers(0, 7), st.integers(2, 9), st.integers(0, 99),
)
_drop = st.builds(
    lambda w, p: f"drop:w{w}:p={p / 100:.2f}" if w is not None else f"drop:p={p / 100:.2f}",
    st.one_of(st.none(), st.integers(0, 7)), st.integers(1, 99),
)
_corrupt = st.builds(
    lambda w, s, d: f"corrupt:w{w}@{s}-{s + 1 + d}",
    st.integers(0, 7), st.integers(0, 99), st.integers(0, 20),
)


class TestSpecProperties:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.one_of(_crash, _straggle, _drop, _corrupt), min_size=1, max_size=6))
    def test_parse_to_spec_round_trip(self, clauses):
        spec = ",".join(clauses)
        plan = parse_fault_spec(spec)
        assert parse_fault_spec(plan.to_spec()) == plan
        assert canonical_fault_spec(plan.to_spec()) == plan.to_spec()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_same_seed_same_event_sequence(self, seed):
        plan = parse_fault_spec("crash:w1@3-7,straggle:w0x3@2+,drop:p=0.3")
        a = FaultInjector(plan, n_workers=4, seed=seed)
        b = FaultInjector(plan, n_workers=4, seed=seed)
        assert a.event_trace(20) == b.event_trace(20)


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
