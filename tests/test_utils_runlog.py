"""Tests for RunLog and the LSSR metric (paper Eqn. 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.runlog import EvalRecord, IterationRecord, RunLog


def make_log(synced_flags, sim_times=None):
    log = RunLog("t")
    for i, s in enumerate(synced_flags):
        log.record_iteration(
            IterationRecord(
                step=i,
                synced=s,
                sim_time=1.0 if sim_times is None else sim_times[i],
                comm_time=0.5 if s else 0.0,
                loss=float(i),
            )
        )
    return log


class TestLssr:
    def test_pure_bsp_is_zero(self):
        assert make_log([True] * 10).lssr() == 0.0

    def test_pure_local_is_one(self):
        assert make_log([False] * 10).lssr() == 1.0

    def test_mixed(self):
        assert make_log([True, False, False, False]).lssr() == 0.75

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            RunLog().lssr()

    @given(st.lists(st.booleans(), min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_lssr_in_unit_interval(self, flags):
        assert 0.0 <= make_log(flags).lssr() <= 1.0


class TestAggregates:
    def test_totals(self):
        log = make_log([True, False], sim_times=[2.0, 3.0])
        assert log.total_sim_time == 5.0
        assert log.total_comm_time == 0.5
        assert log.n_steps == 2
        assert log.n_synced == 1
        assert log.n_local == 1

    def test_losses_array(self):
        log = make_log([True, True, True])
        assert np.array_equal(log.losses(), [0.0, 1.0, 2.0])

    def test_grad_changes_nan_when_untracked(self):
        log = make_log([True])
        assert np.isnan(log.grad_changes()).all()

    def test_eval_curve_and_best(self):
        log = make_log([True])
        log.record_eval(EvalRecord(step=0, epoch=0.1, sim_time=1.0, metric=0.5))
        log.record_eval(EvalRecord(step=1, epoch=0.2, sim_time=2.0, metric=0.8))
        steps, metrics = log.eval_curve()
        assert list(steps) == [0, 1]
        assert log.best_metric(higher_is_better=True) == 0.8
        assert log.best_metric(higher_is_better=False) == 0.5
        assert log.final_metric() == 0.8

    def test_best_metric_empty_raises(self):
        with pytest.raises(ValueError):
            make_log([True]).best_metric()

    def test_summary_keys(self):
        log = make_log([True, False])
        log.record_eval(EvalRecord(step=1, epoch=0.2, sim_time=2.0, metric=0.9))
        s = log.summary()
        assert s["steps"] == 2.0
        assert s["lssr"] == 0.5
        assert s["final_metric"] == 0.9
