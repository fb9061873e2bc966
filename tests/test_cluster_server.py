"""Tests for the parameter server."""

import numpy as np
import pytest

from repro.cluster.server import ParameterServer


@pytest.fixture
def ps():
    return ParameterServer(np.zeros(4))


class TestSynchronous:
    def test_pull_returns_copy(self, ps):
        v = ps.pull()
        v[0] = 99.0
        assert ps.pull()[0] == 0.0

    def test_aggregate_params_sets_mean(self, ps):
        out = ps.aggregate_params([np.full(4, 2.0), np.full(4, 4.0)])
        assert np.allclose(out, 3.0)
        assert np.allclose(ps.pull(), 3.0)

    def test_aggregate_grads_does_not_move_global(self, ps):
        """GA returns the mean but leaves the global state — the divergence
        mechanism of §III-C."""
        mean = ps.aggregate_grads([np.full(4, 2.0), np.full(4, 4.0)])
        assert np.allclose(mean, 3.0)
        assert np.allclose(ps.pull(), 0.0)

    def test_empty_aggregation_raises(self, ps):
        with pytest.raises(ValueError):
            ps.aggregate_params([])

    def test_shape_check(self, ps):
        with pytest.raises(ValueError):
            ps.aggregate_params([np.zeros(3)])


class TestAsynchronous:
    def test_apply_accumulates(self, ps):
        ps.async_apply(np.full(4, 1.0))
        ps.async_apply(np.full(4, 2.0))
        assert np.allclose(ps.pull(), 3.0)

    def test_shape_check(self, ps):
        with pytest.raises(ValueError):
            ps.async_apply(np.zeros(5))

    def test_init_copies(self):
        src = np.zeros(3)
        ps = ParameterServer(src)
        src[0] = 7.0
        assert ps.pull()[0] == 0.0
