"""Tests for the compute-time model."""

import numpy as np
import pytest

from repro.cluster.compute import (
    BACKWARD_FACTOR,
    K80_EFFECTIVE_FLOPS,
    V100_EFFECTIVE_FLOPS,
    ComputeModel,
)


class TestMeanTime:
    def test_formula(self):
        cm = ComputeModel(1, device_flops=1e12, jitter_sigma=0.0)
        t = cm.mean_time(1e9, 32)
        assert t == pytest.approx(BACKWARD_FACTOR * 1e9 * 32 / 1e12)

    def test_linear_in_batch(self):
        """Fig. 2a's claim: compute time scales with batch size."""
        cm = ComputeModel(1, jitter_sigma=0.0)
        assert cm.mean_time(1e9, 64) == pytest.approx(2 * cm.mean_time(1e9, 32))

    def test_k80_slower_than_v100(self):
        k80 = ComputeModel(1, device_flops=K80_EFFECTIVE_FLOPS, jitter_sigma=0.0)
        v100 = ComputeModel(1, device_flops=V100_EFFECTIVE_FLOPS, jitter_sigma=0.0)
        assert k80.mean_time(1e9, 32) > v100.mean_time(1e9, 32)

    def test_validation(self):
        cm = ComputeModel(2, jitter_sigma=0.0)
        with pytest.raises(ValueError):
            cm.mean_time(1e9, 0)
        with pytest.raises(IndexError):
            cm.mean_time(1e9, 32, worker=5)
        with pytest.raises(ValueError):
            ComputeModel(0)
        with pytest.raises(ValueError):
            ComputeModel(2, device_flops=-1)


class TestHeterogeneity:
    def test_slow_workers_take_longer(self):
        cm = ComputeModel(2, speeds=[1.0, 0.5], jitter_sigma=0.0)
        assert cm.mean_time(1e9, 32, worker=1) == pytest.approx(
            2 * cm.mean_time(1e9, 32, worker=0)
        )

    def test_speeds_shape_enforced(self):
        with pytest.raises(ValueError):
            ComputeModel(3, speeds=[1.0, 1.0])

    def test_speeds_positive(self):
        with pytest.raises(ValueError):
            ComputeModel(2, speeds=[1.0, 0.0])


class TestSampling:
    def test_jitter_zero_is_deterministic(self):
        cm = ComputeModel(4, jitter_sigma=0.0, rng=0)
        a = cm.sample_all(1e9, 32)
        b = cm.sample_all(1e9, 32)
        assert np.array_equal(a, b)

    def test_jitter_produces_spread(self):
        cm = ComputeModel(4, jitter_sigma=0.2, rng=0)
        samples = np.stack([cm.sample_all(1e9, 32) for _ in range(50)])
        assert samples.std() > 0.0

    def test_sample_all_shape(self):
        cm = ComputeModel(8, jitter_sigma=0.0)
        assert cm.sample_all(1e9, 32).shape == (8,)

    def test_jitter_mean_near_nominal(self):
        cm = ComputeModel(1, jitter_sigma=0.05, rng=0)
        nominal = cm.mean_time(1e9, 32)
        draws = [cm.sample_time(1e9, 32, 0) for _ in range(300)]
        assert np.mean(draws) == pytest.approx(nominal, rel=0.05)
