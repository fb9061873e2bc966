"""Tests for weight initializers."""

import numpy as np
import pytest

from repro.nn import init


class TestBasicInits:
    def test_zeros_ones(self):
        assert not np.any(init.zeros((3, 4)))
        assert np.all(init.ones((3, 4)) == 1.0)

    def test_normal_std(self):
        w = init.normal((200, 200), std=0.5, rng=0)
        assert w.std() == pytest.approx(0.5, rel=0.05)

    def test_uniform_bound(self):
        w = init.uniform((100, 100), bound=0.3, rng=0)
        assert w.min() >= -0.3 and w.max() <= 0.3

    def test_deterministic_with_seed(self):
        a = init.normal((4, 4), rng=7)
        b = init.normal((4, 4), rng=7)
        assert np.array_equal(a, b)


class TestFanComputation:
    def test_dense_shape(self):
        fan_in, fan_out = init._fan_in_out((8, 3))  # (out, in)
        assert fan_in == 3 and fan_out == 8

    def test_conv_shape(self):
        fan_in, fan_out = init._fan_in_out((16, 4, 3, 3))
        assert fan_in == 4 * 9
        assert fan_out == 16 * 9

    def test_vector_shape_fallback(self):
        fan_in, fan_out = init._fan_in_out((10,))
        assert fan_in == fan_out == 10


class TestKaiming:
    def test_variance_matches_he_formula(self):
        """Var = 2 / fan_in for ReLU gain."""
        w = init.kaiming_normal((256, 128), rng=0)
        assert w.var() == pytest.approx(2.0 / 128, rel=0.1)

    def test_conv_variance(self):
        w = init.kaiming_normal((64, 16, 3, 3), rng=0)
        assert w.var() == pytest.approx(2.0 / (16 * 9), rel=0.1)
