"""Tests for EWMA smoothing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.ewma import Ewma


class TestEwmaBasics:
    def test_first_sample_is_identity(self):
        assert Ewma(alpha=0.5, window=10).update(3.0) == 3.0

    def test_constant_series_stays_constant(self):
        e = Ewma(alpha=0.3, window=5)
        for _ in range(20):
            assert e.update(7.0) == pytest.approx(7.0)

    def test_moves_toward_new_level(self):
        e = Ewma(alpha=0.5, window=10)
        e.update(0.0)
        v = e.update(10.0)
        assert 0.0 < v < 10.0

    def test_window_limits_memory(self):
        # With window=1, smoothing sees only the newest sample.
        e = Ewma(alpha=0.5, window=1)
        e.update(100.0)
        assert e.update(2.0) == 2.0

    def test_value_before_update_is_none(self):
        assert Ewma().value is None

    def test_n_samples_caps_at_window(self):
        e = Ewma(window=3)
        for i in range(10):
            e.update(float(i))
        assert e.n_samples == 3

    def test_reset(self):
        e = Ewma()
        e.update(1.0)
        e.reset()
        assert e.value is None and e.n_samples == 0

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            Ewma(alpha=0.0)
        with pytest.raises(ValueError):
            Ewma(alpha=1.5)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            Ewma(window=0)

    def test_rejects_non_finite(self):
        e = Ewma()
        with pytest.raises(ValueError):
            e.update(float("nan"))
        with pytest.raises(ValueError):
            e.update(float("inf"))

    def test_alpha_one_tracks_latest(self):
        e = Ewma(alpha=1.0, window=5)
        e.update(3.0)
        assert e.update(9.0) == 9.0


class TestEwmaProperties:
    @given(
        xs=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50),
        alpha=st.floats(min_value=0.01, max_value=1.0),
        window=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_output_within_window_range(self, xs, alpha, window):
        """Smoothed value is a convex combination of window samples."""
        e = Ewma(alpha=alpha, window=window)
        for i, x in enumerate(xs):
            v = e.update(x)
            recent = xs[max(0, i - window + 1) : i + 1]
            assert min(recent) - 1e-9 <= v <= max(recent) + 1e-9

    @given(
        scale=st.floats(min_value=0.1, max_value=100.0),
        xs=st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_homogeneous(self, scale, xs):
        """EWMA is linear: scaling inputs scales outputs."""
        ea, eb = Ewma(alpha=0.3, window=5), Ewma(alpha=0.3, window=5)
        a = [ea.update(x) for x in xs]
        b = [eb.update(scale * x) for x in xs]
        for va, vb in zip(a, b):
            assert vb == pytest.approx(scale * va, rel=1e-9)
