"""Tests for the Δ(g_i) tracker — Eqn. (2) of the paper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grad_tracker import RelativeGradChange


class TestFirstIteration:
    def test_first_delta_is_infinite(self):
        """No predecessor ⇒ force a synchronization step."""
        t = RelativeGradChange()
        assert t.update(1.0) == float("inf")


class TestDeltaFormula:
    def test_exact_relative_change_with_alpha_one(self):
        """alpha=1, window=1 disables smoothing: Δ = |(b-a)/a| exactly."""
        t = RelativeGradChange(alpha=1.0, window=1)
        t.update(4.0)
        assert t.update(6.0) == pytest.approx(0.5)
        assert t.update(3.0) == pytest.approx(0.5)

    def test_constant_norms_give_zero(self):
        t = RelativeGradChange(alpha=0.5, window=5)
        t.update(2.0)
        for _ in range(10):
            assert t.update(2.0) == pytest.approx(0.0)

    def test_symmetric_in_direction(self):
        """|Δ| treats rises and falls alike (absolute value in Eqn. 2)."""
        up = RelativeGradChange(alpha=1.0, window=1)
        up.update(2.0)
        d_up = up.update(4.0)
        down = RelativeGradChange(alpha=1.0, window=1)
        down.update(4.0)
        d_down = down.update(2.0)
        assert d_up == pytest.approx(1.0)
        assert d_down == pytest.approx(0.5)  # relative to different base

    def test_smoothing_dampens_spikes(self):
        """EWMA smoothing must yield smaller Δ than the raw ratio."""
        raw = RelativeGradChange(alpha=1.0, window=1)
        smooth = RelativeGradChange(alpha=0.1, window=25)
        for t in (raw, smooth):
            for _ in range(10):
                t.update(1.0)
        assert smooth.update(100.0) < raw.update(100.0)

    def test_zero_previous_norm(self):
        t = RelativeGradChange(alpha=1.0, window=1)
        t.update(0.0)
        assert t.update(0.0) == 0.0
        assert t.update(1.0) == float("inf")

    def test_negative_sqnorm_rejected(self):
        with pytest.raises(ValueError):
            RelativeGradChange().update(-1.0)


class TestMaxDelta:
    def test_tracks_finite_extremum(self):
        t = RelativeGradChange(alpha=1.0, window=1)
        t.update(1.0)  # inf, excluded from M
        t.update(2.0)  # Δ=1.0
        t.update(2.2)  # Δ=0.1
        assert t.max_delta == pytest.approx(1.0)

    def test_reset(self):
        t = RelativeGradChange()
        t.update(1.0)
        t.update(2.0)
        t.reset()
        assert t.n_updates == 0
        assert t.update(3.0) == float("inf")  # no predecessor again


class TestConvergenceBehaviour:
    def test_decaying_gradients_drive_delta_down(self):
        """As ||g||² saturates, Δ(g_i) → 0 — the mechanism that lets SelSync
        go local late in training (paper §II-E)."""
        t = RelativeGradChange(alpha=0.3, window=10)
        norms = 10.0 * np.exp(-0.1 * np.arange(100)) + 1.0
        deltas = [t.update(float(x)) for x in norms]
        assert deltas[-1] < 0.01
        finite = [d for d in deltas[1:] if np.isfinite(d)]
        assert finite[0] > finite[-1]

    @given(
        norms=st.lists(
            st.floats(min_value=1e-6, max_value=1e6), min_size=2, max_size=60
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_delta_nonnegative_property(self, norms):
        t = RelativeGradChange(alpha=0.5, window=10)
        for x in norms:
            assert t.update(x) >= 0.0
