"""Tests for loss functions."""

import numpy as np
import pytest

from repro.nn.losses import CrossEntropyLoss, MSELoss, perplexity

RNG = np.random.default_rng(0)


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        loss = CrossEntropyLoss()
        val = loss.forward(np.zeros((4, 10)), np.zeros(4, dtype=int))
        assert val == pytest.approx(np.log(10))

    def test_perfect_prediction_near_zero(self):
        logits = np.full((2, 3), -100.0)
        logits[0, 1] = 100.0
        logits[1, 2] = 100.0
        val = CrossEntropyLoss().forward(logits, np.array([1, 2]))
        assert val == pytest.approx(0.0, abs=1e-6)

    def test_gradient_sums_to_zero_per_sample(self):
        loss = CrossEntropyLoss()
        logits = RNG.normal(size=(5, 4))
        loss.forward(logits, RNG.integers(0, 4, 5))
        g = loss.backward()
        # softmax - onehot rows each sum to 0.
        assert np.allclose(g.sum(axis=-1), 0.0)

    def test_gradient_matches_finite_difference(self):
        logits = RNG.normal(size=(3, 4))
        y = np.array([1, 0, 3])
        loss = CrossEntropyLoss()
        loss.forward(logits, y)
        # Copied: like a layer's dx, the gradient lives in a pooled
        # workspace that the next loss's forward reuses.
        g = loss.backward().copy()
        eps = 1e-6
        for idx in [(0, 1), (2, 3), (1, 2)]:
            lp = logits.copy()
            lp[idx] += eps
            l1 = CrossEntropyLoss().forward(lp, y)
            lp[idx] -= 2 * eps
            l2 = CrossEntropyLoss().forward(lp, y)
            assert g[idx] == pytest.approx((l1 - l2) / (2 * eps), abs=1e-6)

    def test_lm_shape_support(self):
        """(B, T, C) logits with (B, T) targets — the Transformer's path."""
        logits = RNG.normal(size=(2, 5, 8))
        y = RNG.integers(0, 8, (2, 5))
        loss = CrossEntropyLoss()
        loss.forward(logits, y)
        assert loss.backward().shape == (2, 5, 8)

    def test_batch_mismatch_raises(self):
        with pytest.raises(ValueError):
            CrossEntropyLoss().forward(RNG.normal(size=(3, 4)), np.zeros(2, dtype=int))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            CrossEntropyLoss().backward()

    def test_stable_with_extreme_logits(self):
        val = CrossEntropyLoss().forward(
            np.array([[1e5, -1e5, 0.0]]), np.array([0])
        )
        assert np.isfinite(val)


class TestMSE:
    def test_zero_for_exact(self):
        m = MSELoss()
        x = RNG.normal(size=(3, 2))
        assert m.forward(x, x.copy()) == 0.0

    def test_gradient(self):
        m = MSELoss()
        pred = np.array([1.0, 2.0])
        target = np.array([0.0, 0.0])
        m.forward(pred, target)
        assert np.allclose(m.backward(), [1.0, 2.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            MSELoss().forward(np.zeros(2), np.zeros(3))


def test_perplexity():
    assert perplexity(0.0) == 1.0
    assert perplexity(np.log(50.0)) == pytest.approx(50.0)
