"""Direct tests for the stateless functional kernels, the activation layers
whose kernels moved out of ``functional`` into their workspace layers, and
the softmax references the differential tests hold the attention to."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layers import GELU, ReLU
from tests.test_nn_fastpath_differential import softmax, softmax_backward

RNG = np.random.default_rng(0)


class TestActivations:
    def test_relu_clamps(self):
        x = np.array([-2.0, 0.0, 3.0])
        assert np.array_equal(ReLU().forward(x), [0.0, 0.0, 3.0])

    def test_gelu_asymptotes(self):
        assert GELU().forward(np.array([10.0]))[0] == pytest.approx(10.0, rel=1e-4)
        assert GELU().forward(np.array([-10.0]))[0] == pytest.approx(0.0, abs=1e-4)

    def test_gelu_grad_matches_finite_difference(self):
        x = RNG.normal(size=16)
        eps = 1e-6
        act = GELU()
        num = (act.forward(x + eps).copy() - act.forward(x - eps)) / (2 * eps)
        act.forward(x)
        ana = act.backward(np.ones_like(x))
        assert np.allclose(num, ana, atol=1e-6)


class TestSoftmaxBackward:
    def test_matches_jacobian(self):
        """softmax_backward must equal Jᵀ·g with J the softmax Jacobian."""
        x = RNG.normal(size=5)
        p = softmax(x)
        g = RNG.normal(size=5)
        jac = np.diag(p) - np.outer(p, p)
        expected = jac @ g
        assert np.allclose(softmax_backward(p, g), expected)


class TestConvPlumbing:
    def test_conv_out_size(self):
        assert F.conv_out_size(8, 3, 1, 0) == 6
        assert F.conv_out_size(8, 3, 2, 1) == 4
        with pytest.raises(ValueError):
            F.conv_out_size(2, 5, 1, 0)

    def test_im2col_patch_content(self):
        """The first row of the patch matrix is the top-left receptive field."""
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        cols, oh, ow = F.im2col(x, 2, 2, 1, 0)
        assert (oh, ow) == (3, 3)
        assert np.array_equal(cols[0], [0, 1, 4, 5])
        assert np.array_equal(cols[-1], [10, 11, 14, 15])

    def test_im2col_channel_layout(self):
        x = RNG.normal(size=(1, 2, 3, 3))
        cols, _, _ = F.im2col(x, 3, 3, 1, 0)
        # Single output position: channels concatenated in order.
        assert np.allclose(cols[0][:9], x[0, 0].ravel())
        assert np.allclose(cols[0][9:], x[0, 1].ravel())

    def test_col2im_counts_overlaps(self):
        """Every input position accumulates once per patch covering it."""
        x_shape = (1, 1, 3, 3)
        cols = np.ones((4, 4))  # 2x2 kernel, stride 1 → 4 patches of 4 taps
        back = F.col2im(cols, x_shape, 2, 2, 1, 0)
        # Center pixel is covered by all 4 patches, corners by exactly 1.
        assert back[0, 0, 1, 1] == 4.0
        assert back[0, 0, 0, 0] == 1.0
