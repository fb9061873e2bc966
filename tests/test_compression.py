"""Tests for the gradient-compression comparators (§II-D)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compression import (
    COMPRESSORS,
    DGCCompressor,
    PowerSGDCompressor,
    RandomKCompressor,
    SignSGDCompressor,
    TernGradCompressor,
    TopKCompressor,
    build_compressor,
)

RNG = np.random.default_rng(0)


class TestRegistry:
    def test_all_registered(self):
        for name in ["topk", "randomk", "dgc", "signsgd", "terngrad", "powersgd"]:
            assert name in COMPRESSORS

    def test_buildable(self):
        c = build_compressor("topk", ratio=0.05)
        assert isinstance(c, TopKCompressor)


class TestTopK:
    def test_keeps_largest_magnitudes(self):
        c = TopKCompressor(ratio=0.2, error_feedback=False)
        g = np.array([0.1, -5.0, 0.2, 4.0, 0.05, -0.01, 0.3, 0.02, 0.0, 1.0])
        out = c.decompress(c.compress(g))
        kept = np.flatnonzero(out)
        assert set(kept) == {1, 3}  # the two largest |g|

    def test_reconstruction_matches_on_support(self):
        c = TopKCompressor(ratio=0.3, error_feedback=False)
        g = RNG.normal(size=50)
        out = c.decompress(c.compress(g))
        support = np.flatnonzero(out)
        assert np.allclose(out[support], g[support])

    def test_payload_bytes_scale_with_ratio(self):
        g = RNG.normal(size=1000)
        small = TopKCompressor(ratio=0.01, error_feedback=False).compress(g)
        big = TopKCompressor(ratio=0.5, error_feedback=False).compress(g)
        assert small.nbytes < big.nbytes < 8 * 1000

    def test_error_feedback_accumulates_dropped_mass(self):
        c = TopKCompressor(ratio=0.1, error_feedback=True)
        g = np.ones(100)
        c.compress(g)
        assert c._residual.sum() == pytest.approx(90.0)

    def test_error_feedback_eventually_sends_everything(self):
        """Summed reconstructions converge to summed gradients (EF property)."""
        c = TopKCompressor(ratio=0.2, error_feedback=True)
        g = RNG.normal(size=50)
        total = np.zeros(50)
        for _ in range(40):
            total += c.decompress(c.compress(g))
        assert np.allclose(total / 40, g, atol=0.25)

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            TopKCompressor(ratio=0.0)


class TestRandomK:
    def test_unbiased_in_expectation(self):
        c = RandomKCompressor(ratio=0.25, error_feedback=False, rng=0)
        # Own generator: drawn from the shared module RNG, ``g`` depended on
        # which tests ran first, and ~1 shuffle order in 60 drew a vector
        # whose largest entry misses the 800-sample tolerance.
        g = np.random.default_rng(1).normal(size=40)
        est = np.mean(
            [c.decompress(c.compress(g)) for _ in range(800)], axis=0
        )
        assert np.allclose(est, g, atol=0.4)

    def test_payload_size(self):
        c = RandomKCompressor(ratio=0.1, error_feedback=False, rng=0)
        msg = c.compress(RNG.normal(size=100))
        assert msg.nbytes == 8 * 10


class TestDGC:
    def test_sent_coordinates_cleared(self):
        c = DGCCompressor(ratio=0.1, momentum=0.0)
        g = np.zeros(100)
        g[7] = 100.0
        msg = c.compress(g)
        idx, _ = msg.payload
        assert 7 in idx
        assert c._v[7] == 0.0 and c._u[7] == 0.0

    def test_unsent_coordinates_accumulate(self):
        c = DGCCompressor(ratio=0.01, momentum=0.0)
        g = np.ones(100) * 0.1
        g[0] = 10.0  # only this is sent
        c.compress(g)
        assert c._v[1] == pytest.approx(0.1)
        c.compress(g)
        assert c._v[1] == pytest.approx(0.2)

    def test_momentum_amplifies_unsent_accumulation(self):
        """For a coordinate that never wins top-k, momentum makes the local
        accumulation superlinear relative to plain summation."""
        def accumulated(momentum):
            c = DGCCompressor(ratio=0.01, momentum=momentum)
            g = np.full(100, 0.1)
            g[0] = 10.0  # only index 0 is ever sent
            c.compress(g)
            c.compress(g)
            return c._v[1]

        assert accumulated(0.9) > accumulated(0.0) == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            DGCCompressor(ratio=2.0)
        with pytest.raises(ValueError):
            DGCCompressor(momentum=1.0)


class TestSignSGD:
    def test_preserves_signs(self):
        c = SignSGDCompressor(error_feedback=False)
        g = RNG.normal(size=64)
        out = c.decompress(c.compress(g))
        assert np.array_equal(np.sign(out), np.where(g >= 0, 1.0, -1.0))

    def test_one_bit_per_element(self):
        c = SignSGDCompressor(error_feedback=False)
        msg = c.compress(RNG.normal(size=800))
        assert msg.nbytes == 800 // 8 + 4

    def test_scale_matches_mean_abs(self):
        c = SignSGDCompressor(error_feedback=False)
        g = RNG.normal(size=128)
        out = c.decompress(c.compress(g))
        assert np.allclose(np.abs(out), np.mean(np.abs(g)))


class TestTernGrad:
    def test_values_ternary(self):
        c = TernGradCompressor(rng=0)
        g = RNG.normal(size=200)
        msg = c.compress(g)
        tern, s = msg.payload
        assert set(np.unique(tern)).issubset({-1, 0, 1})
        assert s == pytest.approx(np.abs(g).max())

    def test_unbiased_in_expectation(self):
        c = TernGradCompressor(rng=0)
        g = np.array([0.5, -0.25, 0.0, 1.0])
        est = np.mean([c.decompress(c.compress(g)) for _ in range(3000)], axis=0)
        assert np.allclose(est, g, atol=0.06)

    def test_two_bits_per_element(self):
        msg = TernGradCompressor(rng=0).compress(RNG.normal(size=400))
        assert msg.nbytes == 100 + 4

    def test_zero_gradient(self):
        c = TernGradCompressor(rng=0)
        out = c.decompress(c.compress(np.zeros(16)))
        assert not np.any(out)


class TestPowerSGD:
    def test_rank_one_of_rank_one_matrix_is_exact(self):
        """A genuinely rank-1 gradient must be reconstructed (nearly) exactly
        after the power iteration warms up."""
        c = PowerSGDCompressor(rank=1, error_feedback=False, rng=0)
        u = RNG.normal(size=16)
        v = RNG.normal(size=16)
        g = np.outer(u, v).ravel()
        for _ in range(3):  # warm start converges
            out = c.decompress(c.compress(g))
        assert np.allclose(out, g, rtol=1e-6, atol=1e-9)

    def test_payload_much_smaller_than_dense(self):
        c = PowerSGDCompressor(rank=2, rng=0)
        n = 128 * 128
        msg = c.compress(RNG.normal(size=n))
        assert msg.nbytes < 0.1 * 8 * n

    def test_nonsquare_sizes_handled(self):
        c = PowerSGDCompressor(rank=2, error_feedback=False, rng=0)
        g = RNG.normal(size=106)  # 2 × 53
        out = c.decompress(c.compress(g))
        assert out.shape == g.shape

    def test_error_feedback_improves_fidelity(self):
        """Averaged reconstruction error over many rounds must be smaller
        with error feedback than without (the EF guarantee)."""
        g = np.random.default_rng(3).normal(size=256)

        def mean_error(error_feedback):
            c = PowerSGDCompressor(rank=1, error_feedback=error_feedback, rng=0)
            total = np.zeros_like(g)
            for _ in range(30):
                total += c.decompress(c.compress(g))
            return float(np.abs(total / 30 - g).mean())

        assert mean_error(True) < mean_error(False)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            PowerSGDCompressor(rank=0)


class TestCloneSemantics:
    @pytest.mark.parametrize("name", ["topk", "dgc", "powersgd", "signsgd"])
    def test_clone_state_independent(self, name):
        c = build_compressor(name)
        clone = c.clone()
        g = RNG.normal(size=64)
        c.compress(g)
        # Clone must not have inherited post-compress state mutations.
        assert clone is not c
        clone.compress(g)  # must not raise


@given(ratio=st.floats(0.01, 1.0), n=st.integers(10, 300))
@settings(max_examples=40, deadline=None)
def test_topk_payload_never_exceeds_dense(ratio, n):
    c = TopKCompressor(ratio=ratio, error_feedback=False)
    msg = c.compress(np.random.default_rng(0).normal(size=n))
    assert msg.nbytes <= 8 * n
    out = c.decompress(msg)
    assert out.shape == (n,)
