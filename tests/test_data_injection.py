"""Tests for randomized data injection (paper §III-E, Eqn. 3)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.injection import DataInjector, injected_batch_size


class TestBatchSizeFormula:
    def test_eqn3_exactly(self):
        """Eqn. (3): b' = b / (1 + αβN). At (0.5, 0.5), N=10, b=32 this is
        32/3.5 ≈ 9. (The paper's §IV-E quotes b'=11, which does not satisfy
        its own Eqn. 3 — we implement the equation; see EXPERIMENTS.md.)"""
        assert injected_batch_size(32, 0.5, 0.5, 10) == 9

    def test_eqn3_heavy_config(self):
        """(0.75, 0.75) at N=10, b=32: 32/6.625 ≈ 5 (paper quotes 6)."""
        assert injected_batch_size(32, 0.75, 0.75, 10) == 5

    def test_no_injection_keeps_b(self):
        assert injected_batch_size(32, 0.0, 0.5, 10) == 32
        assert injected_batch_size(32, 0.5, 0.0, 10) == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            injected_batch_size(0, 0.5, 0.5, 4)
        with pytest.raises(ValueError):
            injected_batch_size(32, 1.5, 0.5, 4)
        with pytest.raises(ValueError):
            injected_batch_size(32, 0.5, 0.5, 0)

    @given(
        b=st.integers(1, 512),
        alpha=st.floats(0.0, 1.0),
        beta=st.floats(0.0, 1.0),
        n=st.integers(1, 64),
    )
    # An exact .5 rounding tie: the bound holds with equality, which float
    # arithmetic overshoots by one ulp.
    @example(b=175, alpha=0.3333333333333333, beta=0.3333333333333333, n=1)
    @settings(max_examples=80, deadline=None)
    def test_cumulative_batch_near_b(self, b, alpha, beta, n):
        """b'(1 + αβN) ≈ b within rounding (plus the b' ≥ 1 floor),
        evaluated exactly."""
        bp = injected_batch_size(b, alpha, beta, n)
        assert 1 <= bp <= b
        factor = 1 + Fraction(alpha) * Fraction(beta) * n
        cumulative = bp * factor
        # Rounding moves b' by ≤ 0.5; the floor can only push cumulative up
        # to `factor` when b is tiny.
        upper = max(b + factor / 2, factor)
        lower = b - factor / 2
        assert lower <= cumulative <= upper


def make_batches(n_workers, b, n_features=4, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (rng.normal(size=(b, n_features)), np.full(b, w))
        for w in range(n_workers)
    ]


class TestDataInjector:
    def test_all_workers_receive_same_pool(self):
        inj = DataInjector(0.5, 0.5, 4, sample_nbytes=32, rng=0)
        batches = make_batches(4, 8)
        res = inj.inject(batches)
        # Injected suffix identical across workers.
        suffix0 = res.batches[0][0][8:]
        for n in range(1, 4):
            assert np.array_equal(res.batches[n][0][8:], suffix0)

    def test_batch_grows_by_pool_size(self):
        inj = DataInjector(0.5, 0.5, 4, rng=0)
        res = inj.inject(make_batches(4, 8))
        pool = 2 * 4  # 2 donors × β·8 samples
        for x, y in res.batches:
            assert len(x) == 8 + pool

    def test_donor_labels_present_in_receivers(self):
        """Receivers see labels they do not own — the non-IID fix."""
        inj = DataInjector(0.5, 1.0, 4, rng=0)
        res = inj.inject(make_batches(4, 6))
        donors = set(res.donors.tolist())
        for n in range(4):
            labels = set(res.batches[n][1].tolist())
            assert donors <= labels

    def test_zero_alpha_is_noop(self):
        inj = DataInjector(0.0, 0.5, 4, rng=0)
        batches = make_batches(4, 8)
        res = inj.inject(batches)
        assert res.bytes_transferred == 0
        for (x, _), (x0, _) in zip(res.batches, batches):
            assert np.array_equal(x, x0)

    def test_bytes_accounting(self):
        inj = DataInjector(0.5, 0.5, 4, sample_nbytes=100, rng=0)
        res = inj.inject(make_batches(4, 8))
        pool = 2 * 4
        assert res.bytes_transferred == pool * 100 * 3  # N-1 receivers

    def test_donor_count(self):
        assert DataInjector(0.5, 0.5, 4).n_donors() == 2
        assert DataInjector(0.6, 0.5, 4).n_donors() == 3  # ceil

    def test_wrong_batch_count_raises(self):
        inj = DataInjector(0.5, 0.5, 4, rng=0)
        with pytest.raises(ValueError):
            inj.inject(make_batches(3, 8))

    def test_donors_vary_across_iterations(self):
        """Per-iteration random donor choice is the privacy mechanism."""
        inj = DataInjector(0.5, 0.5, 8, rng=0)
        donor_sets = set()
        for _ in range(20):
            res = inj.inject(make_batches(8, 4))
            donor_sets.add(tuple(res.donors.tolist()))
        assert len(donor_sets) > 1

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            DataInjector(1.5, 0.5, 4)
