"""Tests for DefDP / SelDP / label-skew partitioning (paper §III-D)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.partition import (
    default_partition,
    label_skew_partition,
    selsync_partition,
)


class TestDefDP:
    def test_disjoint_and_complete(self):
        part = default_partition(100, 4, rng=0)
        all_idx = np.concatenate(part.orders)
        assert len(all_idx) == 100
        assert len(np.unique(all_idx)) == 100  # disjoint cover

    def test_near_equal_sizes(self):
        part = default_partition(10, 3, rng=0)
        sizes = sorted(len(o) for o in part.orders)
        assert sizes == [3, 3, 4]

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError):
            default_partition(2, 4)

    def test_scheme_label(self):
        assert default_partition(8, 2, rng=0).scheme == "defdp"


class TestSelDP:
    def test_every_worker_sees_all_data(self):
        part = selsync_partition(100, 4, rng=0)
        for n in range(4):
            assert len(np.unique(part[n])) == 100

    def test_rotation_structure(self):
        """Worker n's order is worker 0's chunks rotated by n (Fig. 7b)."""
        part = selsync_partition(100, 4, rng=0)
        chunks = np.array_split(part[0], 4)
        for n in range(4):
            expected = np.concatenate(chunks[n:] + chunks[:n])
            assert np.array_equal(part[n], expected)

    def test_first_chunks_disjoint_across_workers(self):
        """At any synchronized step, workers process distinct chunks."""
        part = selsync_partition(100, 4, rng=0)
        heads = [part[n][:25] for n in range(4)]
        combined = np.concatenate(heads)
        assert len(np.unique(combined)) == 100

    def test_same_seed_same_chunks_as_defdp(self):
        """SelDP chunk 0 on worker 0 equals DefDP's chunk for worker 0."""
        d = default_partition(100, 4, rng=7)
        s = selsync_partition(100, 4, rng=7)
        assert np.array_equal(d[0], s[0][:25])

    @given(
        n_samples=st.integers(8, 300),
        n_workers=st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_seldp_is_permutation_property(self, n_samples, n_workers):
        if n_samples < n_workers:
            return
        part = selsync_partition(n_samples, n_workers, rng=0)
        for n in range(n_workers):
            assert np.array_equal(np.sort(part[n]), np.arange(n_samples))


class TestLabelSkew:
    def test_one_label_per_worker(self):
        labels = np.repeat(np.arange(5), 20)  # 5 labels × 20 samples
        part = label_skew_partition(labels, 5, labels_per_worker=1, rng=0)
        for n in range(5):
            assert np.unique(labels[part[n]]).size == 1

    def test_multiple_labels_per_worker(self):
        labels = np.repeat(np.arange(10), 10)
        part = label_skew_partition(labels, 5, labels_per_worker=2, rng=0)
        for n in range(5):
            assert np.unique(labels[part[n]]).size <= 2

    def test_coverage_when_labels_match_workers(self):
        labels = np.repeat(np.arange(4), 10)
        part = label_skew_partition(labels, 4, labels_per_worker=1, rng=0)
        covered = np.unique(labels[np.concatenate(part.orders)])
        assert covered.size == 4

    def test_oversubscribed_labels_split(self):
        """More worker-label slots than labels: samples are shared, nobody
        gets an empty shard."""
        labels = np.repeat(np.arange(2), 30)
        part = label_skew_partition(labels, 4, labels_per_worker=1, rng=0)
        for n in range(4):
            assert len(part[n]) > 0

    def test_invalid_labels_per_worker(self):
        with pytest.raises(ValueError):
            label_skew_partition(np.zeros(10, dtype=int), 2, labels_per_worker=0)

    def test_skew_is_real(self):
        """Per-worker label distribution must differ from the global one —
        that is the entire point of the non-IID experiments."""
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 10, 500)
        part = label_skew_partition(labels, 10, labels_per_worker=1, rng=0)
        global_share = np.unique(labels).size
        for n in range(10):
            assert np.unique(labels[part[n]]).size < global_share
