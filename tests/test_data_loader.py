"""Tests for the mini-batch loader."""

import numpy as np
import pytest

from repro.data import ArrayDataset, BatchLoader, selsync_partition


@pytest.fixture
def dataset():
    return ArrayDataset(np.arange(40.0).reshape(20, 2), np.arange(20))


class TestBatchLoader:
    def test_sequential_first_epoch(self, dataset):
        order = np.arange(20)
        loader = BatchLoader(dataset, order, batch_size=5, reshuffle=False, rng=0)
        _, y = loader.next_batch()
        assert list(y) == [0, 1, 2, 3, 4]
        _, y = loader.next_batch()
        assert list(y) == [5, 6, 7, 8, 9]

    def test_epoch_wraps(self, dataset):
        loader = BatchLoader(dataset, np.arange(20), batch_size=8, reshuffle=False, rng=0)
        assert loader.epoch == 0
        loader.next_batch()
        loader.next_batch()
        loader.next_batch()  # 24 > 20 → wrap
        assert loader.epoch == 1

    def test_fractional_epoch_monotone(self, dataset):
        loader = BatchLoader(dataset, np.arange(20), batch_size=5, rng=0)
        vals = []
        for _ in range(10):
            vals.append(loader.fractional_epoch)
            loader.next_batch()
        assert vals == sorted(vals)

    def test_steps_per_epoch(self, dataset):
        loader = BatchLoader(dataset, np.arange(20), batch_size=6, rng=0)
        assert loader.steps_per_epoch == 3

    def test_reshuffle_changes_order(self, dataset):
        loader = BatchLoader(dataset, np.arange(20), batch_size=20, reshuffle=True, rng=0)
        _, y1 = loader.next_batch()
        _, y2 = loader.next_batch()
        assert not np.array_equal(y1, y2)
        assert np.array_equal(np.sort(y2), np.arange(20))  # still a permutation

    def test_no_reshuffle_repeats_order(self, dataset):
        loader = BatchLoader(dataset, np.arange(20), batch_size=20, reshuffle=False, rng=0)
        _, y1 = loader.next_batch()
        _, y2 = loader.next_batch()
        assert np.array_equal(y1, y2)

    def test_validation(self, dataset):
        with pytest.raises(ValueError):
            BatchLoader(dataset, np.arange(20), batch_size=0)
        with pytest.raises(ValueError):
            BatchLoader(dataset, np.zeros(0, dtype=int), batch_size=2)

    def test_for_workers_builds_independent_loaders(self, dataset):
        part = selsync_partition(20, 4, rng=0)
        loaders = BatchLoader.for_workers(dataset, part, batch_size=5, seed=0)
        assert len(loaders) == 4
        # Each loader walks its own rotated order.
        ys = [lo.next_batch()[1] for lo in loaders]
        combined = np.concatenate(ys)
        assert len(np.unique(combined)) == 20  # distinct chunks per worker
