"""Mini-batch loader over a worker's partition order."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.data.dataset import Dataset
from repro.data.partition import Partition
from repro.utils.rng import RngLike, as_rng
from repro.utils.state import Captured


class BatchLoader(Captured):
    """Sequential mini-batch iterator over one worker's index order.

    Walks the order cyclically; after each full pass (one worker-epoch) the
    order is locally reshuffled *within* its original chunk structure when
    ``reshuffle`` is on — preserving SelDP's chunk rotation while decorrelating
    batches across epochs. Its checkpoint is the (possibly reshuffled) order,
    the cursor / epoch position and the reshuffle RNG: the exact batch stream.
    """

    _structure = ("dataset",)

    def __init__(
        self,
        dataset: Dataset,
        order: np.ndarray,
        batch_size: int,
        reshuffle: bool = True,
        rng: RngLike = None,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if len(order) == 0:
            raise ValueError("empty sample order")
        self.dataset = dataset
        self.order = np.asarray(order).copy()
        self.batch_size = int(batch_size)
        self.reshuffle = reshuffle
        self.rng = as_rng(rng)
        self._cursor = 0
        self._epoch = 0

    @property
    def epoch(self) -> int:
        """Completed passes over this worker's order."""
        return self._epoch

    @property
    def steps_per_epoch(self) -> int:
        return max(1, len(self.order) // self.batch_size)

    @property
    def fractional_epoch(self) -> float:
        """Continuous epoch counter (used for FedAvg's E-interval syncing)."""
        return self._epoch + self._cursor / max(1, len(self.order))

    def next_batch(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the next ``(inputs, targets)`` mini-batch, wrapping epochs."""
        n = len(self.order)
        if self._cursor + self.batch_size > n:
            self._wrap()
        idx = self.order[self._cursor : self._cursor + self.batch_size]
        self._cursor += self.batch_size
        return self.dataset.get_batch(idx)

    def _wrap(self) -> None:
        self._epoch += 1
        self._cursor = 0
        if self.reshuffle:
            # Shuffle within the whole order. For SelDP this mildly blurs
            # chunk boundaries after the first epoch, which matches the
            # paper's goal (every worker sees all data) while keeping the
            # first-epoch rotation exact.
            self.rng.shuffle(self.order)

    @classmethod
    def for_workers(
        cls,
        dataset: Dataset,
        partition: Partition,
        batch_size: int,
        reshuffle: bool = True,
        seed: int = 0,
    ):
        """One loader per worker, each with an independent RNG stream."""
        from repro.utils.rng import spawn_rngs

        rngs = spawn_rngs(seed, partition.n_workers)
        return [
            cls(dataset, partition[n], batch_size, reshuffle=reshuffle, rng=rngs[n])
            for n in range(partition.n_workers)
        ]
