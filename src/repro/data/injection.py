"""Randomized data-injection for non-IID training (paper §III-E).

Each iteration, a random ``α``-fraction of workers is selected; each selected
worker shares a ``β``-fraction of its local mini-batch with every worker.
Workers therefore train on their ``b'`` local samples plus the injected pool,
and the local batch size is shrunk to ``b' = b / (1 + αβN)`` (Eqn. 3) so the
effective batch stays at the configured ``b`` — avoiding the large-batch
generalization penalty the paper cites.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from repro.utils.rng import RngLike, as_rng
from repro.utils.state import Captured


def injected_batch_size(b: int, alpha: float, beta: float, n_workers: int) -> int:
    """Eqn. (3): local batch size ``b'`` such that ``b'(1 + αβN) = b``,
    rounded to nearest (ties to even) in exact arithmetic over the given
    floats, so ``|b'(1 + αβN) − b| ≤ (1 + αβN) / 2`` holds exactly."""
    if b < 1:
        raise ValueError(f"batch size must be >= 1, got {b}")
    if not 0.0 <= alpha <= 1.0 or not 0.0 <= beta <= 1.0:
        raise ValueError(f"alpha/beta must be in [0, 1], got {alpha}, {beta}")
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    return max(1, round(b / (1 + Fraction(alpha) * Fraction(beta) * n_workers)))


@dataclass
class InjectionResult:
    """One iteration's injection outcome."""

    batches: List[Tuple[np.ndarray, np.ndarray]]
    donors: np.ndarray
    bytes_transferred: int


class DataInjector(Captured):
    """Applies per-iteration randomized data injection across worker batches.

    Parameters
    ----------
    alpha / beta:
        Fraction of workers selected as donors, and fraction of each donor's
        local batch that is shared.
    sample_nbytes:
        Per-sample payload size, used to account the (small) transfer cost
        the paper quantifies (§III-E: ~132 KB/iter at 16 workers on CIFAR).
    rng:
        Donor / sample selection stream — the injector's only evolving
        state; :class:`~repro.core.selsync.SelSyncTrainer` checkpoints the
        injector whole.
    """

    def __init__(
        self,
        alpha: float,
        beta: float,
        n_workers: int,
        sample_nbytes: int = 0,
        rng: RngLike = None,
    ):
        if not 0.0 <= alpha <= 1.0 or not 0.0 <= beta <= 1.0:
            raise ValueError(f"alpha/beta must be in [0, 1], got {alpha}, {beta}")
        self.alpha = alpha
        self.beta = beta
        self.n_workers = n_workers
        self.sample_nbytes = sample_nbytes
        self.rng = as_rng(rng)

    def n_donors(self) -> int:
        return int(np.ceil(self.alpha * self.n_workers))

    def inject(
        self, batches: Sequence[Tuple[np.ndarray, np.ndarray]]
    ) -> InjectionResult:
        """Mix donor samples into every worker's batch for this iteration.

        ``batches[n]`` is worker ``n``'s local ``(x, y)`` mini-batch of size
        ``b'``. Donors are drawn uniformly without replacement each call
        (per-iteration anonymity: K-anonymity over the cluster).
        """
        if len(batches) != self.n_workers:
            raise ValueError(
                f"expected {self.n_workers} batches, got {len(batches)}"
            )
        k = self.n_donors()
        if k == 0 or self.beta == 0.0:
            return InjectionResult(list(batches), np.zeros(0, dtype=int), 0)
        donors = np.sort(self.rng.choice(self.n_workers, size=k, replace=False))

        pool_x, pool_y = [], []
        for d in donors:
            x, y = batches[d]
            share = max(1, int(round(self.beta * len(x))))
            sel = self.rng.choice(len(x), size=min(share, len(x)), replace=False)
            pool_x.append(x[sel])
            pool_y.append(y[sel])
        px = np.concatenate(pool_x)
        py = np.concatenate(pool_y)

        out = []
        for n in range(self.n_workers):
            x, y = batches[n]
            out.append((np.concatenate([x, px]), np.concatenate([y, py])))

        # Each receiver pulls the pool once; donors' own copies are local.
        nbytes = int(len(px) * self.sample_nbytes * (self.n_workers - 1))
        return InjectionResult(out, donors, nbytes)
