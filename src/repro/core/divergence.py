"""Replica-divergence diagnostics.

§III-C's whole argument is about how far local replicas drift from the
global model under different aggregation rules; these helpers quantify that
drift so experiments (and users) can watch it instead of inferring it from
final accuracy.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.cluster.worker import SimWorker


def replica_spread(workers: Sequence[SimWorker]) -> float:
    """Mean L2 distance of each replica from the replica average.

    0 for perfectly consistent replicas (BSP, or SelSync-PA right after a
    sync); grows as workers train locally.
    """
    if len(workers) == 0:
        raise ValueError("no workers")
    params = np.stack([w.get_params() for w in workers])
    center = params.mean(axis=0)
    return float(np.linalg.norm(params - center, axis=1).mean())


class DivergenceTracker:
    """Records replica spread over training for post-hoc analysis.

    Attach by calling :meth:`snapshot` wherever the training loop has all
    workers in hand (e.g. after each trainer ``step``).
    """

    def __init__(self):
        self.steps: List[int] = []
        self.spreads: List[float] = []

    def snapshot(self, step: int, workers: Sequence[SimWorker]) -> float:
        s = replica_spread(workers)
        self.steps.append(step)
        self.spreads.append(s)
        return s

    @property
    def max_spread(self) -> float:
        if not self.spreads:
            raise ValueError("no snapshots recorded")
        return max(self.spreads)

    @property
    def final_spread(self) -> float:
        if not self.spreads:
            raise ValueError("no snapshots recorded")
        return self.spreads[-1]

