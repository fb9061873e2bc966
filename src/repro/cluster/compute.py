"""Per-worker compute-time model.

Iteration time in the paper decomposes as ``t_it = t_c + t_s`` (§II-A); this
module produces ``t_c``. A worker's compute time for one step is::

    t_c = 3 · flops_per_sample · batch / (device_flops · speed_n) · jitter

(the factor 3 covers forward + ~2× backward). ``speed_n`` models systems
heterogeneity — SSP's reason to exist — and ``jitter`` models run-to-run
variance (stragglers).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.utils.rng import RngLike, as_rng

#: Effective sustained throughput we credit a V100 for these workloads.
#: (Peak FP32 is 14 TFLOPs; sustained training throughput is far lower.)
V100_EFFECTIVE_FLOPS = 2.0e12

#: K80 for the Fig. 2a batch-size study.
K80_EFFECTIVE_FLOPS = 0.6e12

BACKWARD_FACTOR = 3.0  # forward + backward ≈ 3x forward FLOPs


class ComputeModel:
    """Samples per-worker, per-iteration compute times.

    Parameters
    ----------
    device_flops:
        Sustained FLOP/s of the reference device.
    speeds:
        Optional per-worker relative speed multipliers (1.0 = reference).
        Length fixes the worker count this model serves.
    jitter_sigma:
        Log-normal sigma of per-step noise; 0 disables it. Real clusters
        show a few percent; straggler studies crank this up.
    """

    def __init__(
        self,
        n_workers: int,
        device_flops: float = V100_EFFECTIVE_FLOPS,
        speeds: Optional[Sequence[float]] = None,
        jitter_sigma: float = 0.02,
        rng: RngLike = None,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if device_flops <= 0:
            raise ValueError(f"device_flops must be positive, got {device_flops}")
        if jitter_sigma < 0:
            raise ValueError(f"jitter_sigma must be >= 0, got {jitter_sigma}")
        self.n_workers = n_workers
        self.device_flops = device_flops
        if speeds is None:
            speeds = np.ones(n_workers)
        speeds = np.asarray(speeds, dtype=np.float64)
        if speeds.shape != (n_workers,):
            raise ValueError(
                f"speeds must have shape ({n_workers},), got {speeds.shape}"
            )
        if (speeds <= 0).any():
            raise ValueError("worker speeds must be positive")
        self.speeds = speeds
        self.jitter_sigma = jitter_sigma
        self.rng = as_rng(rng)

    def mean_time(self, flops_per_sample: float, batch_size: int, worker: int = 0) -> float:
        """Expected compute time for one step (no jitter)."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if not 0 <= worker < self.n_workers:
            raise IndexError(f"worker {worker} out of range [0, {self.n_workers})")
        work = BACKWARD_FACTOR * flops_per_sample * batch_size
        return work / (self.device_flops * self.speeds[worker])

    def sample_time(self, flops_per_sample: float, batch_size: int, worker: int) -> float:
        """One noisy compute-time draw for worker ``worker``."""
        t = self.mean_time(flops_per_sample, batch_size, worker)
        if self.jitter_sigma > 0:
            t *= float(self.rng.lognormal(0.0, self.jitter_sigma))
        return t

    def sample_all(self, flops_per_sample: float, batch_size: int) -> np.ndarray:
        """Compute-time draws for every worker this step (vectorized)."""
        base = (
            BACKWARD_FACTOR
            * flops_per_sample
            * batch_size
            / (self.device_flops * self.speeds)
        )
        if self.jitter_sigma > 0:
            base = base * self.rng.lognormal(0.0, self.jitter_sigma, self.n_workers)
        return base
