"""Weight initializers.

All initializers take an explicit RNG so model construction is deterministic
per worker — in BSP every worker must start from identical parameters (the
paper's GA/PA equivalence argument assumes it), which the cluster enforces by
seeding every replica identically and then broadcasting from the PS.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RngLike, as_rng


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)


def ones(shape) -> np.ndarray:
    return np.ones(shape, dtype=np.float64)


def normal(shape, std: float = 0.01, rng: RngLike = None) -> np.ndarray:
    return as_rng(rng).normal(0.0, std, size=shape)


def uniform(shape, bound: float, rng: RngLike = None) -> np.ndarray:
    return as_rng(rng).uniform(-bound, bound, size=shape)


def _fan_in_out(shape) -> tuple:
    """Fan-in/fan-out for dense (out, in) and conv (out, in, kh, kw) shapes."""
    if len(shape) == 2:
        fan_out, fan_in = shape
    elif len(shape) == 4:
        receptive = shape[2] * shape[3]
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    else:
        n = int(np.prod(shape))
        fan_in = fan_out = max(1, n)
    return fan_in, fan_out


def kaiming_normal(shape, rng: RngLike = None) -> np.ndarray:
    """He initialization — the right default before ReLU nonlinearities."""
    fan_in, _ = _fan_in_out(shape)
    std = np.sqrt(2.0 / fan_in)
    return as_rng(rng).normal(0.0, std, size=shape)
