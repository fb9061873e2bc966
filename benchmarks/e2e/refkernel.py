"""The fixed reference kernel host timings are divided by.

This host's clock drifts in slow waves (see ``bench_hotpath.py``), so a raw
step time from one moment does not compare with one from another. The
benchmark therefore times this kernel after every training step and reports
a block's time in *multiples of the kernel's mean time inside that block*:
both readings see the same host speed, so the drift cancels. (One reading
per block boundary was tried first: a single 1 ms reading scatters by a
tenth on its own, which made the ratio noisier than the raw time.)

The kernel is one single-thread GEMM plus an elementwise pass and a
reduction — the same three kinds of numpy work a training step is made of.
Do not edit it: every ``step_cost_ref`` ever recorded is in its units.
"""

from __future__ import annotations

import time

import numpy as np

_N = 256
_RNG = np.random.default_rng(0xE2E)
_A = _RNG.standard_normal((_N, _N))
_B = _RNG.standard_normal((_N, _N))
_OUT = np.empty((_N, _N))


def ref_kernel_s() -> float:
    """Wall seconds of one run of the kernel (about 1 ms)."""
    t0 = time.perf_counter()
    np.matmul(_A, _B, out=_OUT)
    np.tanh(_OUT, out=_OUT)
    _OUT.sum()
    return time.perf_counter() - t0


# -- set-up's reference ----------------------------------------------------------
#: Seconds ``setup_ref_s`` takes on this host, midway between the two speeds
#: it switches between (5.4 and 7.2 ms). A fixed constant, never measured at
#: run time: it only turns a ratio back into seconds, so ``setup_s`` reads
#: like the wall time it is derived from.
SETUP_REF_NOMINAL_S = 0.0065

_EDGES = np.arange(64.0)


def setup_ref_s() -> float:
    """Wall seconds of the reference a set-up is divided by (about 6.5 ms).

    Set-up is half array work (dataset generation, parameter arenas) and
    half interpreter work (per-token sampling, object construction), so this
    is half of each: four runs of the kernel above, then a loop of small
    numpy calls whose time is all call overhead. Do not edit it either.
    """
    t0 = time.perf_counter()
    for _ in range(4):
        ref_kernel_s()
    n = 0
    for i in range(3000):
        n += int(np.searchsorted(_EDGES, i % 64))
    return time.perf_counter() - t0
