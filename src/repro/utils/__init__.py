"""Shared utilities: seeded RNG, EWMA smoothing, flattening, registries."""

from repro.utils.rng import RngPool, spawn_rngs, as_rng
from repro.utils.ewma import Ewma
from repro.utils.flatten import flatten_arrays
from repro.utils.registry import Registry
from repro.utils.runlog import RunLog, IterationRecord
from repro.utils.serialization import load_runlog, save_runlog
from repro.utils.asciiplot import line_plot

__all__ = [
    "RngPool",
    "spawn_rngs",
    "as_rng",
    "Ewma",
    "flatten_arrays",
    "Registry",
    "RunLog",
    "IterationRecord",
    "save_runlog",
    "load_runlog",
    "line_plot",
]
