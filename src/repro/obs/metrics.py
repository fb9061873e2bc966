"""In-memory metrics: counters, gauges and histograms with summaries.

The :class:`MetricsRegistry` is the numeric companion of the event trace
(:mod:`repro.obs.trace`): while the trace records *what happened*, the
registry accumulates *how much* — bytes moved, steps synced, per-step time
distributions. Summaries are deterministic regardless of observation order
(histogram statistics are computed over the sorted sample), so a registry
filled from several threads reports the same numbers as one filled
serially.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

import numpy as np

#: Percentiles reported by histogram summaries.
HISTOGRAM_PERCENTILES = (50.0, 90.0, 99.0)


class Counter:
    """Monotonically increasing sum (bytes, events, syncs)."""

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: cannot add {amount} < 0")
        self.value += amount


class Gauge:
    """Last-write-wins scalar (current staleness, live workers)."""

    def __init__(self, name: str):
        self.name = name
        self.value: float = float("nan")

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Sample collector with deterministic percentile summaries.

    All observations are retained (simulation runs are small — thousands of
    steps); the summary sorts before reducing so the statistics do not
    depend on the order threads happened to observe in.
    """

    def __init__(self, name: str):
        self.name = name
        self._values: List[float] = []

    def observe(self, value: float) -> None:
        v = float(value)
        if v == 0.0:
            # Canonicalize -0.0: sorting is stable, so otherwise min/max
            # could report a signed zero that depends on observation order.
            v = 0.0
        self._values.append(v)

    @property
    def count(self) -> int:
        return len(self._values)

    def summary(self) -> Dict[str, float]:
        if not self._values:
            return {"count": 0}
        arr = np.sort(np.asarray(self._values, dtype=np.float64))
        out = {
            "count": int(arr.size),
            "mean": float(arr.mean()),
            "min": float(arr[0]),
            "max": float(arr[-1]),
        }
        for p in HISTOGRAM_PERCENTILES:
            out[f"p{p:g}"] = float(np.percentile(arr, p))
        return out


class MetricsRegistry:
    """Named counters/gauges/histograms behind one lock.

    The lock guards only the name→instrument maps (first-use creation may
    race when callers emit from several threads); individual updates are plain float
    adds/appends, safe under the GIL and order-insensitive by construction.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument access -------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                c = self._counters[name] = Counter(name)
            return c

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                g = self._gauges[name] = Gauge(name)
            return g

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = Histogram(name)
            return h

    # -- shorthands --------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        # Lock-free once the counter exists: the lock guards creation only.
        (self._counters.get(name) or self.counter(name)).inc(amount)

    def set(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def get(self, name: str) -> Optional[float]:
        """Current value of a counter or gauge; ``None`` if unknown."""
        if name in self._counters:
            return self._counters[name].value
        if name in self._gauges:
            return self._gauges[name].value
        return None

    # -- reporting ---------------------------------------------------------
    def summary(self) -> Dict[str, Dict]:
        """Deterministic snapshot: sorted names, sorted-sample statistics."""
        out: Dict[str, Dict] = {
            "counters": {
                k: self._counters[k].value for k in sorted(self._counters)
            },
            "gauges": {k: self._gauges[k].value for k in sorted(self._gauges)},
            "histograms": {
                k: self._histograms[k].summary() for k in sorted(self._histograms)
            },
        }
        return out
