"""Robust aggregation: pluggable Byzantine-tolerant reductions.

The paper's protocol (and every baseline) aggregates worker updates with a
plain mean — a single adversarial or corrupted vector moves the global model
arbitrarily far. This module provides a registry of drop-in
:class:`Aggregator` strategies with well-known robustness guarantees:

================  ==========================================================
``mean``          Plain average (the paper's protocol; breakdown point 0).
``median``        Coordinate-wise median; tolerates < k/2 arbitrary vectors
                  per coordinate.
``trimmed_mean``  Drop the ``f`` largest and ``f`` smallest values per
                  coordinate, average the rest (Yin et al., 2018).
``norm_clip``     Scale every vector down to ``factor ×`` the median norm
                  before averaging — bounds the influence of large-norm
                  outliers without discarding anyone.
``krum``          Select the single vector closest (in summed squared
                  distance) to its ``k − f − 2`` nearest neighbours
                  (Blanchard et al., 2017).
``multi_krum``    Krum's selection extended to the ``m`` best-scoring
                  vectors, averaged.
================  ==========================================================

Every strategy shares one entry point, :meth:`Aggregator.reduce`, which
pre-filters non-finite vectors (a NaN burst is dropped, not averaged),
aggregates the survivors, and emits a typed ``aggregator_decision`` trace
event when a tracer is installed. Selecting ``aggregator="mean"`` in
:class:`~repro.core.config.ClusterConfig` bypasses this layer entirely so
default runs stay byte-identical to the original mean path; the registered
``mean`` strategy exists for direct use and for the property-test surface
(its arithmetic is bitwise-identical to the legacy path).

All aggregators are deterministic pure functions of their input sequence:
the same vectors in the same (worker-id) order produce the same bytes on
every executor backend.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.cluster.faults import NonFiniteUpdateError
from repro.utils.flatten import mean_into, order_mean_into
from repro.utils.registry import Registry

#: name → Aggregator subclass. Construction goes through
#: :func:`make_aggregator`, which maps config knobs onto constructor args.
AGGREGATORS: Registry = Registry("aggregator")


def filter_finite(
    vectors: Sequence[np.ndarray],
) -> Tuple[List[np.ndarray], List[int]]:
    """Split ``vectors`` into (finite survivors, dropped indices).

    Order is preserved — robustness proofs and the determinism contract
    both assume the survivor sequence keeps the caller's worker order.
    """
    kept: List[np.ndarray] = []
    dropped: List[int] = []
    for i, v in enumerate(vectors):
        if np.isfinite(v).all():
            kept.append(v)
        else:
            dropped.append(i)
    return kept, dropped


class Aggregator:
    """Base class: reduce k flat update vectors to one.

    Subclasses implement :meth:`aggregate` over vectors that are already
    guaranteed finite and equally shaped; :meth:`reduce` is the public
    entry point used by the parameter server and the collectives.
    """

    name = "abstract"

    def aggregate(self, vectors: Sequence[np.ndarray], out: np.ndarray) -> Dict:
        """Pure reduction of ``vectors`` into ``out``; returns ``info``.

        ``info`` carries JSON-safe scalars for the ``aggregator_decision``
        event (``n_used`` plus strategy-specific fields).
        """
        raise NotImplementedError

    def reduce(
        self,
        vectors: Sequence[np.ndarray],
        out: Optional[np.ndarray] = None,
        where: str = "server",
    ) -> np.ndarray:
        """Pre-filter non-finite vectors, aggregate, emit the decision.

        Raises :class:`~repro.cluster.faults.NonFiniteUpdateError` only if
        *every* vector is non-finite (nothing left to aggregate).
        """
        kept, dropped = filter_finite(vectors)
        if not kept:
            raise NonFiniteUpdateError(
                f"all {len(vectors)} update vectors are non-finite; "
                f"nothing to aggregate ({self.name})"
            )
        if out is None:
            out = np.empty_like(kept[0], dtype=np.float64)
        info = self.aggregate(kept, out)
        obs.emit("aggregator_decision", aggregator=self.name, where=where,
                 n_in=len(vectors), n_dropped=len(dropped), dropped=list(dropped), **info)
        return out

    def async_transform(self, update: np.ndarray) -> np.ndarray:
        """Hook for the asynchronous (SSP) path: transform one update
        before it is applied. Cohort statistics do not exist for a single
        vector, so only norm-based strategies override this."""
        return update


@AGGREGATORS.register("mean")
class MeanAggregator(Aggregator):
    """Plain average — bitwise-identical to the legacy mean path."""

    name = "mean"

    def aggregate(self, vectors, out):
        mean_into(vectors, out)
        return {"n_used": len(vectors)}


@AGGREGATORS.register("median")
class MedianAggregator(Aggregator):
    """Coordinate-wise median; breakdown point just under 1/2."""

    name = "median"

    def aggregate(self, vectors, out):
        k = len(vectors)
        order_mean_into(vectors, (k - 1) // 2, k // 2 + 1, out)
        return {"n_used": k}


@AGGREGATORS.register("trimmed_mean")
class TrimmedMeanAggregator(Aggregator):
    """Coordinate-wise trimmed mean: sort, drop the f extremes each side.

    ``f`` is clamped per call to ``(k − 1) // 2`` so at least one value per
    coordinate always survives; the effective f is reported in the
    decision event.
    """

    name = "trimmed_mean"

    def __init__(self, f: int = 1):
        if f < 0:
            raise ValueError(f"trim f must be >= 0, got {f}")
        self.f = int(f)

    def aggregate(self, vectors, out):
        k = len(vectors)
        f_eff = min(self.f, (k - 1) // 2)
        if f_eff == 0:  # nothing trimmed: the mean, in worker order
            mean_into(vectors, out)
        else:
            order_mean_into(vectors, f_eff, k - f_eff, out)
        return {"n_used": k - 2 * f_eff, "f_eff": f_eff}


@AGGREGATORS.register("norm_clip")
class NormClipAggregator(Aggregator):
    """Mean of norm-clipped vectors.

    Each vector is scaled down so its L2 norm is at most ``factor ×`` the
    cohort's median norm. Nobody is discarded; a large-norm outlier simply
    cannot dominate the average. On the asynchronous path (no cohort) the
    clip cap is ``factor ×`` an EWMA of recently applied update norms.
    """

    name = "norm_clip"

    def __init__(self, factor: float = 3.0, ewma_alpha: float = 0.1):
        if factor <= 0:
            raise ValueError(f"clip factor must be > 0, got {factor}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self.factor = float(factor)
        self.ewma_alpha = float(ewma_alpha)
        # Async-path state: EWMA of applied update norms (None until the
        # first push; the first update is applied unclipped to seed it).
        self._async_norm: Optional[float] = None

    def _clipped(self, vectors, cap: float):
        norms = [float(np.linalg.norm(v)) for v in vectors]
        over = [n > cap and n > 0.0 for n in norms]
        scaled = zip(vectors, norms, over)
        return [v * (cap / n) if o else v for v, n, o in scaled], sum(over)

    def aggregate(self, vectors, out):
        norms = [float(np.linalg.norm(np.asarray(v))) for v in vectors]
        cap = self.factor * float(np.median(norms))
        clipped, n_clipped = self._clipped(vectors, cap)
        mean_into(clipped, out)
        return {"n_used": len(vectors), "n_clipped": n_clipped}

    def async_transform(self, update):
        n = float(np.linalg.norm(update))
        if self._async_norm is None:
            self._async_norm = n
            return update
        cap = self.factor * self._async_norm
        if n > cap and n > 0.0:
            update = update * (cap / n)
            n = cap
        self._async_norm += self.ewma_alpha * (n - self._async_norm)
        return update


@AGGREGATORS.register("krum")
class KrumAggregator(Aggregator):
    """Krum selection (Blanchard et al., 2017).

    Scores every vector by the sum of squared distances to its
    ``k − f − 2`` nearest neighbours and returns the best-scoring vector
    (``m = 1``) or the average of the ``m`` best (multi-Krum). Ties break
    on the lower worker index, keeping selection deterministic.
    """

    name = "krum"

    def __init__(self, f: int = 1, m: Optional[int] = 1):
        if f < 0:
            raise ValueError(f"krum f must be >= 0, got {f}")
        if m is not None and m < 1:
            raise ValueError(f"krum m must be >= 1, got {m}")
        self.f = int(f)
        self.m = None if m is None else int(m)

    def _scores(self, stacked: np.ndarray) -> np.ndarray:
        k = stacked.shape[0]
        sq = np.sum(stacked * stacked, axis=1)
        # Pairwise squared distances via the Gram matrix.
        d2 = sq[:, None] + sq[None, :] - 2.0 * (stacked @ stacked.T)
        np.fill_diagonal(d2, np.inf)
        d2 = np.maximum(d2, 0.0)
        f_eff = min(self.f, max(0, k - 3))
        n_neighbors = max(1, k - f_eff - 2)
        part = np.sort(d2, axis=1)[:, :n_neighbors]
        return np.sum(part, axis=1)

    def aggregate(self, vectors, out):
        k = len(vectors)
        selected = [0]
        if k > 1:
            m = max(1, k - self.f - 2) if self.m is None else self.m
            scores = self._scores(np.stack([np.asarray(v) for v in vectors]))
            # Stable argsort: equal scores resolve to the lower index.
            order = np.argsort(scores, kind="stable")[:m]
            selected = sorted(int(i) for i in order)
        mean_into([vectors[i] for i in selected], out)
        return {"n_used": len(selected), "selected": selected}


@AGGREGATORS.register("multi_krum")
class MultiKrumAggregator(KrumAggregator):
    """Multi-Krum: average the ``m`` best Krum-scoring vectors.

    ``m=None`` sizes the selection per call as ``k − f − 2`` (clamped to
    ``[1, k]``), the choice of the original paper.
    """

    name = "multi_krum"

    def __init__(self, f: int = 1, m: Optional[int] = None):
        super().__init__(f=f, m=m)


def make_aggregator(
    name: str,
    trim_f: int = 1,
    clip_factor: float = 3.0,
) -> Aggregator:
    """Construct a registered aggregator from the shared config knobs.

    ``trim_f`` doubles as the Byzantine count ``f`` for trimmed-mean,
    Krum and multi-Krum; ``clip_factor`` parameterizes ``norm_clip``.
    """
    f, factor = {"f": trim_f}, {"factor": clip_factor}
    knobs = {"trimmed_mean": f, "krum": f, "multi_krum": f, "norm_clip": factor}
    return AGGREGATORS.create(name, **knobs.get(name.lower(), {}))
