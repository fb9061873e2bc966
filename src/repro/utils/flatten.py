"""Flat-vector helpers: concatenate arrays, and reduce equally-shaped vectors.

The communication layer and the Hessian tooling operate on flat parameter /
gradient vectors; the aggregation sites reduce lists of them without
materializing a stack. :func:`reduce_slices` is the one per-shard reduction
both the collectives and the parameter server run.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np


def flatten_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate arrays into one contiguous 1-D float64 vector."""
    if len(arrays) == 0:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])


def snapshot(a: np.ndarray, copy: bool = True) -> np.ndarray:
    """A private copy of ``a`` or, with ``copy=False``, a read-only live view
    of it — the ``get_flat_params`` convention for any checkpointed array."""
    if copy:
        return a.copy()
    view = a.view()
    view.flags.writeable = False
    return view


def mean_into(
    vectors: Sequence[np.ndarray], out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Mean of equally-shaped vectors without materializing ``np.stack``.

    Accumulates sequentially into ``out`` (allocated when ``None``), so the
    peak footprint is one vector instead of N+1. ``out`` must not alias any
    input after the first — the aggregation paths pass either a preallocated
    server buffer or a fresh array, never a worker view.

    Bitwise-identical to ``np.mean(np.stack(vectors), axis=0)`` for vectors
    of two or more elements: an axis-0 reduce also accumulates row-by-row
    sequentially, and the final true division matches ``np.mean``'s (a
    reciprocal-multiply would not). (Stacked length-1 vectors collapse to a
    contiguous 1-D reduce, which numpy sums pairwise from 8 rows up; and a
    column of nothing but ``-0.0`` stays ``-0.0`` here, while ``np.mean``'s
    reduce starts from ``+0.0`` and returns that.)
    """
    if len(vectors) == 0:
        raise ValueError("nothing to average")
    first = np.asarray(vectors[0])
    if out is None:
        out = np.empty_like(first, dtype=np.float64)
    np.copyto(out, first)
    for v in vectors[1:]:
        np.add(out, v, out=out)
    if len(vectors) > 1:
        np.divide(out, len(vectors), out=out)
    return out


def reduce_slices(
    vectors: Sequence[np.ndarray],
    out: np.ndarray,
    slices: Sequence[slice] = (slice(None),),
    absent=None,
    aggregator=None,
    where: str = "server",
    keep_empty: bool = False,
) -> None:
    """Reduce ``vectors`` into ``out`` one slice (one PS shard) at a time.

    ``absent`` maps a slice index to the positions in ``vectors`` that sit
    that slice out (their push for that shard was lost); they still count
    toward every other slice. A slice nobody delivered is zeroed — no
    information, no movement — or, with ``keep_empty``, left as it was (the
    server's parameters keep their previous values). ``aggregator`` is a
    :class:`~repro.core.robust.Aggregator` or ``None`` for :func:`mean_into`;
    it sees one slice at a time and, when there is more than one, is told
    which as ``"{where}/shard{s}"``.

    An unsharded round is the one slice ``slice(None)``; with the plain mean
    and no absences any slicing gives the same bytes, as ``mean_into``
    accumulates elementwise.
    """
    absent = absent or {}
    for s in absent:
        if not 0 <= s < len(slices):
            raise ValueError(f"shard {s} out of range [0, {len(slices)})")
    for s, sl in enumerate(slices):
        gone = absent.get(s, ())
        vecs = [np.asarray(v)[sl] for i, v in enumerate(vectors) if i not in gone]
        if not vecs:
            if not keep_empty:
                out[sl] = 0.0
        elif aggregator is None:
            mean_into(vecs, out=out[sl])
        else:
            tag = where if len(slices) == 1 else f"{where}/shard{s}"
            aggregator.reduce(vecs, out=out[sl], where=tag)


#: Columns per :func:`order_mean_into` panel. Trimmed mean, k = 13, f = 2,
#: D = 98 304, one BLAS thread: 4 096 / 8 192 / 16 384 columns read
#: 5.3 / 4.3 / 5.5 ms per call (ufunc call overhead below, L2 misses above).
ORDER_PANEL = 8192

# order_mean_into's one scratch, regrown only when a larger k arrives (one
# buffer per k read +6 % peak RSS on the 16-worker chaos benchmark).
_order_scratch = np.empty((0, ORDER_PANEL))


@functools.lru_cache(maxsize=None)
def _order_plan(k: int, lo: int, hi: int):
    """Batcher's merge-exchange sorting network on ``k`` rows (Knuth 5.2.2,
    Algorithm M) minus the comparators that cannot reach rows ``lo..hi-1``,
    as ``(ops, rows)`` over buffer indices: ``0..k-1`` are the inputs,
    ``k..2k`` the scratch rows. An op ``(a, b, lesser, greater)`` writes the
    minimum to the spare scratch row and the maximum over ``b`` (into scratch
    when ``b`` is still an input), so inputs are never written; ``rows`` are
    the buffers left holding sorted rows ``lo..hi-1``."""
    pairs = []
    top = p = 1 << (k - 1).bit_length() >> 1
    while p:
        q, r, d = top, 0, p
        while True:
            pairs += [(i, i + d) for i in range(k - d) if i & p == r]
            if q == p:
                break
            d, q, r = q - p, q >> 1, p
        p >>= 1
    live, kept = set(range(lo, hi)), []
    for i, j in reversed(pairs):
        if i in live or j in live:
            live |= {i, j}
            kept.append((i, j))
    at, spare, ops = list(range(k)), 2 * k, []
    for i, j in reversed(kept):
        a, b = at[i], at[j]
        at[i], spare = spare, (a if a >= k else k + i)
        if b < k:
            at[j] = k + j
        ops.append((a, b, at[i], at[j]))
    return tuple(ops), tuple(at[lo:hi])


def order_mean_into(
    vectors: Sequence[np.ndarray], lo: int, hi: int, out: np.ndarray
) -> np.ndarray:
    """Mean of rows ``lo..hi-1`` of the column-sorted stack of ``vectors``
    (1-D float64) into ``out``: the coordinate-wise trimmed mean (``f, k - f``)
    and median (the middle row or two) without the stack or the sort.

    Per panel of :data:`ORDER_PANEL` columns, :func:`_order_plan`'s network
    runs as ``np.minimum`` / ``np.maximum`` calls on whole panel rows; then
    rows ``lo..hi-1`` are added first to last and divided once. A panel is
    read before it is written, so ``out`` may be one of the inputs.

    Bitwise-identical to ``np.mean(np.sort(np.stack(vectors), axis=0)[lo:hi],
    axis=0)`` and to ``np.median`` for two or more columns: the network sorts
    every column, and the sum from ``+0.0`` and the true division are
    ``np.mean``'s own. Except that ``np.minimum`` / ``np.maximum`` of ``-0.0``
    and ``+0.0`` return their second argument, so a column holding both zeros
    may get the other one (``==``-equal regardless); and that numpy sums
    stacked length-1 vectors pairwise from 8 rows up (see :func:`mean_into`).
    """
    global _order_scratch
    k = len(vectors)
    ops, rows = _order_plan(k, lo, hi)
    if _order_scratch.shape[0] <= k:
        _order_scratch = np.empty((k + 1, ORDER_PANEL))
    for s in range(0, out.shape[0], ORDER_PANEL):
        o = out[s : s + ORDER_PANEL]
        bufs = [v[s : s + ORDER_PANEL] for v in vectors]
        bufs.extend(_order_scratch[: k + 1, : o.shape[0]])
        for a, b, lesser, greater in ops:
            np.minimum(bufs[a], bufs[b], out=bufs[lesser])
            np.maximum(bufs[a], bufs[b], out=bufs[greater])
        np.add(bufs[rows[0]], 0.0, out=o)  # -0.0 + 0.0 = +0.0, as in np.mean
        for r in rows[1:]:
            np.add(o, bufs[r], out=o)
        np.divide(o, len(rows), out=o)
    return out
