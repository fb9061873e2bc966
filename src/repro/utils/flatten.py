"""Flatten/unflatten lists of numpy arrays into a single vector.

The communication layer and the Hessian tooling operate on flat parameter /
gradient vectors; models expose parameters as lists of arrays. These helpers
convert between the two without copying more than once.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np


def flatten_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate arrays into one contiguous 1-D float64 vector."""
    if len(arrays) == 0:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])


def unflatten_like(
    vec: np.ndarray, templates: Sequence[np.ndarray]
) -> List[np.ndarray]:
    """Split a flat vector back into arrays shaped like ``templates``.

    Raises ``ValueError`` when sizes do not line up — a mismatch here almost
    always means two workers disagree about the model architecture.
    """
    vec = np.asarray(vec).ravel()
    total = sum(int(t.size) for t in templates)
    if vec.size != total:
        raise ValueError(
            f"flat vector has {vec.size} elements but templates require {total}"
        )
    out: List[np.ndarray] = []
    offset = 0
    for t in templates:
        n = int(t.size)
        out.append(vec[offset : offset + n].reshape(t.shape).astype(t.dtype, copy=False))
        offset += n
    return out


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
    contiguous 1-D reduce, which numpy sums pairwise from 8 rows up.)
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


def tree_map(
    fn: Callable[[np.ndarray], np.ndarray], arrays: Sequence[np.ndarray]
) -> List[np.ndarray]:
    """Apply ``fn`` to every array in a list (a minimal pytree map)."""
    return [fn(a) for a in arrays]
