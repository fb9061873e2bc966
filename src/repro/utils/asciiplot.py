"""Terminal plotting: line plots in plain text.

The benchmark harness regenerates the paper's *figures*; this helper lets
the result files show the curve shapes themselves (not just summary tables)
without any plotting dependency.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np


def line_plot(
    ys: Sequence[float],
    width: int = 72,
    height: int = 12,
    label: Optional[str] = None,
) -> str:
    """Multi-row ASCII line plot of one series, resampled to ``width``.

    Rows run top (max) to bottom (min); the y-range is annotated.
    """
    if width < 2 or height < 2:
        raise ValueError(f"plot must be at least 2x2, got {width}x{height}")
    arr = np.asarray(list(ys), dtype=np.float64)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return "(no finite data)"
    # Resample to the target width by bucket means.
    edges = np.linspace(0, arr.size, width + 1).astype(int)
    cols = np.array([
        arr[a:b].mean() if b > a else np.nan for a, b in zip(edges[:-1], edges[1:])
    ])
    finite = cols[np.isfinite(cols)]
    lo, hi = float(finite.min()), float(finite.max())
    span = hi - lo or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, v in enumerate(cols):
        if not np.isfinite(v):
            continue
        row = height - 1 - int((v - lo) / span * (height - 1))
        grid[row][x] = "*"
    lines: List[str] = []
    if label:
        lines.append(label)
    for i, row in enumerate(grid):
        edge = f"{hi:.3g}" if i == 0 else (f"{lo:.3g}" if i == height - 1 else "")
        lines.append(f"{edge:>10} |" + "".join(row))
    lines.append(" " * 11 + "+" + "-" * width)
    return "\n".join(lines)

