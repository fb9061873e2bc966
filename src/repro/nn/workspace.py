"""One per-process pool of layer workspaces.

A workspace is the large buffers a layer works in (conv planes, pooling
index grids, activation out/mask/dx). Beyond zero borders and index grids
fixed by its key it carries nothing across steps, so any layer with the same
key can use it: a layer checks one out in ``forward`` and returns it when
its ``backward`` completes (``Module._checkout`` / ``_release``), building a
new one when none is free. Layers whose forward-to-backward spans overlap
therefore never share, while a cluster's replicas, which compute one after
another, all use the same buffers: scratch is per process, not per replica.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

# Batch sizes kept per (signature, per-sample shape), least recently used
# first out, so a run whose training batches change size cannot grow the
# pool. Evaluation (``no_grad``) adds none.
MAX_BATCH_SIZES = 2


class WorkspacePool:
    def __init__(self):
        # {(signature, per-sample shape): {batch size: [free workspaces]}}
        self.free = {}

    def checkout(self, sig, shape: tuple, build, keep: bool = True):
        """A free workspace for input ``shape`` (batch first) of a layer with
        signature ``sig``, or ``build()`` if none is free. ``keep=False``
        (``no_grad``) adds no batch size: one not held is dropped on return."""
        if keep:
            sizes = self.free.setdefault((sig, shape[1:]), OrderedDict())
            sizes.setdefault(shape[0], [])
            sizes.move_to_end(shape[0])
            if len(sizes) > MAX_BATCH_SIZES:
                sizes.popitem(last=False)
        free = self.free.get((sig, shape[1:]), {}).get(shape[0])
        return free.pop() if free else build()

    def give_back(self, sig, shape: tuple, ws) -> None:
        """Return ``ws``; dropped if its batch size was evicted meanwhile."""
        free = self.free.get((sig, shape[1:]), {}).get(shape[0])
        if free is not None:
            free.append(ws)


POOL = WorkspacePool()


def owned_arrays(ws) -> list:
    """The arrays a workspace owns (its views into them are skipped)."""
    values = ws if isinstance(ws, tuple) else vars(ws).values()
    return [v for v in values if isinstance(v, np.ndarray) and v.base is None]
