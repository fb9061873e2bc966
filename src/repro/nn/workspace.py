"""One per-process pool of layer workspaces, lent by reference.

A workspace is the large buffers a layer works in (conv planes, pooling
index grids, activations, gradients): one array, a tuple of arrays or an
object that owns arrays. Beyond zero borders and index grids fixed by its
key it carries nothing from one use to the next, so any caller with the same
key can use it. :meth:`WorkspacePool.lend` hands out one that nothing outside
the pool references — the workspace and every array it holds are at the
reference counts they had when built — and builds one when none is. A layer
keeps what its backward reads by saving it (``Module._save``), so a buffer
anyone can still read is referenced and never lent; once dropped it is lent
again. A cluster's replicas, which compute one after another, all use the
same buffers: scratch is per process, not per replica.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from sys import getrefcount

import numpy as np

from repro.nn import module

# Batch sizes kept per (signature, per-sample shape), least recently used
# first out, so a run whose training batches change size cannot grow the
# pool. Evaluation (``no_grad``) adds none.
MAX_BATCH_SIZES = 2


def _refs(ws):
    """Reference count of a plain array; of a tuple or object workspace, the
    counts of it and every array it holds, views included (a held view
    handed out leaves its base's count as it was). The baseline and the scan
    both call this, so they agree."""
    if isinstance(ws, np.ndarray):
        return getrefcount(ws)
    return list(map(getrefcount, (ws, *arrays(ws))))


class WorkspacePool:
    def __init__(self):
        # {(signature, per-sample shape): {batch size:
        #     [[workspace, its baseline counts]]}}, least recently lent first
        self.kept = {}

    def lend(self, sig, shape: tuple, build=None):
        """A workspace for input ``shape`` (batch first) of signature ``sig``
        that nothing outside the pool references, or a new ``build()``; with
        no ``build``, a plain array whose dtype is ``sig``. Under ``no_grad``
        a batch size the pool does not keep gets a private one, dropped with
        its last reference."""
        sizes = self.kept.get((sig, shape[1:]))
        if module._grad_enabled:
            if sizes is None:
                sizes = self.kept[(sig, shape[1:])] = OrderedDict()
            if shape[0] not in sizes:
                sizes[shape[0]] = []
                if len(sizes) > MAX_BATCH_SIZES:
                    sizes.popitem(last=False)
            elif len(sizes) > 1:
                sizes.move_to_end(shape[0])
        entries = None if sizes is None else sizes.get(shape[0])
        for i, entry in enumerate(entries or ()):
            if _refs(entry[0]) == entry[1]:
                if i + 1 < len(entries):  # least recently lent first: likeliest free
                    entries.append(entries.pop(i))
                return entry[0]
        build = build or partial(np.empty, shape, sig)
        if entries is None:
            return build()
        # Counted in the list and bound nowhere else, as the scan counts it:
        # a local bound to it would add a reference it never loses.
        entries.append([build(), None])
        entries[-1][1] = _refs(entries[-1][0])
        return entries[-1][0]

    def kept_arrays(self) -> list:
        """Every array the pool's workspaces own."""
        spaces = [e[0] for sizes in self.kept.values() for es in sizes.values() for e in es]
        return [a for ws in spaces for a in owned_arrays(ws)]


POOL = WorkspacePool()


def buffer(shape: tuple, dtype=np.float64) -> np.ndarray:
    """A plain array of ``shape`` whose contents are undefined: every caller
    writes what it reads, so one key per dtype and shape serves them all."""
    return POOL.lend(dtype, shape)


def arrays(ws) -> list:
    """The arrays a workspace holds, views included (a plain array is one)."""
    if isinstance(ws, np.ndarray):
        return [ws]
    values = ws if isinstance(ws, tuple) else vars(ws).values()
    return [v for v in values if isinstance(v, np.ndarray)]


def owned_arrays(ws) -> list:
    """The arrays a workspace owns (its views into them are skipped)."""
    return [a for a in arrays(ws) if a.base is None]

