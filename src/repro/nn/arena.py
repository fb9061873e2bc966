"""Contiguous parameter/gradient arenas backing a module's flat views.

The trainers live on flat parameter and gradient vectors: every SelSync
iteration reads ``||g||²``, every sync round pushes/pulls the whole model,
and the optimizers walk all parameters. The seed implementation paid an
O(P) concatenate for each of those. An arena allocates **one** contiguous
float64 buffer for all parameter data and one for all gradients, and rebinds
every ``Parameter.data`` / ``.grad`` to a view into its slice:

    param_buf  [ conv1.w | conv1.b | conv2.w | ... ]   <- Parameter.data views
    grad_buf   [ conv1.w | conv1.b | conv2.w | ... ]   <- Parameter.grad views

After that:

* ``Module.get_flat_params()`` / ``get_flat_grads()`` are O(1) — they return
  a cached **read-only** view of the arena (mutating it raises; pass
  ``copy=True`` when you need a vector that survives subsequent updates).
* ``Module.set_flat_params(vec)`` is a single vectorized write into the
  buffer, which every parameter view observes instantly.
* ``Module.zero_grad()`` touches no gradient memory: it marks every
  parameter *unwritten* and the backward that follows writes each gradient
  once (:class:`~repro.nn.parameter.Parameter`). ``grad_buf`` may hold stale
  values until :meth:`ParameterArena.settled_grads`, which every flat
  gradient read and write goes through, zero-fills what nobody wrote.

Arenas are built lazily on first flat access and rebuilt automatically when
they no longer cover the module (a parameter was registered afterwards, or
the module was deep-copied, which detaches numpy views). Layers and
optimizers are oblivious: they keep mutating ``p.data`` / ``p.grad`` in
place, which is all they ever did.

Shared-memory arenas
--------------------
:class:`SharedParameterArena` keeps the exact same layout but places both
buffers in one ``multiprocessing.shared_memory`` segment, so worker
*processes* forked afterwards observe every parameter and gradient write with zero copies and zero pickling — the transport the
:class:`~repro.cluster.executor.ProcessExecutor` is built on. Lifecycle:

* :func:`share_arena` promotes a module's arena to shared memory in place
  (idempotent); :func:`unshare_arena` copies the current values back into a
  private arena and releases the segment.
* A shared arena must never be *silently* replaced while children may be
  attached; ``Module._ensure_arena`` raises instead of rebuilding one.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import List, Optional, Sequence

import numpy as np

from repro.nn.parameter import Parameter


class ParameterArena:
    """One contiguous data + grad buffer for a fixed list of parameters."""

    __slots__ = (
        "params",
        "param_buf",
        "grad_buf",
        "_param_ids",
        "_params_ro",
        "_grads_ro",
    )

    #: True for arenas whose storage other processes may be attached to.
    shared = False

    def __init__(self, params: Sequence[Parameter]):
        self.params: List[Parameter] = list(params)
        total = sum(int(p.data.size) for p in self.params)
        self.param_buf, self.grad_buf = self._allocate(total)
        offset = 0
        for p in self.params:
            n = int(p.data.size)
            sl = slice(offset, offset + n)
            self.param_buf[sl] = p.data.ravel()
            self.grad_buf[sl] = p.grad.ravel()
            p.data = self.param_buf[sl].reshape(p.data.shape)
            p.grad = self.grad_buf[sl].reshape(p.grad.shape)
            offset += n
        self._param_ids = tuple(id(p) for p in self.params)
        self._params_ro = self.param_buf[:]
        self._params_ro.flags.writeable = False
        self._grads_ro = self.grad_buf[:]
        self._grads_ro.flags.writeable = False

    def _allocate(self, total: int):
        return (
            np.empty(total, dtype=np.float64),
            np.empty(total, dtype=np.float64),
        )

    @property
    def size(self) -> int:
        return int(self.param_buf.size)

    def covers(self, params: Sequence[Parameter]) -> bool:
        """True when this arena still backs exactly ``params``.

        Checks identity of the parameter list *and* that each ``.data`` /
        ``.grad`` still aliases the arena buffers — a deep-copied module has
        the same structure but detached arrays, and must get a fresh arena.
        """
        if tuple(id(p) for p in params) != self._param_ids:
            return False
        for p in self.params:
            if p.data.base is not self.param_buf or p.grad.base is not self.grad_buf:
                return False
        return True

    # -- flat access -------------------------------------------------------
    def flat_params(self, copy: bool = False) -> np.ndarray:
        """The whole parameter vector: read-only view, or a private copy."""
        return self.param_buf.copy() if copy else self._params_ro

    def settled_grads(self) -> np.ndarray:
        """``grad_buf`` (writable) with no unwritten parameter left in it."""
        for p in self.params:
            p.settle_grad()
        return self.grad_buf

    def flat_grads(self, copy: bool = False) -> np.ndarray:
        g = self.settled_grads()
        return g.copy() if copy else self._grads_ro

    @staticmethod
    def _write(buf: np.ndarray, vec: np.ndarray) -> None:
        vec = np.asarray(vec)
        if vec.size != buf.size:
            raise ValueError(
                f"flat vector has {vec.size} elements, arena holds {buf.size}"
            )
        # Writing the arena's own (read-only) view back is a legal no-op.
        np.copyto(buf, vec.ravel())

    def write_params(self, vec: np.ndarray) -> None:
        """One vectorized write; all parameter views see it immediately."""
        self._write(self.param_buf, vec)

    def write_grads(self, vec: np.ndarray) -> None:
        self._write(self.settled_grads(), vec)


class SharedParameterArena(ParameterArena):
    """Arena whose buffers live in one shared-memory segment.

    Layout: ``[ param_buf | grad_buf ]``, each ``total * 8`` bytes of
    float64. The creating process owns the segment and is responsible for
    :meth:`release`-ing it. Forked children inherit the mapping directly
    and their views stay valid until the process exits.
    """

    __slots__ = ("shm",)

    shared = True

    def _allocate(self, total: int):
        nbytes = 8 * total
        self.shm = shared_memory.SharedMemory(create=True, size=max(16, 2 * nbytes))
        param_buf = np.ndarray((total,), dtype=np.float64, buffer=self.shm.buf)
        grad_buf = np.ndarray(
            (total,), dtype=np.float64, buffer=self.shm.buf, offset=nbytes
        )
        return param_buf, grad_buf

    def release(self) -> None:
        """Drop this process's mapping and unlink the segment.

        Only legal once no parameter views point into the buffers anymore —
        callers rebind through :func:`unshare_arena` first. Idempotent.
        """
        shm, self.shm = getattr(self, "shm", None), None
        if shm is None:
            return
        # The numpy views keep exported pointers into shm.buf; drop ours
        # before closing so mmap can actually unmap.
        self.param_buf = self.grad_buf = None
        self._params_ro = self._grads_ro = None
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink race
            pass

    def __deepcopy__(self, memo):
        # A deep-copied module gets detached private parameter arrays; its
        # copied arena slot must not alias (or try to re-own) the shared
        # segment. Returning None makes the copy rebuild a private arena
        # lazily, exactly like the deep-copy path for ordinary arenas.
        return None


def share_arena(module) -> SharedParameterArena:
    """Promote ``module``'s arena to shared memory, in place (idempotent).

    Every ``Parameter.data`` / ``.grad`` is rebound to views of the new
    segment with its current values; existing *copies* of the flat vectors
    are unaffected, while subsequent ``get_flat_*(copy=False)`` views track
    the shared storage.
    """
    from repro.nn.module import Module

    arena = module._ensure_arena()
    if isinstance(arena, SharedParameterArena):
        return arena
    new = SharedParameterArena(module.parameters())
    module._arena = new
    module._arena_ver = Module._registry_version
    return new


def unshare_arena(module) -> None:
    """Rebind ``module`` to a private arena and release the shared segment.

    Copies the segment's current values out first, so the module continues
    exactly where the shared run left off. No-op for unshared modules.
    """
    from repro.nn.module import Module

    arena = getattr(module, "_arena", None)
    if not isinstance(arena, SharedParameterArena):
        return
    module._arena = ParameterArena(module.parameters())
    module._arena_ver = Module._registry_version
    arena.release()
