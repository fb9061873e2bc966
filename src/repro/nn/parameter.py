"""Trainable parameter container."""

from __future__ import annotations

from typing import Optional

import numpy as np


class Parameter:
    """A trainable tensor with an accumulated gradient.

    Layers own :class:`Parameter` objects; optimizers read ``grad`` and write
    ``data`` in place. Gradients accumulate across ``backward`` calls until
    :meth:`zero_grad` — the same contract as mainstream frameworks, which the
    trainers rely on when replaying micro-batches.

    ``data`` and ``grad`` start as standalone arrays; once the owning module
    builds its :class:`~repro.nn.arena.ParameterArena`, both are rebound to
    views into the arena's contiguous buffers. All mutation must therefore
    stay in place (``+=``, ``[...] =``) — rebinding ``p.data`` to a new array
    silently detaches the parameter from the arena (the module detects this
    and rebuilds, but it costs a full re-pack).

    The gradient is written once: :meth:`zero_grad` only marks the buffer
    *unwritten*, the first ``accumulate_*`` after it stores ``0 + g`` in one
    pass and later ones add. Every read settles first — ``grad`` zero-fills a
    buffer nobody wrote (frozen, unused), the arena's flat reads and writes
    settle all of theirs — so the mark is never observable; layers reach it
    only through the two ``accumulate`` methods.
    """

    __slots__ = ("data", "_grad", "_unwritten", "name", "requires_grad")

    def __init__(
        self,
        data: np.ndarray,
        name: str = "param",
        requires_grad: bool = True,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)  # written: the zeros are real
        self.name = name
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def settle_grad(self) -> np.ndarray:
        """The gradient buffer, zero-filled first if still unwritten."""
        if self._unwritten:
            self._grad.fill(0.0)
            self._unwritten = False
        return self._grad

    def _bind_grad(self, buf: np.ndarray) -> None:
        self._grad = buf
        self._unwritten = False

    grad = property(settle_grad, _bind_grad)

    def zero_grad(self) -> None:
        self._unwritten = True

    def accumulate_grad(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if g.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter "
                f"{self.name} shape {self.data.shape}"
            )
        if self._unwritten:
            # 0 + g, not a copy: a -0.0 lands as +0.0, as it did on zeros.
            np.add(g, 0.0, out=self._grad)
            self._unwritten = False
        else:
            self._grad += g

    def accumulate_matmul(self, a: np.ndarray, b: np.ndarray) -> None:
        """``accumulate_grad(a @ b)``; while unwritten the buffer is the
        GEMM's ``out=`` — no product-sized temporary, no add."""
        if self._unwritten and self.requires_grad:
            np.matmul(a, b, out=self._grad)
            self._unwritten = False
        else:
            self.accumulate_grad(a @ b)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Parameter({self.name}, shape={self.data.shape})"
