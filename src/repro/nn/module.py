"""Base class for all network modules.

The library uses explicit layer-wise backpropagation: ``forward`` saves what
its backward needs in one slot (nothing inside :func:`no_grad`), ``backward``
takes it out, consumes the upstream gradient, adds to each parameter's
``grad`` and returns the gradient w.r.t. its input. This is simpler and
faster in numpy than a full tape-based autograd, and every layer is verified
against finite differences in the test suite.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.nn.parameter import Parameter

_grad_enabled = True  # False inside ``no_grad()``


@contextmanager
def no_grad():
    """Forward-only region (evaluation): forwards save nothing, and a
    workspace of a batch size the pool does not keep is private (dropped with
    its last reference), so evaluation-only sizes never enter
    ``nn.workspace.POOL``."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


class Module:
    """Base module: parameter bookkeeping, train/eval mode, flat views."""

    # Bumped on every parameter/module registration anywhere in the process.
    # ``_ensure_arena`` caches its traversal against this counter, so the
    # steady-state hot loop never re-walks the module tree: registrations
    # only happen at model construction time.
    _registry_version: int = 0

    def __init__(self):
        self._params: Dict[str, Parameter] = {}
        self._children: Dict[str, "Module"] = {}
        self._arena = None  # lazily-built ParameterArena backing the flat views
        self._arena_ver = -1  # _registry_version the arena was validated at
        self._tree = (-1, ())  # (_registry_version, descendants, depth-first)
        self.training: bool = True
        self._saved = None  # what the last forward kept for its backward

    # -- registration ------------------------------------------------------
    def register_module(self, name: str, module: "Module") -> "Module":
        self._children[name] = module
        Module._registry_version += 1
        return module

    def __setattr__(self, name, value):
        # Auto-register parameters and sub-modules assigned as attributes.
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_params", {})
            self._params[name] = value
            value.name = name
            Module._registry_version += 1
        elif isinstance(value, Module):
            self.__dict__.setdefault("_children", {})
            self._children[name] = value
            Module._registry_version += 1
        object.__setattr__(self, name, value)

    # -- traversal -----------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth-first, stable order."""
        for name, p in self._params.items():
            yield (f"{prefix}{name}", p)
        for cname, child in self._children.items():
            yield from child.named_parameters(prefix=f"{prefix}{cname}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._children.values():
            yield from child.modules()

    @property
    def n_parameters(self) -> int:
        """Total trainable scalar count."""
        return sum(p.size for p in self.parameters())

    @property
    def nbytes(self) -> int:
        """Model size in bytes — drives the communication cost model."""
        return sum(p.nbytes for p in self.parameters())

    # -- modes ---------------------------------------------------------------
    # A mode call also clears every saved slot in the tree, so it must not
    # sit between a forward and its backward.
    def train(self, mode: bool = True) -> "Module":
        # Runs around every gradient computation: the tree is walked once per
        # registry version (as in ``_ensure_arena``), not once per call. It
        # leaves out ``self``: a model in a cycle would outlive its last user.
        if self._tree[0] != Module._registry_version:
            self._tree = (Module._registry_version, tuple(self.modules())[1:])
        for m in (self, *self._tree[1]):
            m.training = mode
            m._saved = None
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- what a forward keeps for its backward ---------------------------------
    def _save(self, *arrays) -> None:
        """Keep ``arrays`` (workspaces included) for this forward's backward,
        so the pool lends none of them meanwhile; nothing under :func:`no_grad`.
        A forward that lends clears the slot first, so what the last forward
        saved is free for it."""
        self._saved = arrays if _grad_enabled else None

    def _take(self) -> tuple:
        """What the last forward saved, which this backward consumes."""
        saved, self._saved = self._saved, None
        if saved is None:
            name = type(self).__name__
            raise RuntimeError(f"{name}.backward called before forward (one per forward)")
        return saved

    # -- gradients -------------------------------------------------------------
    def zero_grad(self) -> None:
        for p in self._ensure_arena().params:
            p.zero_grad()

    # -- flat parameter / gradient views --------------------------------------
    def _ensure_arena(self) -> "ParameterArena":
        """The arena backing this module's flat views, building it on first
        use and rebuilding when it no longer covers the parameter list
        (late registration, deep copy)."""
        arena = self._arena
        ver = Module._registry_version
        if arena is not None and self._arena_ver == ver:
            # Fast path: no registration happened anywhere since the last
            # check, so the parameter list cannot have changed. A single
            # aliasing probe still guards against deep copies, which detach
            # every view at once without touching the registry.
            if not arena.params or arena.params[0].data.base is arena.param_buf:
                return arena
        params = self.parameters()
        if arena is None or not arena.covers(params):
            if arena is not None and arena.shared:
                # Worker processes may be attached to this arena's segment;
                # silently rebuilding onto private storage would split the
                # replicas. Structure changes under a shared arena are a bug.
                raise RuntimeError(
                    "module structure changed under a shared-memory arena "
                    "(parameter registered or views detached while process "
                    "workers may be attached); detach the process executor "
                    "first (arena.unshare_arena)"
                )
            from repro.nn.arena import ParameterArena

            arena = ParameterArena(params)
            self._arena = arena
        self._arena_ver = ver
        return arena

    def get_flat_params(self, copy: bool = False) -> np.ndarray:
        """All parameter data as one float64 vector.

        Returns an O(1) **read-only view** of the parameter arena by default:
        it reflects every subsequent update in place, and writing to it
        raises. Pass ``copy=True`` for a private snapshot (needed whenever
        the vector must survive later parameter writes, e.g. save/restore).
        """
        return self._ensure_arena().flat_params(copy=copy)

    def set_flat_params(self, vec: np.ndarray) -> None:
        """Write a flat vector back into the parameters, in place."""
        self._ensure_arena().write_params(vec)

    def get_flat_grads(self, copy: bool = False) -> np.ndarray:
        """All gradients as one vector — read-only arena view unless
        ``copy=True`` (same contract as :meth:`get_flat_params`)."""
        return self._ensure_arena().flat_grads(copy=copy)

    def set_flat_grads(self, vec: np.ndarray) -> None:
        self._ensure_arena().write_grads(vec)

    # -- state dict -------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch; missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, p in own.items():
            if state[name].shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{state[name].shape} vs {p.data.shape}"
                )
            p.data[...] = state[name]

    # -- interface the subclasses implement --------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)
