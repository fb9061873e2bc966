"""Checkpoint state by capture, not by listing.

An object's checkpoint is its ``vars`` in checkpoint form, and a restore
puts each value back in the type its live attribute has — no class lists
its state by hand, so none can forget a buffer, a counter or an RNG:

* attributes named in the class's ``_structure`` are built from the
  constructor's arguments (a plan, a policy, a dataset, the link-fault
  model) and are not checkpointed; nor is an instance attribute shadowing a
  method of its class (a timing wrapper is behaviour, not state);
* a public scalar is a hyper-parameter: it must match on restore (a
  ``window=25`` buffer in a ``window=5`` EWMA would silently change Δ(g))
  unless the class names it in ``_evolving``;
* an array is copied (a public one must keep its shape), a
  :class:`numpy.random.Generator` is its ``bit_generator.state``, anything
  with a ``state_dict`` recurses (a list of such objects is restored in
  place, entry by entry), lists, deques and dicts go element by element —
  a deque keeps its ``maxlen``, dict keys are JSON strings in the
  checkpoint and come back as the ints they were written from;
* anything else raises ``TypeError`` at the first :func:`capture`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

_SCALARS = (type(None), bool, int, float, str, np.generic)


def _names(obj, names: Optional[Sequence[str]]) -> Sequence[str]:
    if names is not None:
        return names
    cls = type(obj)
    structure = getattr(cls, "_structure", ())
    return [
        k for k in vars(obj)
        if k not in structure and not callable(getattr(cls, k, None))
    ]


def capture(obj, names: Optional[Sequence[str]] = None) -> Dict[str, Any]:
    """``obj``'s state — the attributes ``names``, or all the rules keep —
    in checkpoint form, keyed by attribute name."""
    return {k: _capture(getattr(obj, k), obj, k) for k in _names(obj, names)}


def _capture(v, owner, name):
    if isinstance(v, _SCALARS):
        return v
    if isinstance(v, np.ndarray):
        return v.copy()
    if isinstance(v, np.random.Generator):
        return v.bit_generator.state
    if hasattr(v, "state_dict"):
        return v.state_dict()
    if isinstance(v, (list, deque)):
        return [_capture(x, owner, name) for x in v]
    if isinstance(v, dict):
        return {str(k): _capture(x, owner, name) for k, x in v.items()}
    raise TypeError(
        f"{type(owner).__name__}.{name}: cannot checkpoint a "
        f"{type(v).__name__}; give it a state_dict or name it in _structure"
    )


def restore(obj, state: Dict[str, Any], names: Optional[Sequence[str]] = None) -> None:
    """Inverse of :func:`capture`, into an instance built the same way."""
    names = _names(obj, names)
    cls = type(obj).__name__
    if set(state) != set(names):
        raise ValueError(
            f"{cls} state mismatch: checkpoint has {sorted(state)}, "
            f"this instance has {sorted(names)}"
        )
    evolving = getattr(type(obj), "_evolving", ())
    for k in names:
        live, saved = getattr(obj, k), state[k]
        public = not k.startswith("_")
        if public and k not in evolving and isinstance(live, _SCALARS):
            if saved != live:
                raise ValueError(
                    f"{cls} state mismatch: checkpoint has {k}={saved!r}, "
                    f"this instance has {k}={live!r}"
                )
            continue
        if public and isinstance(live, np.ndarray) and np.shape(saved) != live.shape:
            raise ValueError(
                f"{cls} state mismatch: checkpoint has {k} of shape "
                f"{np.shape(saved)}, this instance has {live.shape}"
            )
        setattr(obj, k, _restore(live, saved))


def _restore(live, saved):
    if isinstance(live, np.random.Generator):
        live.bit_generator.state = saved
    elif hasattr(live, "load_state_dict"):
        live.load_state_dict(saved)
    elif isinstance(live, list) and live and hasattr(live[0], "load_state_dict"):
        if len(saved) != len(live):
            raise ValueError(f"checkpoint has {len(saved)} entries, not {len(live)}")
        for x, s in zip(live, saved):
            x.load_state_dict(s)
    elif isinstance(saved, np.ndarray):
        return saved.copy()
    elif isinstance(saved, dict):
        return {_key(k): _restore(None, v) for k, v in saved.items()}
    elif isinstance(saved, list):
        items = [_restore(None, v) for v in saved]
        return deque(items, maxlen=live.maxlen) if isinstance(live, deque) else items
    else:
        return saved
    return live


def _key(k: str):
    """A checkpoint key back to the int it was written from, if it was one."""
    return int(k) if k.isdigit() and str(int(k)) == k else k


class Captured:
    """``state_dict`` / ``load_state_dict`` by :func:`capture` /
    :func:`restore`: a subclass lists nothing, keeps evolving scalars in
    underscored attributes and its hyper-parameters in public ones."""

    #: attributes built from the constructor's arguments, never checkpointed
    _structure: Tuple[str, ...] = ()
    #: public scalars that evolve: restored, not checked as hyper-parameters
    _evolving: Tuple[str, ...] = ()

    def state_dict(self) -> Dict[str, Any]:
        return capture(self)

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        restore(self, state)
