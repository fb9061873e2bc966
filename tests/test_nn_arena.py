"""Arena-backed flat parameter/gradient views: aliasing and safety."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.nn.models import build_model
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.utils.flatten import flatten_arrays


def make_model():
    return build_model("mlp", in_features=8, n_classes=3, hidden=(6,), rng=0)


def test_flat_views_are_read_only():
    m = make_model()
    flat = m.get_flat_params()
    with pytest.raises(ValueError):
        flat[0] = 1.0
    grads = m.get_flat_grads()
    with pytest.raises(ValueError):
        grads[0] = 1.0


def test_flat_view_is_live_and_copy_is_not():
    m = make_model()
    view = m.get_flat_params()
    snap = m.get_flat_params(copy=True)
    p0 = m.parameters()[0]
    old = p0.data.flat[0]
    p0.data.flat[0] = old + 1.0
    assert view[0] == old + 1.0
    assert snap[0] == old


def test_set_flat_params_roundtrip_is_noop_and_preserves_aliasing():
    m = make_model()
    before = m.get_flat_params(copy=True)
    arena = m._ensure_arena()
    # Writing the arena's own read-only view back must be a legal no-op.
    m.set_flat_params(m.get_flat_params())
    assert np.array_equal(m.get_flat_params(copy=True), before)
    assert m._ensure_arena() is arena
    for p in m.parameters():
        assert p.data.base is arena.param_buf
        assert p.grad.base is arena.grad_buf


def test_zero_grad_clears_whole_buffer():
    m = make_model()
    arena = m._ensure_arena()
    arena.grad_buf.fill(3.0)
    m.zero_grad()
    assert not m.get_flat_grads().any()


def test_arena_rebuilds_after_late_registration():
    m = make_model()
    old = m._ensure_arena()
    size = old.size
    m.extra = Parameter(np.ones(5))
    arena = m._ensure_arena()
    assert arena is not old
    assert arena.size == size + 5
    assert m.parameters()[-1].data.base is arena.param_buf


def test_deepcopy_gets_its_own_arena():
    m = make_model()
    m._ensure_arena()
    m2 = copy.deepcopy(m)
    a2 = m2._ensure_arena()
    assert a2 is not m._ensure_arena()
    # Mutating the copy must not leak into the original.
    m2.set_flat_params(np.zeros(a2.size))
    assert m.get_flat_params().any()
    for p in m2.parameters():
        assert p.data.base is a2.param_buf


def test_flat_access_matches_concat_path():
    """Arena views carry exactly what concatenating the tensors builds."""
    m = make_model()
    params = m.parameters()
    for i, p in enumerate(params):
        p.grad[...] = i + 1.0  # distinct per tensor, so order matters
    assert np.array_equal(m.get_flat_params(), flatten_arrays([p.data for p in params]))
    assert np.array_equal(m.get_flat_grads(), flatten_arrays([p.grad for p in params]))


def test_share_arena_promotes_and_is_idempotent():
    from repro.nn.arena import SharedParameterArena, share_arena, unshare_arena

    m = make_model()
    before = m.get_flat_params(copy=True)
    arena = share_arena(m)
    try:
        assert isinstance(arena, SharedParameterArena)
        assert arena.shared
        assert share_arena(m) is arena  # idempotent
        assert np.array_equal(m.get_flat_params(copy=True), before)
        for p in m.parameters():
            assert p.data.base is arena.param_buf
            assert p.grad.base is arena.grad_buf
    finally:
        unshare_arena(m)


def test_unshare_preserves_values_and_releases_segment():
    from multiprocessing import shared_memory

    from repro.nn.arena import share_arena, unshare_arena

    m = make_model()
    arena = share_arena(m)
    name = arena.shm.name
    m.parameters()[0].data.flat[0] = 7.5
    unshare_arena(m)
    assert not m._ensure_arena().shared
    assert m.parameters()[0].data.flat[0] == 7.5
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)
    unshare_arena(m)  # no-op on a private arena


def test_structure_change_under_shared_arena_is_loud():
    from repro.nn.arena import share_arena, unshare_arena

    m = make_model()
    share_arena(m)
    try:
        m.extra = Parameter(np.ones(5))
        with pytest.raises(RuntimeError, match="structure changed"):
            m._ensure_arena()
    finally:
        # unshare rebuilds a private arena covering the new parameter too.
        unshare_arena(m)
    assert m._ensure_arena().size == m.get_flat_params().size


def test_deepcopy_of_shared_arena_module_is_private():
    from repro.nn.arena import share_arena, unshare_arena

    m = make_model()
    share_arena(m)
    try:
        m2 = copy.deepcopy(m)
        a2 = m2._ensure_arena()
        assert not a2.shared
        assert np.array_equal(
            m2.get_flat_params(copy=True), m.get_flat_params(copy=True)
        )
        m2.parameters()[0].data.flat[0] = -1.0
        assert m.parameters()[0].data.flat[0] != -1.0
    finally:
        unshare_arena(m)
