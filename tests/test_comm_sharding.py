"""Property tests for parameter-server sharding geometry and arithmetic.

The :class:`~repro.comm.sharding.ShardSpec` invariants every consumer
relies on: shards cover ``[0, n)`` disjointly, stay layer-aligned, split
integer payloads without losing a byte, and — for the plain mean — sharded aggregation is
bitwise equal to the unsharded ``mean_into`` reduction for any shard count
and invariant under permuting the contributor order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.costmodel import ps_sync_time, sharded_ps_sync_time
from repro.comm.network import NetworkModel
from repro.comm.sharding import ShardSpec
from repro.utils.flatten import mean_into

layer_lists = st.lists(st.integers(1, 500), min_size=1, max_size=12)
shard_counts = st.integers(1, 10)


def aligned_to(spec, layer_sizes):
    """True when every shard boundary is a tensor boundary of
    ``layer_sizes`` (the layer-alignment invariant)."""
    cuts = set(np.cumsum([0, *layer_sizes]).tolist())
    return all(b in cuts for b in spec.bounds)


# -- geometry ---------------------------------------------------------------
@given(sizes=layer_lists, n_shards=shard_counts)
@settings(max_examples=120, deadline=None)
def test_shards_cover_disjointly(sizes, n_shards):
    spec = ShardSpec.from_layers(sizes, n_shards)
    total = sum(sizes)
    assert spec.n_params == total
    assert spec.bounds[0] == 0 and spec.bounds[-1] == total
    # Strictly increasing bounds <=> contiguous, disjoint, non-empty shards.
    assert all(hi > lo for lo, hi in zip(spec.bounds, spec.bounds[1:]))
    assert sum(spec.sizes) == total
    # Every flat index belongs to exactly one shard.
    covered = np.zeros(total, dtype=np.int64)
    for sl in spec.slices():
        covered[sl] += 1
    assert (covered == 1).all()


@given(sizes=layer_lists, n_shards=shard_counts)
@settings(max_examples=120, deadline=None)
def test_shards_layer_aligned_and_clamped(sizes, n_shards):
    spec = ShardSpec.from_layers(sizes, n_shards)
    assert aligned_to(spec, sizes)
    # Effective shard count degrades gracefully: never more shards than
    # tensors, never fewer than one.
    assert 1 <= spec.n_shards <= min(n_shards, len(sizes))


@given(sizes=layer_lists, n_shards=shard_counts, total=st.integers(0, 10**9))
@settings(max_examples=120, deadline=None)
def test_int_payloads_lose_no_byte(sizes, n_shards, total):
    spec = ShardSpec.from_layers(sizes, n_shards)
    parts = spec.int_payloads(total)
    assert len(parts) == spec.n_shards
    assert all(p >= 0 for p in parts)
    assert sum(parts) == total


def test_spec_validation_rejects_bad_bounds():
    with pytest.raises(ValueError):
        ShardSpec(n_params=10, bounds=(0, 5, 5, 10))
    with pytest.raises(ValueError):
        ShardSpec(n_params=10, bounds=(1, 10))
    with pytest.raises(ValueError):
        ShardSpec(n_params=10, bounds=(0, 11))


# -- aggregation arithmetic -------------------------------------------------
@given(
    sizes=st.lists(st.integers(1, 64), min_size=1, max_size=6),
    n_shards=st.integers(1, 6),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_sharded_mean_bitwise_equals_unsharded(sizes, n_shards, k, seed):
    """Slicing the mean reduction per shard changes no bit, for any S."""
    spec = ShardSpec.from_layers(sizes, n_shards)
    rng = np.random.default_rng(seed)
    vectors = [rng.standard_normal(spec.n_params) for _ in range(k)]
    reference = mean_into(vectors, out=np.empty(spec.n_params))
    sharded = np.empty(spec.n_params)
    for sl in spec.slices():
        mean_into([v[sl] for v in vectors], out=sharded[sl])
    assert np.array_equal(reference, sharded)


@given(
    sizes=st.lists(st.integers(1, 64), min_size=1, max_size=6),
    n_shards=st.integers(1, 6),
    k=st.integers(2, 6),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_sharded_mean_permutation_invariant(sizes, n_shards, k, seed):
    """Reordering contributors leaves the sharded aggregate unchanged (up
    to float addition reordering — we permute and compare against the same
    permutation applied unsharded, which must stay bitwise equal)."""
    spec = ShardSpec.from_layers(sizes, n_shards)
    rng = np.random.default_rng(seed)
    vectors = [rng.standard_normal(spec.n_params) for _ in range(k)]
    perm = list(rng.permutation(k))
    permuted = [vectors[i] for i in perm]
    ref = mean_into(permuted, out=np.empty(spec.n_params))
    sharded = np.empty(spec.n_params)
    for sl in spec.slices():
        mean_into([v[sl] for v in permuted], out=sharded[sl])
    assert np.array_equal(ref, sharded)
    # And the aggregate itself is permutation-invariant to high precision.
    base = mean_into(vectors, out=np.empty(spec.n_params))
    np.testing.assert_allclose(sharded, base, rtol=1e-12, atol=1e-12)


# -- cost model -------------------------------------------------------------
@given(
    sizes=layer_lists,
    n_shards=shard_counts,
    nbytes=st.integers(10**3, 10**9),
    n=st.integers(2, 32),
)
@settings(max_examples=80, deadline=None)
def test_sharded_round_never_slower_than_unsharded_minus_coordination(
    sizes, n_shards, nbytes, n
):
    """The parallel-max round beats the full-vector round whenever shards
    genuinely split the payload; it can only exceed it by the per-shard
    coordination latency."""
    net = NetworkModel()
    spec = ShardSpec.from_layers(sizes, n_shards)
    payloads = spec.int_payloads(nbytes)
    t_sharded = sharded_ps_sync_time(payloads, [n] * spec.n_shards, net)
    t_full = ps_sync_time(float(nbytes), n, net)
    coordination = (spec.n_shards - 1) * net.latency_s
    assert t_sharded <= t_full + coordination + 1e-12


def test_single_shard_round_reduces_to_ps_sync_time():
    net = NetworkModel()
    for n in (1, 2, 8):
        assert sharded_ps_sync_time([5e6], [n], net) == ps_sync_time(
            5e6, n, net
        )


def test_skipped_and_single_rank_shards():
    net = NetworkModel()
    # All shards skipped -> free round.
    assert sharded_ps_sync_time([1e6, 1e6], [0, 0], net) == 0.0
    # Single-rank shards are free, matching the unsharded convention.
    assert sharded_ps_sync_time([1e6, 1e6], [1, 1], net) == 0.0
    # A skipped shard does not add coordination latency.
    one = sharded_ps_sync_time([1e6, 1e6], [4, 0], net)
    assert one == ps_sync_time(1e6, 4, net)
