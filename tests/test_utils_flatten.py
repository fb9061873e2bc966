"""Tests for the flat-vector helpers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.flatten import flatten_arrays, mean_into


class TestFlatten:
    def test_concatenates_in_order(self):
        a = np.array([1.0, 2.0])
        b = np.array([[3.0], [4.0]])
        assert np.array_equal(flatten_arrays([a, b]), [1, 2, 3, 4])

    def test_empty_list(self):
        assert flatten_arrays([]).size == 0

    def test_promotes_to_float64(self):
        out = flatten_arrays([np.array([1, 2], dtype=np.float32)])
        assert out.dtype == np.float64


@given(
    shapes=st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=5
    )
)
@settings(max_examples=50, deadline=None)
def test_roundtrip_property(shapes):
    rng = np.random.default_rng(0)
    arrays = [rng.normal(size=s) for s in shapes]
    flat = flatten_arrays(arrays)
    assert flat.size == sum(a.size for a in arrays)
    offset = 0
    for orig in arrays:
        rec = flat[offset : offset + orig.size].reshape(orig.shape)
        assert np.array_equal(orig, rec)
        offset += orig.size


@given(
    n=st.integers(1, 17),
    size=st.integers(2, 300),  # length-1 vectors: see mean_into's docstring
    seed=st.integers(0, 2**32 - 1),
    scale_exp=st.integers(0, 8),
    strided=st.booleans(),
    preallocated=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_mean_into_is_bitwise_the_stacked_mean(
    n, size, seed, scale_exp, strided, preallocated
):
    """Every aggregation site (server, allreduce, mean aggregator, deploy,
    donor consensus) rests on this: sequential accumulate-then-divide gives
    the same bytes as ``np.mean`` over the stacked rows."""
    rng = np.random.default_rng(seed)
    # Mixed magnitudes per row so the accumulation order would show.
    scales = 10.0 ** rng.integers(-scale_exp, scale_exp + 1, size=n)
    step = 2 if strided else 1  # every other element of a wider buffer
    vectors = [(s * rng.normal(size=step * size))[::step] for s in scales]
    assert vectors[0].flags["C_CONTIGUOUS"] == (step == 1)
    out = np.full(size, np.nan) if preallocated else None
    got = mean_into(vectors, out=out)
    if preallocated:
        assert got is out
    want = np.mean(np.stack(vectors), axis=0)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
