"""Differential and property tests for the sort-free robust reduction.

``utils.flatten.order_mean_into`` replaced the stack → ``sort(axis=0)`` →
``np.mean`` chain of the trimmed mean and the stack → ``np.median`` chain of
the median. The sort path lives on here, as the reference the kernel must
match byte for byte: same values, same zero signs (unless a column mixes
``-0.0`` and ``+0.0``), same rounding of the row-by-row sum.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.server import ParameterServer
from repro.comm.sharding import ShardSpec
from repro.core import SelSyncTrainer, TrainConfig
from repro.core.robust import (
    KrumAggregator,
    MeanAggregator,
    MedianAggregator,
    MultiKrumAggregator,
    NormClipAggregator,
    TrimmedMeanAggregator,
)
from repro.utils import flatten
from repro.utils.flatten import ORDER_PANEL, order_mean_into
from tests.conftest import make_mlp_cluster

# Panel edges: below, at and above one panel, and a ragged fourth panel.
WIDTHS = (2, 3, ORDER_PANEL - 1, ORDER_PANEL, ORDER_PANEL + 1, 3 * ORDER_PANEL + 5)


def sort_mean(vectors, lo, hi):
    """The parent's arithmetic: sort every column, average rows lo..hi-1."""
    return np.mean(np.sort(np.stack(vectors), axis=0)[lo:hi], axis=0)


def median_rows(k):
    return (k - 1) // 2, k // 2 + 1


def kernel(vectors, lo, hi):
    out = np.full(vectors[0].shape, np.nan)
    assert order_mean_into(vectors, lo, hi, out) is out
    return out


def cohort(rng, k, d, kind="normal"):
    if kind == "normal":
        return [rng.normal(size=d) for _ in range(k)]
    if kind == "ties":  # few distinct values: duplicates in every column
        return [rng.integers(-2, 3, size=d) * 0.5 + 0.25 for _ in range(k)]
    if kind == "tied_columns":  # every row equal: whole columns tied
        row = rng.normal(size=d)
        return [row.copy() for _ in range(k)]
    if kind == "extremes":  # huge outliers and denormals next to ordinary values
        pool = np.array([1e300, -1e300, 5e-324, -5e-324, 2.5e-310, 1.0, -3.0])
        return [
            np.where(rng.random(d) < 0.5, rng.choice(pool, size=d), rng.normal(size=d))
            for _ in range(k)
        ]
    raise AssertionError(kind)


# ------------------------------------------------------------ differential


@pytest.mark.parametrize("k", range(1, 34))
def test_every_window_matches_the_sort_bytes(k):
    """Every legal (lo, hi) for k = 1..33 — across the 2/4/8/16/32 network
    sizes — so every pruning of the network is run at least once."""
    rng = np.random.default_rng(k)
    for d in (2, 3):
        vectors = cohort(rng, k, d)
        for lo in range(k):
            for hi in range(lo + 1, k + 1):
                got = kernel(vectors, lo, hi)
                assert got.tobytes() == sort_mean(vectors, lo, hi).tobytes(), (lo, hi)


@pytest.mark.parametrize("d", WIDTHS)
@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 9, 13, 16, 17, 33])
def test_trimmed_mean_and_median_match_at_panel_edges(k, d):
    rng = np.random.default_rng(1000 * k + d % 1000)
    vectors = cohort(rng, k, d)
    for f in {1, 2, (k - 1) // 2} - {0}:
        if 2 * f < k:
            want = sort_mean(vectors, f, k - f)
            assert kernel(vectors, f, k - f).tobytes() == want.tobytes(), f
    lo, hi = median_rows(k)
    want = np.median(np.stack(vectors), axis=0)
    assert kernel(vectors, lo, hi).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["ties", "tied_columns", "extremes"])
@pytest.mark.parametrize("k", [2, 4, 7, 13, 16])
def test_ties_outliers_and_denormals_match(k, kind):
    rng = np.random.default_rng(k)
    vectors = cohort(rng, k, ORDER_PANEL + 3, kind)
    f = min(1, (k - 1) // 2)
    with np.errstate(over="ignore"):  # ±1e300 sums overflow on both sides alike
        for lo, hi in {median_rows(k), (0, k), (f, k - f)}:
            got = kernel(vectors, lo, hi)
            assert got.tobytes() == sort_mean(vectors, lo, hi).tobytes(), (lo, hi)


@given(
    k=st.integers(1, 12),
    d=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["normal", "ties", "extremes"]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_random_windows_match_the_sort_bytes(k, d, seed, kind, data):
    lo = data.draw(st.integers(0, k - 1))
    hi = data.draw(st.integers(lo + 1, k))
    vectors = cohort(np.random.default_rng(seed), k, d, kind)
    with np.errstate(over="ignore"):
        want = sort_mean(vectors, lo, hi)
        assert kernel(vectors, lo, hi).tobytes() == want.tobytes()


# ------------------------------------------------- the two stated exceptions


def test_single_sign_zeros_are_bytes_mixed_sign_zeros_are_equal():
    rng = np.random.default_rng(7)
    k, d = 9, 64
    vectors = cohort(rng, k, d)
    for i, v in enumerate(vectors):
        v[:8] = 0.0  # whole columns of +0.0
        v[8:16] = -0.0  # whole columns of -0.0
        v[16:32] = np.where(i % 2, 0.0, v[16:32])  # +0.0 among other values
        v[32:48] = np.where(i % 3, -0.0, v[32:48])  # -0.0 among other values
    for lo, hi in (median_rows(k), (2, k - 2), (0, k)):
        got = kernel(vectors, lo, hi)
        assert got.tobytes() == sort_mean(vectors, lo, hi).tobytes()
        # np.mean's reduce starts from +0.0, so even a column of nothing but
        # -0.0 averages to +0.0 — on the sort path and here.
        assert not np.signbit(got[:16]).any()
    # Zeros of both signs in one column: the value is right, the sign of a
    # zero result is whichever zero the last comparator saw second.
    for i, v in enumerate(vectors):
        v[:] = np.where(rng.random(d) < 0.6, (-1.0) ** i * 0.0, v)
    assert any(np.signbit(v[v == 0]).any() for v in vectors)
    for lo, hi in (median_rows(k), (2, k - 2), (0, k)):
        assert np.array_equal(kernel(vectors, lo, hi), sort_mean(vectors, lo, hi))


@pytest.mark.parametrize("k", [1, 2, 7, 8, 12, 13, 20, 33])
def test_one_column_is_the_first_to_last_sum(k):
    """D = 1 is summed like every other width: sorted, first to last, one
    division. (numpy's stacked (m, 1) mean switches to a pairwise sum from 8
    rows up, so the sort path is only approximately the reference here.)"""
    rng = np.random.default_rng(k)
    vectors = [rng.normal(size=1) * 10.0 ** rng.integers(-6, 7) for _ in range(k)]
    column = sorted(float(v[0]) for v in vectors)
    for lo, hi in {median_rows(k), (0, k), (k // 4, k - k // 4)}:
        total = column[lo]
        for x in column[lo + 1 : hi]:
            total += x
        got = kernel(vectors, lo, hi)
        assert got[0] == total / (hi - lo)
        assert np.allclose(got, sort_mean(vectors, lo, hi), rtol=1e-13, atol=0)
        if hi - lo < 8:
            assert got.tobytes() == sort_mean(vectors, lo, hi).tobytes()


# ------------------------------------------------------ the network itself


@pytest.mark.parametrize("k", range(1, 17))
def test_network_sorts_every_binary_column(k):
    """The 0–1 principle, exhaustively: a comparator network that puts every
    0/1 column in order puts every column in order. Run through the kernel
    itself, one output row at a time (each its own pruning of the network),
    plus the unpruned network as one window."""
    codes = np.arange(2**k)
    vectors = [((codes >> i) & 1).astype(np.float64) for i in range(k)]
    ones = np.sum(vectors, axis=0)
    for r in range(k):  # sorted row r is 1 iff at least k - r inputs are
        assert np.array_equal(kernel(vectors, r, r + 1), ones >= k - r), r
    assert np.array_equal(kernel(vectors, 0, k), ones / k)


# ------------------------------------------------- inputs, output, scratch


def test_readonly_strided_and_offset_inputs_come_back_untouched():
    rng = np.random.default_rng(3)
    k, d = 13, 2 * ORDER_PANEL + 11
    wide = rng.normal(size=(k, 2 * d + 7))
    wide.flags.writeable = False
    for vectors in (
        [wide[i, 5 : 5 + d] for i in range(k)],  # a shard slice of each replica
        [wide[i, 1 : 1 + 2 * d : 2] for i in range(k)],  # every other element
    ):
        assert not any(v.flags.writeable for v in vectors)
        before = [v.copy() for v in vectors]
        for lo, hi in (median_rows(k), (2, k - 2)):
            got = kernel(vectors, lo, hi)
            assert got.tobytes() == sort_mean(before, lo, hi).tobytes()
        assert all(np.array_equal(v, b) for v, b in zip(vectors, before))


@pytest.mark.parametrize("which", [0, 4, 8])
def test_out_may_be_one_of_the_inputs(which):
    rng = np.random.default_rng(which)
    k, d = 9, ORDER_PANEL + 100
    vectors = cohort(rng, k, d)
    want = sort_mean(vectors, 2, k - 2)
    got = order_mean_into(vectors, 2, k - 2, vectors[which])
    assert got is vectors[which]
    assert got.tobytes() == want.tobytes()


def test_one_scratch_sized_by_the_largest_k(monkeypatch):
    monkeypatch.setattr(flatten, "_order_scratch", np.empty((0, ORDER_PANEL)))
    rng = np.random.default_rng(0)
    seen = []
    for k in (5, 16, 3, 9, 16, 2):
        kernel(cohort(rng, k, 50), *median_rows(k))
        seen.append(flatten._order_scratch)
    assert flatten._order_scratch.shape == (17, ORDER_PANEL)
    assert all(s is seen[1] for s in seen[1:])  # k = 16 grew it; nobody else did
    assert seen[0].shape == (6, ORDER_PANEL)


# ------------------------------------------------------- the aggregator API


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8, 13])
@pytest.mark.parametrize("f", [0, 1, 2, 7])
def test_trimmed_mean_reduce_is_the_sort_path_with_f_clamped(k, f):
    rng = np.random.default_rng(10 * k + f)
    vectors = cohort(rng, k, 37)
    f_eff = min(f, (k - 1) // 2)
    # f_eff = 0 never sorted: the plain mean, in worker order.
    want = (
        np.mean(np.stack(vectors), axis=0)
        if f_eff == 0
        else sort_mean(vectors, f_eff, k - f_eff)
    )
    out = np.full(37, np.nan)
    agg = TrimmedMeanAggregator(f=f)
    assert agg.reduce(vectors, out=out) is out
    assert out.tobytes() == want.tobytes()
    assert agg.reduce(vectors).tobytes() == want.tobytes()  # no out: a fresh vector


@pytest.mark.parametrize(
    "agg",
    [
        MeanAggregator(),
        MedianAggregator(),
        TrimmedMeanAggregator(f=1),
        NormClipAggregator(factor=1.0),
        KrumAggregator(f=1),
        MultiKrumAggregator(f=1),
    ],
    ids=lambda a: a.name,
)
def test_aggregate_writes_into_the_callers_buffer(agg):
    rng = np.random.default_rng(5)
    vectors = cohort(rng, 7, 33)
    vectors[2] *= 50.0  # something for norm_clip to clip and Krum to avoid
    before = [v.copy() for v in vectors]
    out = np.full(33, np.nan)
    info = agg.aggregate(vectors, out)
    assert isinstance(info, dict) and info["n_used"] >= 1
    assert np.isfinite(out).all()
    assert all(np.array_equal(v, b) for v, b in zip(vectors, before))
    if agg.name == "norm_clip":
        norms = [np.linalg.norm(v) for v in vectors]
        cap = float(np.median(norms))
        clipped = [v * (cap / n) if n > cap else v for v, n in zip(vectors, norms)]
        assert info["n_clipped"] == 3
        assert out.tobytes() == np.mean(np.stack(clipped), axis=0).tobytes()
    if agg.name == "multi_krum":
        picked = np.stack([vectors[i] for i in info["selected"]])
        assert info["n_used"] == 7 - 1 - 2 and 2 not in info["selected"]
        assert out.tobytes() == np.mean(picked, axis=0).tobytes()
        assert agg.m is None  # the per-call size is a local, not state


# ------------------------------------------------------ shard invariance


@pytest.mark.parametrize(
    "agg",
    [MedianAggregator(), TrimmedMeanAggregator(f=2), MeanAggregator()],
    ids=lambda a: a.name,
)
def test_sharded_server_matches_unsharded_bytes(agg):
    """Column-wise reductions do not care where the shard (and so the panel)
    boundaries fall — down to a one-element shard, which the stacked mean's
    pairwise (m, 1) sum could round differently from 8 rows up."""
    rng = np.random.default_rng(11)
    k, d = 12, 2 * ORDER_PANEL + 77
    pushed = [rng.normal(size=d) * 10.0 ** rng.integers(-3, 4) for _ in range(k)]
    plain = ParameterServer(np.zeros(d), aggregator=agg)
    spec = ShardSpec(d, (0, 1, 130, ORDER_PANEL + 5, d))
    sharded = ParameterServer(np.zeros(d), aggregator=agg, spec=spec)
    want = plain.aggregate_params(pushed).tobytes()
    assert sharded.aggregate_params(pushed).tobytes() == want
    assert sharded.aggregate_grads(pushed).tobytes() == want


@pytest.mark.parametrize("aggregator", ["mean", "median", "trimmed_mean"])
def test_ps_shards_1_and_4_train_to_identical_globals(aggregator, blobs_data):
    finals = []
    for shards in (1, 4):
        workers, cluster = make_mlp_cluster(blobs_data[0], n_workers=5)
        cluster = dataclasses.replace(
            cluster, aggregator=aggregator, trim_f=1, ps_shards=shards
        )
        trainer = SelSyncTrainer(workers, cluster, delta=0.0)
        res = trainer.run(TrainConfig(n_steps=6, eval_fn=None))
        assert res.log.n_synced == 6
        finals.append((trainer.server.pull().tobytes(), trainer.mean_params().tobytes()))
    assert finals[0] == finals[1]
