"""Property-based tests for the robust aggregation registry (hypothesis).

Pins the algebraic contracts every caller leans on: permutation behaviour,
mean-equivalence in the absence of outliers, the per-strategy breakdown
point (a bounded number of arbitrary vectors cannot drag the aggregate
outside the honest envelope), the non-finite pre-filter, and bytewise
determinism — including across executor backends, which is what makes the
"fault-free runs are byte-identical on every executor" guarantee possible.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.faults import NonFiniteUpdateError
from repro.core.robust import (
    AGGREGATORS,
    KrumAggregator,
    MeanAggregator,
    MedianAggregator,
    MultiKrumAggregator,
    NormClipAggregator,
    TrimmedMeanAggregator,
    filter_finite,
    make_aggregator,
)

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
)


@st.composite
def cohorts(draw, min_k=2, max_k=9, min_d=1, max_d=6, bound=1e6):
    """k equally-shaped finite float64 vectors, as a list of arrays."""
    k = draw(st.integers(min_value=min_k, max_value=max_k))
    d = draw(st.integers(min_value=min_d, max_value=max_d))
    coord = st.floats(
        allow_nan=False, allow_infinity=False, min_value=-bound, max_value=bound
    )
    rows = draw(
        st.lists(
            st.lists(coord, min_size=d, max_size=d),
            min_size=k,
            max_size=k,
        )
    )
    return [np.asarray(r, dtype=np.float64) for r in rows]


def _strategies():
    return [
        MeanAggregator(),
        MedianAggregator(),
        TrimmedMeanAggregator(f=1),
        TrimmedMeanAggregator(f=2),
        NormClipAggregator(factor=3.0),
        KrumAggregator(f=1),
        MultiKrumAggregator(f=1),
    ]


# ---------------------------------------------------------------- registry


def test_registry_contents():
    assert set(AGGREGATORS.names()) >= {
        "mean",
        "median",
        "trimmed_mean",
        "norm_clip",
        "krum",
        "multi_krum",
    }


def test_make_aggregator_maps_knobs():
    agg = make_aggregator("trimmed_mean", trim_f=3)
    assert isinstance(agg, TrimmedMeanAggregator) and agg.f == 3
    agg = make_aggregator("norm_clip", clip_factor=2.5)
    assert isinstance(agg, NormClipAggregator) and agg.factor == 2.5
    agg = make_aggregator("krum", trim_f=2)
    assert isinstance(agg, KrumAggregator) and agg.f == 2 and agg.m == 1
    with pytest.raises(KeyError):
        make_aggregator("does_not_exist")


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        TrimmedMeanAggregator(f=-1)
    with pytest.raises(ValueError):
        NormClipAggregator(factor=0.0)
    with pytest.raises(ValueError):
        KrumAggregator(f=-1)
    with pytest.raises(ValueError):
        KrumAggregator(m=0)


# ------------------------------------------------------------- invariance


@SLOW
@given(cohorts())
def test_shape_and_finiteness(vectors):
    for agg in _strategies():
        out = np.asarray(agg.reduce(vectors))
        assert out.shape == vectors[0].shape
        assert np.isfinite(out).all()


@SLOW
@given(cohorts(), st.randoms(use_true_random=False))
def test_permutation_invariance(vectors, rnd):
    """Shuffling worker order leaves the aggregate (numerically) unchanged.

    Median/trimmed-mean sort per coordinate so they are *exactly*
    permutation-invariant; mean and norm-clip re-associate float sums, so
    they get an allclose tolerance.
    """
    perm = list(range(len(vectors)))
    rnd.shuffle(perm)
    shuffled = [vectors[i] for i in perm]
    for agg, exact in [
        (MedianAggregator(), True),
        (TrimmedMeanAggregator(f=1), True),
        (MeanAggregator(), False),
        (NormClipAggregator(factor=3.0), False),
    ]:
        a = np.asarray(agg.reduce(vectors))
        b = np.asarray(agg.reduce(shuffled))
        if exact:
            assert np.array_equal(a, b), agg.name
        else:
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9)


@SLOW
@given(cohorts())
def test_krum_permutation_selects_same_vector(vectors):
    """Krum's winner is the same *vector* under any reversal of the cohort
    (ties may legitimately pick a different-but-equal vector)."""
    agg = KrumAggregator(f=1)
    a = np.asarray(agg.reduce(vectors))
    b = np.asarray(agg.reduce(list(reversed(vectors))))
    assert any(np.array_equal(a, v) for v in vectors)
    assert any(np.array_equal(b, v) for v in vectors)


# -------------------------------------------------------- mean equivalence


@SLOW
@given(cohorts(min_k=3))
def test_identical_vectors_are_a_fixed_point(vectors):
    """Every strategy maps k copies of v to v itself."""
    v = vectors[0]
    copies = [v.copy() for _ in vectors]
    for agg in _strategies():
        np.testing.assert_allclose(
            np.asarray(agg.reduce(copies)), v, rtol=1e-12, atol=1e-12
        )


@SLOW
@given(cohorts())
def test_mean_equivalence_without_outliers(vectors):
    """With f_eff=0 / no clipping triggered, robust strategies agree with
    the mean (trimmed-mean at f=0, norm-clip with an enormous factor)."""
    ref = np.mean(np.stack(vectors), axis=0)
    np.testing.assert_allclose(
        np.asarray(TrimmedMeanAggregator(f=0).reduce(vectors)),
        ref,
        rtol=1e-9,
        atol=1e-9,
    )
    norms = [float(np.linalg.norm(v)) for v in vectors]
    if float(np.median(norms)) > 0.0 and (
        max(norms) <= 1e12 * float(np.median(norms))
    ):
        # Degenerate cohorts (median norm 0) clip everyone to zero by
        # design, and a cohort whose largest norm exceeds cap = factor ×
        # median genuinely gets clipped (e.g. a subnormal median norm) —
        # equivalence only holds when the cap is above every norm.
        np.testing.assert_allclose(
            np.asarray(NormClipAggregator(factor=1e12).reduce(vectors)),
            ref,
            rtol=1e-9,
            atol=1e-9,
        )


def test_registered_mean_matches_legacy_mean_bitwise():
    rng = np.random.default_rng(0)
    vectors = [rng.standard_normal(257) for _ in range(8)]
    legacy = np.mean(np.stack(vectors), axis=0)
    assert np.array_equal(np.asarray(MeanAggregator().reduce(vectors)), legacy)


# ---------------------------------------------------------- breakdown point


@SLOW
@given(cohorts(min_k=5), st.floats(min_value=1e3, max_value=1e9))
def test_breakdown_point_one_outlier(vectors, scale):
    """One arbitrarily hostile vector cannot push median/trimmed-mean
    outside the honest per-coordinate envelope.

    (Per-coordinate order statistics bound *any* honest set; Krum's
    guarantee additionally requires the honest vectors to be concentrated,
    so it gets its own test with a clustered cohort below.)
    """
    honest = vectors[:-1]
    hostile = np.full_like(honest[0], scale)
    cohort = honest + [hostile]
    lo = np.min(np.stack(honest), axis=0)
    hi = np.max(np.stack(honest), axis=0)
    eps = 1e-9 + 1e-9 * np.maximum(np.abs(lo), np.abs(hi))
    for agg in [MedianAggregator(), TrimmedMeanAggregator(f=1)]:
        out = np.asarray(agg.reduce(cohort))
        assert (out >= lo - eps).all() and (out <= hi + eps).all(), agg.name


@SLOW
@given(cohorts(min_k=7), st.floats(min_value=1e3, max_value=1e9))
def test_breakdown_point_two_outliers_trimmed_f2(vectors, scale):
    honest = vectors[:-2]
    cohort = honest + [
        np.full_like(honest[0], scale),
        np.full_like(honest[0], -scale),
    ]
    lo = np.min(np.stack(honest), axis=0)
    hi = np.max(np.stack(honest), axis=0)
    eps = 1e-9 + 1e-9 * np.maximum(np.abs(lo), np.abs(hi))
    out = np.asarray(TrimmedMeanAggregator(f=2).reduce(cohort))
    assert (out >= lo - eps).all() and (out <= hi + eps).all()


@SLOW
@given(cohorts(min_k=5, bound=100.0), st.floats(min_value=1e4, max_value=1e9))
def test_krum_never_selects_the_far_outlier(vectors, scale):
    """Krum picks an honest vector when the honest set is concentrated
    (coords within ±100) and the hostile one sits far outside (≥ 1e4 per
    coordinate) — the concentration precondition of Blanchard et al."""
    honest = vectors[:-1]
    hostile = np.full_like(honest[0], scale)
    cohort = honest + [hostile]
    out = np.asarray(KrumAggregator(f=1).reduce(cohort))
    assert any(np.array_equal(out, v) for v in honest)
    assert not np.array_equal(out, hostile)


@SLOW
@given(cohorts(min_k=4), st.floats(min_value=10.0, max_value=1e6))
def test_norm_clip_bounds_hostile_influence(vectors, factor_excess):
    """A huge-norm vector moves the norm-clipped mean by at most
    factor × median-norm / k — far less than it moves the plain mean."""
    honest = vectors[:-1]
    base = honest[0] + 1.0
    hostile = base / max(float(np.linalg.norm(base)), 1e-9)
    norms = [float(np.linalg.norm(v)) for v in honest]
    med = float(np.median(norms + [1.0]))
    hostile = hostile * (med + 1.0) * factor_excess
    cohort = honest + [hostile]
    agg = NormClipAggregator(factor=3.0)
    out = np.asarray(agg.reduce(cohort))
    cap = 3.0 * float(np.median([float(np.linalg.norm(v)) for v in cohort]))
    k = len(cohort)
    # Every clipped vector has norm ≤ cap, so the aggregate does too...
    assert float(np.linalg.norm(out)) <= cap + 1e-6 * (1.0 + abs(cap))
    # ...and the hostile vector's influence is bounded by cap/k: removing
    # it moves the sum of clipped contributions by at most its clipped norm.
    clipped_honest, _ = agg._clipped(honest, cap)
    partial = np.sum(np.stack(clipped_honest), axis=0) / k
    drift = float(np.linalg.norm(out - partial))
    assert drift <= cap / k + 1e-6 * (1.0 + abs(cap))


# ------------------------------------------------------ non-finite filter


@SLOW
@given(cohorts(min_k=3))
def test_nonfinite_vectors_are_dropped_not_averaged(vectors):
    poisoned = [v.copy() for v in vectors]
    poisoned[0][0] = np.nan
    kept, dropped = filter_finite(poisoned)
    assert dropped == [0] and len(kept) == len(vectors) - 1
    for agg in _strategies():
        out = np.asarray(agg.reduce(poisoned))
        ref = np.asarray(agg.reduce([v.copy() for v in vectors[1:]]))
        assert np.array_equal(out, ref), agg.name


def test_all_nonfinite_raises_typed_error():
    bad = [np.full(4, np.nan), np.full(4, np.inf)]
    for agg in _strategies():
        with pytest.raises(NonFiniteUpdateError):
            agg.reduce(bad)


# ----------------------------------------------------------- determinism


@SLOW
@given(cohorts())
def test_bytewise_determinism(vectors):
    """Same vectors, same order → same bytes, call after call."""
    for agg_a, agg_b in zip(_strategies(), _strategies()):
        a = np.asarray(agg_a.reduce([v.copy() for v in vectors]))
        b = np.asarray(agg_b.reduce([v.copy() for v in vectors]))
        assert a.tobytes() == b.tobytes(), agg_a.name


def test_determinism_across_executors():
    """A robust-aggregated run produces bitwise-identical parameters on the
    serial and process executors (the cross-backend determinism contract
    the recovery supervisor relies on)."""
    from repro.core import TrainConfig
    from repro.experiments.runner import MethodSpec, build_trainer
    from repro.experiments.workloads import build_workload

    finals = []
    for backend in ("serial", "process"):
        built = build_workload(
            "resnet_cifar10",
            n_workers=4,
            seed=3,
            data_scale=0.05,
            cluster_kwargs={
                "aggregator": "trimmed_mean",
                "trim_f": 1,
                "executor": backend,
            },
        )
        trainer = build_trainer(MethodSpec("selsync", {"delta": 0.3}), built)
        try:
            trainer.run(TrainConfig(n_steps=10, eval_every=10))
            finals.append(np.asarray(trainer.mean_params()))
        finally:
            trainer.executor.shutdown()
    assert finals[0].tobytes() == finals[1].tobytes()


def test_out_buffer_is_filled_and_returned():
    rng = np.random.default_rng(1)
    vectors = [rng.standard_normal(16) for _ in range(5)]
    out = np.empty(16)
    got = MedianAggregator().reduce(vectors, out=out)
    assert got is out
    assert np.array_equal(out, np.median(np.stack(vectors), axis=0))
