"""Property-based tests for the adaptive δ policies (hypothesis).

The example-based suite in ``test_core_adaptive.py`` pins a handful of
trajectories; here hypothesis sweeps the controller over arbitrary
sync/local histories and parameter draws to pin the algebraic contracts:

* :class:`TargetLSSRDelta` — δ stays strictly positive and inside the
  multiplicative envelope ``[1e-12, δ₀·(1+gain)^n]``, responds
  monotonically to the LSSR error (a sync pushes δ up relative to a local
  step), and survives a ``state_dict`` round-trip mid-history.
* :class:`FractionOfMaxDelta` — warmup semantics are exact: δ ≡ 0 before
  ``warmup`` and δ = fraction × M afterwards, for any observed extremum M.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FractionOfMaxDelta, TargetLSSRDelta

FAST = settings(max_examples=50, deadline=None)

targets = st.floats(min_value=0.01, max_value=0.99)
gains = st.floats(min_value=1e-3, max_value=1.0)
initial_deltas = st.floats(min_value=1e-9, max_value=1e3)
warmups = st.integers(min_value=1, max_value=20)
histories = st.lists(st.booleans(), min_size=0, max_size=60)


class _StubTrainer:
    """The minimum surface ``effective_delta`` touches."""

    def __init__(self, max_observed_delta: float):
        self.max_observed_delta = max_observed_delta


class TestTargetLSSRDeltaProperties:
    @FAST
    @given(targets, gains, initial_deltas, warmups, histories)
    def test_delta_stays_in_envelope(self, target, gain, d0, warmup, hist):
        """δ never leaves [1e-12, δ₀·(1+gain)^n]: each update multiplies by
        1 + gain·(target − realized) with realized ∈ [0, 1], so a single
        factor is at most 1 + gain, and the floor clamp holds below."""
        p = TargetLSSRDelta(
            target_lssr=target, initial_delta=d0, gain=gain, warmup=warmup
        )
        for i, synced in enumerate(hist):
            p.observe(synced)
            assert p.delta >= 1e-12
            assert p.delta <= d0 * (1.0 + gain) ** (i + 1) * (1 + 1e-9)
            assert math.isfinite(p.delta)

    @FAST
    @given(targets, gains, initial_deltas, warmups, histories)
    def test_monotone_response_to_lssr_error(
        self, target, gain, d0, warmup, hist
    ):
        """From any shared history, a synced step realizes a lower LSSR
        than a local step — so the controller's next δ must be >= the
        local branch's (it raises δ to push the budget back up)."""
        base = TargetLSSRDelta(
            target_lssr=target, initial_delta=d0, gain=gain, warmup=warmup
        )
        for synced in hist:
            base.observe(synced)
        fork = TargetLSSRDelta(
            target_lssr=target, initial_delta=d0, gain=gain, warmup=warmup
        )
        fork.load_state_dict(base.state_dict())
        base.observe(True)  # a sync (not a local step)
        fork.observe(False)  # a local step
        assert base.delta >= fork.delta

    @FAST
    @given(targets, gains, initial_deltas, warmups, histories, histories)
    def test_state_dict_roundtrip_mid_history(
        self, target, gain, d0, warmup, prefix, suffix
    ):
        """Checkpointing between two observation bursts is invisible."""
        whole = TargetLSSRDelta(
            target_lssr=target, initial_delta=d0, gain=gain, warmup=warmup
        )
        for synced in prefix:
            whole.observe(synced)
        resumed = TargetLSSRDelta(
            target_lssr=target, initial_delta=d0, gain=gain, warmup=warmup
        )
        resumed.load_state_dict(whole.state_dict())
        for synced in suffix:
            whole.observe(synced)
            resumed.observe(synced)
        assert resumed.delta == whole.delta
        assert resumed.state_dict() == whole.state_dict()

    @FAST
    @given(targets, gains, initial_deltas, warmups, st.integers(0, 100))
    def test_warmup_forces_sync(self, target, gain, d0, warmup, step):
        """Before ``warmup`` the effective δ is 0 (pure BSP); after, it is
        exactly the controller's current δ — the trainer is not consulted."""
        p = TargetLSSRDelta(
            target_lssr=target, initial_delta=d0, gain=gain, warmup=warmup
        )
        eff = p.effective_delta(None, step)
        assert eff == (0.0 if step < warmup else p.delta)


class TestFractionOfMaxDeltaProperties:
    @FAST
    @given(
        st.floats(min_value=1e-6, max_value=1.0),
        warmups,
        st.floats(min_value=0.0, max_value=1e9),
        st.integers(0, 100),
    )
    def test_warmup_semantics_exact(self, fraction, warmup, max_obs, step):
        """δ ≡ 0 strictly before the warmup boundary and exactly
        fraction × M from the boundary on."""
        p = FractionOfMaxDelta(fraction=fraction, warmup=warmup)
        eff = p.effective_delta(_StubTrainer(max_obs), step)
        if step < warmup:
            assert eff == 0.0
        else:
            assert eff == fraction * max_obs

    @FAST
    @given(
        st.floats(min_value=1e-6, max_value=1.0),
        warmups,
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=1e6),
    )
    def test_monotone_in_observed_extremum(self, fraction, warmup, m1, m2):
        """A larger running extremum M never lowers the threshold."""
        lo, hi = sorted((m1, m2))
        p = FractionOfMaxDelta(fraction=fraction, warmup=warmup)
        assert p.effective_delta(_StubTrainer(hi), warmup) >= p.effective_delta(
            _StubTrainer(lo), warmup
        )
