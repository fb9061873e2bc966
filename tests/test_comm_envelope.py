"""Property tests for the communication envelope (timeout/retry/backoff).

The envelope's contract has three load-bearing clauses, each pinned with
hypothesis:

1. **Monotone backoff** — the jitter-free backoff cap never shrinks as
   attempts climb, and never exceeds ``cap_s``.
2. **Bounded total wait** — a fully exhausted message's summed backoff is
   bounded by :func:`max_total_wait` for *every* jitter draw,
   and its total retry latency by the closed-form timeout + backoff sum.
3. **Bitwise determinism** — every fault draw is a pure function of
   ``(seed, src, dst, step, attempt)``: rebuilding the model reproduces
   draws exactly, and querying in any order (the executor-independence
   requirement) changes nothing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.envelope import (
    TIMEOUT_MULT,
    CollectiveTimeoutError,
    CommEnvelope,
    RetryPolicy,
)
from repro.comm import network
from repro.utils.spec import parse_spec

def make_link_faults(spec, n_workers, seed=0):
    return network.make_link_faults(parse_spec(spec, "link"), n_workers, seed=seed)


LOSSY = "loss:p=0.4,dup:p=0.1,delay:link(0,3)x5"
N_WORKERS = 8


def _policy(**kw):
    return RetryPolicy(**kw)


def max_total_wait(p):
    """Upper bound on the summed backoff of a fully exhausted message
    (excludes per-attempt timeouts, which scale with the RTT)."""
    return sum(
        p.backoff_cap(k) * (1.0 + p.jitter) for k in range(1, p.max_retries + 1)
    )


# -- 1. monotone backoff caps ------------------------------------------------


@given(
    base=st.floats(1e-4, 1.0),
    mult=st.floats(1.0, 4.0),
    cap_scale=st.floats(1.0, 100.0),
    attempt=st.integers(1, 20),
)
@settings(max_examples=100, deadline=None)
def test_backoff_cap_monotone_and_bounded(base, mult, cap_scale, attempt):
    p = _policy(base_s=base, multiplier=mult, cap_s=base * cap_scale)
    caps = [p.backoff_cap(k) for k in range(1, attempt + 1)]
    assert all(b <= a for b, a in zip(caps, caps[1:] + [p.cap_s]))
    assert all(c <= p.cap_s for c in caps)
    assert caps == sorted(caps)


@given(
    attempt=st.integers(1, 12),
    u=st.floats(0.0, 1.0, exclude_max=True),
    jitter=st.floats(0.0, 0.99),
)
@settings(max_examples=100, deadline=None)
def test_jittered_backoff_within_jitter_band(attempt, u, jitter):
    p = _policy(jitter=jitter)
    cap = p.backoff_cap(attempt)
    b = p.backoff(attempt, u)
    assert cap * (1.0 - jitter) - 1e-15 <= b <= cap * (1.0 + jitter) + 1e-15


# -- 2. bounded total wait ---------------------------------------------------


@given(
    retries=st.integers(0, 8),
    base=st.floats(1e-3, 0.5),
    jitter=st.floats(0.0, 0.9),
    us=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=8, max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_total_backoff_bounded_by_max_total_wait(retries, base, jitter, us):
    p = _policy(max_retries=retries, base_s=base, cap_s=max(base, 2.0),
                jitter=jitter)
    total = sum(p.backoff(k, us[k - 1]) for k in range(1, retries + 1))
    assert total <= max_total_wait(p) + 1e-12


@given(
    transfer=st.floats(1e-4, 1.0),
    retries=st.integers(0, 6),
)
@settings(max_examples=60, deadline=None)
def test_exhausted_send_wait_bounded_closed_form(transfer, retries):
    # A permanent partition severs (0, 4): every attempt times out.
    lf = make_link_faults(
        "partition:{w0..w3|w4..w7}@0+", N_WORKERS, seed=3
    )
    p = _policy(max_retries=retries)
    env = CommEnvelope(lf, p)
    out = env.send(0, 4, step=10, transfer_s=transfer)
    assert not out.delivered
    assert out.attempts == p.max_attempts
    # With no prior RTT the adaptive timeout is TIMEOUT_MULT × transfer.
    bound = p.max_attempts * TIMEOUT_MULT * transfer + max_total_wait(p)
    assert out.wait_s <= bound + 1e-12
    assert out.wait_s >= p.max_attempts * transfer  # at least the timeouts
    assert env.n_exhausted == 1


# -- 3. bitwise determinism & order independence -----------------------------


@given(
    src=st.integers(0, N_WORKERS - 1),
    dst=st.integers(0, N_WORKERS),
    step=st.integers(0, 500),
    attempt=st.integers(0, 6),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_draws_are_pure_functions_of_key(src, dst, step, attempt, seed):
    if src == dst:
        return
    a = make_link_faults(LOSSY, N_WORKERS, seed=seed)
    b = make_link_faults(LOSSY, N_WORKERS, seed=seed)
    assert a.message_lost(src, dst, step, attempt) == b.message_lost(
        src, dst, step, attempt
    )
    assert a.message_duplicated(src, dst, step, attempt) == b.message_duplicated(
        src, dst, step, attempt
    )
    assert a.jitter_uniform(src, dst, step, attempt) == b.jitter_uniform(
        src, dst, step, attempt
    )
    assert a.delay_factor(src, dst, step) == b.delay_factor(src, dst, step)


@given(order_seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_send_outcomes_independent_of_issue_order(order_seed):
    """Shuffling the order collectives issue sends (what a different
    executor interleaving would amount to) leaves every per-message
    outcome bitwise unchanged."""
    msgs = [(s, d, st_) for st_ in (0, 1, 2) for s in range(4)
            for d in range(4, 8)]
    transfer = 0.01

    def run(order):
        lf = make_link_faults(LOSSY, N_WORKERS, seed=7)
        env = CommEnvelope(lf, _policy())
        return {
            m: (o.delivered, o.attempts, o.duplicated)
            for m in order
            for o in [env.send(m[0], m[1], m[2], transfer)]
        }

    shuffled = list(msgs)
    np.random.default_rng(order_seed).shuffle(shuffled)
    assert run(msgs) == run(shuffled)


def test_symmetric_link_key_shares_draws():
    lf = make_link_faults(LOSSY, N_WORKERS, seed=1)
    for step in range(50):
        assert lf.message_lost(2, 6, step, 0) == lf.message_lost(6, 2, step, 0)
        assert lf.delay_factor(0, 3, step) == lf.delay_factor(3, 0, step)


def test_rtt_ewma_adapts_timeout():
    lf = make_link_faults("loss:p=0.0001", N_WORKERS, seed=0)
    env = CommEnvelope(lf, _policy())
    assert env.rtt_ewma is None
    env.send(0, 1, 0, transfer_s=0.05)
    assert env.rtt_ewma == pytest.approx(0.05)
    # A faster observed transfer pulls the estimate (and timeout) down.
    env.send(0, 1, 1, transfer_s=0.01)
    assert env.rtt_ewma < 0.05
    assert env.timeout_s(0.01) == pytest.approx(
        TIMEOUT_MULT * env.rtt_ewma
    )


def test_envelope_state_roundtrip():
    lf = make_link_faults(LOSSY, N_WORKERS, seed=5)
    env = CommEnvelope(lf, _policy())
    for step in range(20):
        env.send(0, 3, step, 0.01)  # delayed ×5 link, lossy
    state = env.state_dict()
    env2 = CommEnvelope(make_link_faults(LOSSY, N_WORKERS, seed=5), _policy())
    env2.load_state_dict(state)
    assert env2.state_dict() == state
    a = env.send(0, 3, 20, 0.01)
    b = env2.send(0, 3, 20, 0.01)
    assert (a.delivered, a.attempts, a.wait_s) == (
        b.delivered, b.attempts, b.wait_s
    )


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        _policy(max_retries=-1)
    with pytest.raises(ValueError):
        _policy(multiplier=0.5)
    with pytest.raises(ValueError):
        _policy(cap_s=0.01, base_s=0.02)
    with pytest.raises(ValueError):
        _policy(jitter=1.0)


def test_collective_timeout_error_carries_context():
    err = CollectiveTimeoutError("allreduce", 2, 5, step=42, attempts=5)
    assert err.op == "allreduce"
    assert (err.src, err.dst, err.step, err.attempts) == (2, 5, 42, 5)
    assert "step 42" in str(err) and "(2,5)" in str(err)
