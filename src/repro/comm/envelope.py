"""Communication envelope: timeout → retry → exponential backoff.

Every message a collective sends travels inside a :class:`CommEnvelope`.
The envelope consults the :class:`~repro.comm.network.LinkFaultModel` for
per-attempt loss/duplication draws and administrative link state, charges
simulated wall-clock for each failed attempt (an adaptive timeout derived
from an RTT EWMA, plus exponential backoff with seeded jitter), and gives
up loudly after ``max_retries`` retries. Callers decide what "giving up"
means: the PS path degrades by dropping the sender from the round, while
ring/tree allreduce — which cannot proceed with a hole in the schedule —
raise :class:`CollectiveTimeoutError` into the quorum/recovery machinery.

Determinism: the jitter uniform for attempt ``k`` of the ``(src, dst,
step)`` message comes from the link-fault model's keyed stream, so the
entire retry schedule is a pure function of ``(seed, src, dst, step)`` —
identical across executors and independent of the order collectives issue
sends. The envelope itself draws no randomness.

With no link-fault model installed the envelope is never constructed at
all; fault-free runs go through the original single-shot transfer path and
stay bitwise identical to builds without this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.comm.network import LinkFaultModel
from repro.utils.state import Captured

__all__ = [
    "CollectiveTimeoutError",
    "RetryPolicy",
    "SendOutcome",
    "CommEnvelope",
]

#: A failed attempt costs ``TIMEOUT_MULT ×`` the adaptive RTT estimate
#: before the sender declares it lost.
TIMEOUT_MULT = 4.0

#: EWMA smoothing factor for the RTT estimate.
RTT_ALPHA = 0.2


class CollectiveTimeoutError(RuntimeError):
    """A collective could not complete within its retry budget.

    Raised when a message exhausts every attempt on a link the collective
    cannot route around (ring/tree schedules with no healthy detour). The
    recovery supervisor treats it like a quorum loss: roll back to the
    last checkpoint and resume with whatever connectivity remains.
    """

    def __init__(self, op: str, src: int, dst: int, step: int, attempts: int):
        self.op = op
        self.src = src
        self.dst = dst
        self.step = step
        self.attempts = attempts
        super().__init__(
            f"collective {op!r} timed out at step {step}: link "
            f"({src},{dst}) failed all {attempts} attempt(s)"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff schedule for one message.

    Attributes
    ----------
    max_retries:
        Retries after the first attempt (0 = single shot, fail fast).
    base_s:
        Backoff before the first retry.
    multiplier:
        Exponential growth factor per retry.
    cap_s:
        Ceiling on any single backoff interval.
    jitter:
        Symmetric jitter fraction: the backoff is scaled by
        ``1 + jitter * (2u - 1)`` for a keyed uniform ``u`` ∈ [0, 1), so
        the *cap* on interval k (``jitter=0``) is monotone non-decreasing
        and the jittered value stays within ±jitter of it.
    """

    max_retries: int = 4
    base_s: float = 0.025
    multiplier: float = 2.0
    cap_s: float = 2.0
    jitter: float = 0.5

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_s < 0:
            raise ValueError(f"base_s must be >= 0, got {self.base_s}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.cap_s < self.base_s:
            raise ValueError(
                f"cap_s ({self.cap_s}) must be >= base_s ({self.base_s})"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    @property
    def max_attempts(self) -> int:
        return 1 + self.max_retries

    def backoff_cap(self, attempt: int) -> float:
        """Jitter-free backoff ceiling before retry ``attempt`` (1-based).
        Monotone non-decreasing in ``attempt`` and bounded by ``cap_s``."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        return min(self.cap_s, self.base_s * self.multiplier ** (attempt - 1))

    def backoff(self, attempt: int, u: float) -> float:
        """Jittered backoff before retry ``attempt`` given uniform ``u``."""
        return self.backoff_cap(attempt) * (1.0 + self.jitter * (2.0 * u - 1.0))


@dataclass
class SendOutcome:
    """What one enveloped message cost and how it ended."""

    delivered: bool
    attempts: int
    #: Total simulated seconds: waits + backoffs + the final transfer.
    elapsed_s: float
    #: Retry-only portion (timeouts + backoffs); ``elapsed_s`` minus the
    #: useful transfer. This is what gets charged as retry latency.
    wait_s: float
    duplicated: bool = False
    #: Extra transfer seconds charged for an idempotent duplicate.
    dup_extra_s: float = 0.0


@dataclass
class CommEnvelope(Captured):
    """Per-message timeout/retry state machine over a link-fault model.

    Maintains an RTT EWMA (seeded from the first observed transfer) that
    adapts the per-attempt timeout: flaky-but-fast fabrics give up on an
    attempt quickly, congested ones wait longer before burning a retry.
    """

    _structure = ("faults", "policy")
    _evolving = ("rtt_ewma", "n_retries", "n_exhausted")

    faults: LinkFaultModel
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    #: Adaptive RTT estimate in seconds (``None`` until the first success).
    rtt_ewma: Optional[float] = None
    # Lifetime counters (surfaced via SimGroup state/metrics).
    n_retries: int = 0
    n_exhausted: int = 0

    def timeout_s(self, transfer_s: float) -> float:
        """Adaptive per-attempt timeout: a multiple of the RTT estimate,
        never below the time the transfer itself would need."""
        est = transfer_s if self.rtt_ewma is None else self.rtt_ewma
        return max(transfer_s, TIMEOUT_MULT * est)

    def _observe(self, rtt: float) -> None:
        a = RTT_ALPHA
        self.rtt_ewma = rtt if self.rtt_ewma is None else (
            (1.0 - a) * self.rtt_ewma + a * rtt
        )

    def send(
        self, src: int, dst: int, step: int, transfer_s: float, msg: int = 0
    ) -> SendOutcome:
        """Deliver one message, retrying through faults.

        ``transfer_s`` is the fault-free cost-model time for the payload;
        the link's delay factor scales it. ``msg`` namespaces independent
        messages sharing a ``(src, dst, step)`` key — the sharded PS push
        path sends one message per shard and each must draw its own fate
        (0, the default, keeps the exact pre-sharding streams). Returns a
        :class:`SendOutcome` — the caller decides whether a non-delivery
        degrades the round or raises :class:`CollectiveTimeoutError`.
        """
        f = self.faults
        delay = f.delay_factor(src, dst, step)
        effective = transfer_s * delay
        elapsed = 0.0
        wait = 0.0
        for attempt in range(1, self.policy.max_attempts + 1):
            down = f.link_down(src, dst, step)
            lost = down or f.message_lost(src, dst, step, attempt - 1, msg)
            if not lost:
                elapsed += effective
                self._observe(effective)
                dup = f.message_duplicated(src, dst, step, attempt - 1, msg)
                dup_extra = effective if dup else 0.0
                return SendOutcome(
                    delivered=True,
                    attempts=attempt,
                    elapsed_s=elapsed,
                    wait_s=wait,
                    duplicated=dup,
                    dup_extra_s=dup_extra,
                )
            t_out = self.timeout_s(effective)
            elapsed += t_out
            wait += t_out
            if attempt < self.policy.max_attempts:
                self.n_retries += 1
                u = f.jitter_uniform(src, dst, step, attempt - 1, msg)
                b = self.policy.backoff(attempt, u)
                elapsed += b
                wait += b
        self.n_exhausted += 1
        return SendOutcome(
            delivered=False,
            attempts=self.policy.max_attempts,
            elapsed_s=elapsed,
            wait_s=wait,
        )
