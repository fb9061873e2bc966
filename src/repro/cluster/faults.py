"""Deterministic fault injection for the simulated cluster.

The paper's evaluation assumes perfectly reliable workers; real clusters do
not cooperate. This module adds a seeded, fully deterministic fault model so
every trainer can be exercised under crashes, stragglers, lossy links and
corrupted gradients — and so the same faults replay identically under the
serial and process executors (drop/corrupt draws are keyed on
``(seed, worker, step)``, never on call order).

Faults are written as spec strings (``ClusterConfig.fault_spec`` /
``--fault-spec``), e.g. ``crash:w2@50-120,straggle:w0x4@30+,drop:p=0.05``;
the grammar is :mod:`repro.utils.spec`, and :class:`FaultInjector` below is
what the worker-level kinds *mean*:

``crash``
    Worker ``w`` is down for steps ``[start, end)`` and rejoins at ``end``
    (open-ended windows never rejoin). A down worker computes nothing,
    contributes nothing to aggregation, and its loader/optimizer freeze.
``straggle``
    Worker ``w``'s compute time is multiplied by ``factor`` for every step
    in the window (overlapping windows multiply); the same factor scales
    its upload-retry transfers, so a slow worker also retransmits slowly.
``drop``
    Each gradient/parameter upload is lost with probability ``p``
    (per-worker per-step Bernoulli; ``drop:p=`` hits every worker). Lost
    uploads are retried with exponential backoff charged to the cost
    model; after :data:`MAX_UPLOAD_RETRIES` failures the update is
    abandoned for the step and the worker is excluded from that round.
``corrupt:wID@...``
    Worker ``w``'s gradient is overwritten with a NaN/inf burst in the
    (bounded) window. Degraded-mode trainers detect the poisoned update
    and reject it rather than averaging it into the global model.
``corrupt:[wID:]p=...`` (kind ``adversarial``)
    With probability ``p`` per step the gradient is replaced with a fully
    *finite* hostile vector (a scaled sign-flip plus large-norm noise), so
    a plain mean silently averages it in — the threat model robust
    aggregators exist for.

Link-level kinds (``partition``, ``flap``, ``loss``, ``dup``, ``delay``;
``ClusterConfig.net_fault_spec`` / ``--net-faults``) model a sick *network*
rather than sick nodes; :class:`repro.comm.network.LinkFaultModel` is what
they mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.utils.spec import Plan, SpecError


class QuorumLostError(RuntimeError):
    """Raised when fewer workers than ``min_quorum`` can contribute to an
    aggregation round — a loud failure instead of a silently wrong mean.

    Instances raised by the trainers carry ``step`` / ``contributing`` /
    ``quorum`` attributes so a recovery supervisor can relax the quorum to
    the surviving worker set before retrying.
    """

    step: int = -1
    contributing: int = -1
    quorum: int = -1


class NonFiniteUpdateError(ValueError):
    """A NaN/Inf update vector reached an aggregation point that cannot
    tolerate it (the plain-mean path, or a robust round where *every*
    contribution was non-finite). Subclasses ``ValueError`` so existing
    shape-validation handlers keep working."""


#: Abandon an upload after this many failed retries (the update is lost for
#: the step and the worker drops out of that aggregation round).
MAX_UPLOAD_RETRIES = 8

#: First-retry backoff in simulated seconds; retry ``k`` waits ``base·2^k``.
RETRY_BACKOFF_BASE_S = 0.05


def retry_backoff_seconds(n_retries: int) -> float:
    """Total exponential-backoff wait for ``n_retries`` failed attempts."""
    if n_retries < 0:
        raise ValueError(f"n_retries must be >= 0, got {n_retries}")
    # base * (2^n - 1): geometric series of base·2^k for k in [0, n).
    return RETRY_BACKOFF_BASE_S * (2.0**n_retries - 1.0)


# -- the injector ------------------------------------------------------------


@dataclass
class StepFaults:
    """Fault transitions and state at one step, as seen by a trainer.

    ``live`` is the list of worker ids that are up this step; ``crashed`` /
    ``rejoined`` are the transitions that happened *at* this step (rejoined
    workers are live and need their state restored); ``corrupted`` lists the
    live workers whose gradient will be NaN-poisoned this step;
    ``adversarial`` lists the live workers whose gradient is replaced with a
    finite hostile vector (they still *look* healthy to any finiteness
    check and stay in the contributing set — only robust aggregation or
    health screening can defuse them); ``wire_lies`` holds the hostile
    vector each of them pushes this step, fabricated by the trainer's
    fault protocol (:mod:`repro.core.fault_protocol`).
    """

    step: int
    live: List[int]
    crashed: List[int]
    rejoined: List[int]
    corrupted: List[int]
    adversarial: List[int] = field(default_factory=list)
    wire_lies: Dict[int, np.ndarray] = field(default_factory=dict)


class FaultInjector:
    """Stateless-per-step fault oracle for one simulated cluster.

    All queries are pure functions of ``(plan, seed, worker, step)``; the
    injector holds no evolving state, so checkpoint/resume needs nothing
    from it and every executor backend sees identical faults.
    """

    def __init__(self, plan: Plan, n_workers: int, seed: int = 0):
        plan.validate(n_workers)
        self.plan = plan
        self.n_workers = int(n_workers)
        self.seed = int(seed)
        self._crashes = plan.of("crash")
        self._straggles = plan.of("straggle")
        self._drops = plan.of("drop")
        self._corruptions = plan.of("corrupt")
        self._adversarial = plan.of("adversarial")
        forever = [c for c in self._crashes if c.end is None]
        if len({c.target for c in forever}) >= self.n_workers:
            raise SpecError(
                f"crash clauses {','.join(c.to_spec() for c in forever)!r} take "
                f"all {n_workers} workers down for good; no step could ever run"
            )

    @classmethod
    def disabled(cls, n_workers: int) -> "FaultInjector":
        return cls(Plan("worker"), n_workers)

    @property
    def active(self) -> bool:
        return not self.plan.empty

    # -- liveness ---------------------------------------------------------
    def is_down(self, worker: int, step: int) -> bool:
        return any(c.target == worker and c.covers(step) for c in self._crashes)

    def live_workers(self, step: int) -> List[int]:
        return [w for w in range(self.n_workers) if not self.is_down(w, step)]

    def begin_step(self, step: int) -> StepFaults:
        """Liveness and transitions for ``step`` (pure; no state mutated)."""
        live = self.live_workers(step)
        crashed = [
            c.target
            for c in self._crashes
            # is_down(w, -1) is False, so start-of-run crashes register too.
            if c.start == step and not self.is_down(c.target, step - 1)
        ] if self.active else []
        # A worker "rejoins" at the first step after a crash window where it
        # is up again (adjacent windows merge into one outage).
        rejoined = [
            c.target
            for c in self._crashes
            if c.end == step and not self.is_down(c.target, step)
        ] if self.active else []
        corrupted = [
            c.target
            for c in self._corruptions
            if c.covers(step) and c.target in live
        ] if self.active else []
        # Dedup while preserving order (overlapping clauses for one worker).
        crashed = list(dict.fromkeys(crashed))
        rejoined = list(dict.fromkeys(rejoined))
        corrupted = list(dict.fromkeys(corrupted))
        corrupted_set = set(corrupted)
        adversarial = [
            w
            for w in live
            # A NaN burst takes precedence over the adversarial draw; the
            # draw itself is still consumed deterministically per worker.
            if self.adversarial_corrupts(w, step) and w not in corrupted_set
        ] if self._adversarial else []
        return StepFaults(
            step=step, live=live, crashed=crashed,
            rejoined=rejoined, corrupted=corrupted,
            adversarial=adversarial,
        )

    # -- stragglers -------------------------------------------------------
    def straggle_factor(self, worker: int, step: int) -> float:
        """Combined multiplicative slowdown for ``worker`` at ``step``
        (overlapping straggle windows multiply)."""
        f = 1.0
        for s in self._straggles:
            if s.target == worker and s.covers(step):
                f *= s.value
        return f

    # -- lossy uploads ----------------------------------------------------
    def _event_rng(self, worker: int, step: int, salt: int) -> np.random.Generator:
        # Keyed on (seed, worker, step): identical draws no matter which
        # thread, executor or call order asks.
        return np.random.default_rng(
            np.random.SeedSequence([self.seed, worker, step, salt])
        )

    @staticmethod
    def _composed(clauses, worker: int, step: int) -> float:
        """Probability that at least one of the clauses covering
        ``(worker, step)`` fires — independent channels: 1 - Π(1 - p_i).
        A clause without a target covers every worker."""
        p = 0.0
        for c in clauses:
            if (c.target is None or c.target == worker) and c.covers(step):
                p = 1.0 - (1.0 - p) * (1.0 - c.value)
        return p

    def upload_retries(self, worker: int, step: int) -> Tuple[int, bool]:
        """Number of failed upload attempts before success, and whether the
        update was abandoned (``retries == MAX_UPLOAD_RETRIES``).

        Deterministic per ``(seed, worker, step)``. With no matching drop
        clause this is ``(0, False)`` without consuming any randomness.
        """
        p = self._composed(self._drops, worker, step)
        if p <= 0.0:
            return 0, False
        rng = self._event_rng(worker, step, salt=0xD0)
        retries = 0
        while retries < MAX_UPLOAD_RETRIES and rng.random() < p:
            retries += 1
        return retries, retries >= MAX_UPLOAD_RETRIES

    def upload_penalty_seconds(
        self, worker: int, step: int, transfer_s: float
    ) -> Tuple[float, int, bool]:
        """Simulated extra seconds for this worker's upload at this step.

        Returns ``(extra_seconds, retries, lost)``. Each failed attempt
        costs one (straggle-scaled) retransfer plus exponential backoff;
        an abandoned upload still pays for every attempt it made.
        """
        retries, lost = self.upload_retries(worker, step)
        if retries == 0:
            return 0.0, 0, False
        scaled = transfer_s * self.straggle_factor(worker, step)
        return retries * scaled + retry_backoff_seconds(retries), retries, lost

    # -- corruption -------------------------------------------------------
    def corrupts(self, worker: int, step: int) -> bool:
        return any(
            c.target == worker and c.covers(step) for c in self._corruptions
        )

    def corrupt_gradient(self, worker: int, step: int, grad: np.ndarray) -> np.ndarray:
        """Return a NaN/inf-poisoned copy of ``grad`` (deterministic burst:
        ~1% of entries NaN, one entry ±inf)."""
        rng = self._event_rng(worker, step, salt=0xC0)
        out = np.array(grad, dtype=np.float64, copy=True)
        n = out.size
        k = max(1, n // 100)
        idx = rng.choice(n, size=min(k, n), replace=False)
        out.flat[idx] = np.nan
        out.flat[int(rng.integers(0, n))] = np.inf if rng.random() < 0.5 else -np.inf
        return out

    # -- adversarial (finite) corruption ----------------------------------
    #: Norm of an adversarial gradient relative to the honest one. Large
    #: enough that one hostile vector in a mean of ~8-16 visibly derails
    #: training; trivially trimmed by any coordinate-wise robust rule.
    ADVERSARIAL_BOOST = 40.0

    def adversarial_corrupts(self, worker: int, step: int) -> bool:
        """Deterministic Bernoulli: is this worker's gradient replaced with
        a hostile vector at this step? Independent clauses compose like
        drop probabilities."""
        p = self._composed(self._adversarial, worker, step)
        if p <= 0.0:
            return False
        rng = self._event_rng(worker, step, salt=0xAD)
        return bool(rng.random() < p)

    def adversarial_gradient(
        self, worker: int, step: int, grad: np.ndarray
    ) -> np.ndarray:
        """A finite hostile gradient: sign-flipped and noise-boosted to
        ``ADVERSARIAL_BOOST ×`` the honest norm.

        Every entry is finite, so finiteness checks pass and a plain mean
        averages it straight into the global model — the Byzantine threat
        model robust aggregation exists for. Deterministic per
        ``(seed, worker, step)``.
        """
        rng = self._event_rng(worker, step, salt=0xAE)
        g = np.asarray(grad, dtype=np.float64)
        norm = float(np.linalg.norm(g))
        if norm == 0.0 or not np.isfinite(norm):
            norm = 1.0
        noise = rng.standard_normal(g.shape)
        noise *= (norm / max(float(np.linalg.norm(noise)), 1e-30))
        return self.ADVERSARIAL_BOOST * (noise - g)
