"""Per-worker health scoring and quarantine policy.

A production cluster cannot assume a misbehaving worker announces itself:
an adversarial replica pushes finite-but-hostile updates, a sick node NaNs
intermittently, a thermally-throttled box straggles every round. The
:class:`HealthTracker` watches three per-round signals for every worker —

* **update-norm deviation** from the cohort median (EWMA-smoothed),
* **NaN/Inf strikes** (non-finite gradient norms),
* **straggle ratio** (compute time vs. the cohort median),

— and quarantines workers whose smoothed outlier score crosses the
threshold. A quarantined worker is excluded from aggregation and Δ(g)
votes, sits out a probation window, and is then reinstated from the
current global model (the trainer owns the parameter restore; this class
owns the bookkeeping).

Everything here is deterministic pure bookkeeping over values the trainer
already computes; with no anomalies the tracker never changes any
decision, and the trainer bypasses it entirely when health is disabled —
which is what keeps default runs byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.utils.state import Captured

#: Consecutive non-finite updates before quarantine (NaN/Inf is treated as
#: hard evidence; two in a row is enough).
MAX_STRIKES = 2

#: Compute-time ratio over the cohort median that starts counting toward
#: the score (3 ⇒ only >3× slowdowns accumulate evidence).
STRAGGLE_TOLERANCE = 3.0


@dataclass(frozen=True)
class QuarantineDecision:
    """One worker flagged this round."""

    worker: int
    score: float
    reason: str  # "outlier" | "non_finite" | "straggler"
    until: int  # first step at which reinstatement is allowed


class HealthTracker(Captured):
    """EWMA outlier scoring + quarantine state for ``n_workers`` ranks.

    Parameters
    ----------
    n_workers:
        Cluster size.
    threshold:
        Quarantine when a worker's smoothed outlier score exceeds this.
        The per-round raw score is ``|norm − median| / median`` plus any
        straggle excess, so a threshold of 3 means "consistently ~4× the
        cohort's update norm".
    probation:
        Steps a quarantined worker sits out before reinstatement.
    alpha:
        EWMA smoothing factor for the outlier score.
    warmup:
        Rounds observed before score-based quarantine activates (the EWMA
        needs a few samples; strike-based quarantine is always active).
    min_active:
        Quarantine floor: never flag a worker when doing so would leave
        fewer than this many non-quarantined ranks. Under a cluster-wide
        fault storm isolating everyone would kill the run outright; the
        floor keeps the (possibly degraded) majority training and lets the
        quorum check — not the health policy — decide when to give up.
    """

    def __init__(
        self,
        n_workers: int,
        threshold: float = 3.0,
        probation: int = 20,
        alpha: float = 0.3,
        warmup: int = 3,
        min_active: int = 1,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {threshold}")
        if probation < 1:
            raise ValueError(f"probation must be >= 1, got {probation}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not 0 <= min_active <= n_workers:
            raise ValueError(
                f"min_active must be in [0, {n_workers}], got {min_active}"
            )
        self.n_workers = int(n_workers)
        self.min_active = int(min_active)
        self.threshold = float(threshold)
        self.probation = int(probation)
        self.alpha = float(alpha)
        self.warmup = int(warmup)
        self.scores = [0.0] * self.n_workers
        self.strikes = [0] * self.n_workers
        self.observed = [0] * self.n_workers
        #: worker id → first step at which it may be reinstated.
        self.quarantined_until: Dict[int, int] = {}

    # -- quarantine state --------------------------------------------------
    def quarantined(self, worker: int) -> bool:
        return worker in self.quarantined_until

    @property
    def quarantined_workers(self) -> List[int]:
        return sorted(self.quarantined_until)

    def due_reinstatements(self, step: int) -> List[int]:
        """Workers whose probation has elapsed at ``step`` (sorted)."""
        return sorted(
            w for w, until in self.quarantined_until.items() if step >= until
        )

    def release(self, worker: int) -> None:
        """Lift a worker's quarantine (the trainer has restored it)."""
        self.quarantined_until.pop(worker, None)

    def _quarantine(
        self, worker: int, step: int, reason: str
    ) -> QuarantineDecision:
        until = step + self.probation
        self.quarantined_until[worker] = until
        d = QuarantineDecision(
            worker=worker, score=self.scores[worker], reason=reason, until=until
        )
        # Fresh slate on reinstatement: the worker restarts from the global
        # model, so pre-quarantine evidence no longer describes it.
        self.scores[worker] = 0.0
        self.strikes[worker] = 0
        self.observed[worker] = 0
        return d

    # -- per-round observation --------------------------------------------
    def observe(
        self,
        step: int,
        update_norms: Dict[int, float],
        compute_times: Optional[Dict[int, float]] = None,
    ) -> List[QuarantineDecision]:
        """Score one round of updates; return newly flagged workers.

        ``update_norms`` maps each participating worker to the L2 norm of
        its update (NaN/Inf marks a non-finite update); ``compute_times``
        optionally carries the same workers' simulated compute seconds.
        Already-quarantined workers are ignored.
        """
        compute_times = compute_times or {}
        flagged: List[QuarantineDecision] = []
        candidates = {
            w: n for w, n in update_norms.items() if not self.quarantined(w)
        }
        finite = sorted(n for n in candidates.values() if math.isfinite(n))
        med = _median(finite) if finite else float("nan")
        times = sorted(
            t for w, t in compute_times.items()
            if w in candidates and math.isfinite(t)
        )
        med_t = _median(times) if times else float("nan")
        def capacity() -> int:
            return (
                self.n_workers - self.min_active - len(self.quarantined_until)
            )

        for w in sorted(candidates):
            norm = candidates[w]
            if not math.isfinite(norm):
                self.strikes[w] += 1
                if self.strikes[w] >= MAX_STRIKES and capacity() > 0:
                    flagged.append(self._quarantine(w, step, "non_finite"))
                continue
            self.strikes[w] = 0
            # Norm deviation needs a meaningful cohort median: with fewer
            # than 3 finite peers there is no consensus to deviate from.
            deviation = 0.0
            if len(finite) >= 3 and med > 0.0:
                deviation = abs(norm - med) / med
            straggle_excess = 0.0
            t = compute_times.get(w)
            if t is not None and math.isfinite(med_t) and med_t > 0.0:
                straggle_excess = max(0.0, t / med_t - STRAGGLE_TOLERANCE)
            raw = deviation + straggle_excess
            reason = "straggler" if straggle_excess > deviation else "outlier"
            self.scores[w] += self.alpha * (raw - self.scores[w])
            self.observed[w] += 1
            if (
                self.observed[w] > self.warmup
                and self.scores[w] > self.threshold
                and capacity() > 0
            ):
                flagged.append(self._quarantine(w, step, reason))
        return flagged


def _median(sorted_vals: Sequence[float]) -> float:
    """Median of an already-sorted sequence (no numpy: keep this module a
    pure-bookkeeping dependency leaf)."""
    n = len(sorted_vals)
    if n == 0:
        raise ValueError("median of empty sequence")
    mid = n // 2
    if n % 2:
        return float(sorted_vals[mid])
    return 0.5 * (float(sorted_vals[mid - 1]) + float(sorted_vals[mid]))
