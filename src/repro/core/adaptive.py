"""Adaptive δ policies — an extension beyond the paper.

The paper sets δ once before launch (§III-B) and notes that the useful range
``[0, M]`` depends on the model, dataset and hyperparameters — which makes a
good δ a per-workload tuning burden. These policies pick the threshold
online from the observed Δ(g) stream, removing that knob:

* :class:`FixedDelta` — the paper's behaviour, wrapped in the policy API.
* :class:`FractionOfMaxDelta` — δ_i = fraction × M_i where M_i is the
  running extremum of finite Δ(g) across workers; syncs during a warmup
  prefix while M_i is still unreliable.
* :class:`TargetLSSRDelta` — a feedback controller that nudges δ to hit a
  user-chosen LSSR (communication budget) regardless of workload.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.utils.state import Captured

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.selsync import SelSyncTrainer


class DeltaPolicy(Captured):
    """Maps trainer state to the δ threshold used this iteration."""

    def effective_delta(self, trainer: "SelSyncTrainer", step: int) -> float:
        raise NotImplementedError


class FixedDelta(DeltaPolicy):
    """The paper's pre-launch constant δ."""

    def __init__(self, delta: float):
        if delta < 0:
            raise ValueError(f"δ must be >= 0, got {delta}")
        self.delta = float(delta)

    def effective_delta(self, trainer, step: int) -> float:
        return self.delta


class FractionOfMaxDelta(DeltaPolicy):
    """δ tracks a fraction of the observed gradient-change extremum M.

    During ``warmup`` steps the policy returns 0 (pure BSP) so M is
    estimated on honestly-synchronized dynamics; afterwards
    ``δ = fraction × M`` adapts automatically to the workload's Δ(g) scale
    (Fig. 6's ``[0, M]`` range, chosen online instead of by hand).
    """

    def __init__(self, fraction: float = 0.05, warmup: int = 20):
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if warmup < 1:
            raise ValueError(f"warmup must be >= 1, got {warmup}")
        self.fraction = fraction
        self.warmup = warmup

    def effective_delta(self, trainer, step: int) -> float:
        if step < self.warmup:
            return 0.0
        return self.fraction * trainer.max_observed_delta


class TargetLSSRDelta(DeltaPolicy):
    """Feedback controller steering δ toward a target LSSR.

    After each step, compare the realized LSSR so far with the target and
    scale δ multiplicatively: too much syncing ⇒ raise δ, too little ⇒
    lower it. Converges to whatever threshold delivers the requested
    communication budget on this workload.
    """

    _evolving = ("delta",)  # the controller's output, not a setting

    def __init__(
        self,
        target_lssr: float = 0.9,
        initial_delta: float = 0.1,
        gain: float = 0.05,
        warmup: int = 10,
    ):
        if not 0.0 < target_lssr < 1.0:
            raise ValueError(f"target LSSR must be in (0, 1), got {target_lssr}")
        if initial_delta <= 0:
            raise ValueError(f"initial δ must be positive, got {initial_delta}")
        if gain <= 0:
            raise ValueError(f"gain must be positive, got {gain}")
        self.target = target_lssr
        self.delta = initial_delta
        self.gain = gain
        self.warmup = warmup
        self._local = 0
        self._total = 0

    def observe(self, synced: bool) -> None:
        """Feed back the realized decision of the last step."""
        self._total += 1
        if not synced:
            self._local += 1
        if self._total <= self.warmup:
            return
        realized = self._local / self._total
        # Multiplicative update: undersyncing the budget lowers δ and vice
        # versa. Clamped to stay strictly positive.
        self.delta = max(1e-12, self.delta * (1.0 + self.gain * (self.target - realized)))

    def effective_delta(self, trainer, step: int) -> float:
        if step < self.warmup:
            return 0.0
        return self.delta
