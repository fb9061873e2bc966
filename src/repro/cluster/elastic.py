"""Elastic cluster membership: scale policies and the controller.

A membership plan is a spec string (``ClusterConfig.elastic_spec`` /
``--elastic``; grammar: :mod:`repro.utils.spec`), e.g.
``"join:+2@100,drain:w3@50,scale:4..12"``: ``join:+K@STEP`` — K fresh
workers join at the start of STEP; ``drain:wR@STEP`` — the worker at rank R
(at that time) drains at the start of STEP; ``scale:MIN..MAX`` — world-size
bounds for policy-driven autoscaling.

Two sources of membership change share one controller:

* the **plan** — explicit join/drain clauses applied at fixed steps, and
* the **policy** — a :class:`ScalePolicy` that reads the controller's live
  signal stream (:meth:`ElasticController.signals`: goodput in samples per
  sim-second, communication fraction, per-rank compute EWMAs)
  and emits scale decisions. Decisions are deterministic:
  pure functions of ``(signals, world_size, step)`` and the policy's
  checkpointed state, so outcomes are identical across the serial and
  process executors and across a checkpoint/resume boundary.

Worker identity: ranks are always the dense ``0..N-1`` positions of the
current worker list (drains renumber the survivors), while every worker
also carries a stable ``uid`` assigned at join time. ``membership`` trace
events record both, so a timeline can follow an individual worker across
renumberings.

The controller holds no reference to workers or trainers; the mechanics of
a membership change (joiner bootstrap, repartitioning, group/executor
rebuilds) live in :class:`repro.core.trainer.DistributedTrainer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.spec import Plan
from repro.utils.state import Captured

#: Fixed boot cost charged (in sim-seconds) when one or more joiners are
#: provisioned at a step, on top of the model transfer each joiner pulls.
PROVISION_BOOT_S = 5.0

#: Steps between two policy decisions (a decision may still hold).
DECIDE_EVERY = 10

#: Minimum steps between two applied membership changes — gives the signal
#: EWMAs time to reflect the new world size before the next decision.
DEFAULT_COOLDOWN = 10

#: EWMA smoothing factor for the controller's signal stream.
SIGNAL_ALPHA = 0.2

#: Default world-size bounds when the plan has no ``scale:`` clause;
#: generous on purpose — the plan is explicit user intent.
DEFAULT_MIN_WORKERS = 1
DEFAULT_MAX_WORKERS = 64


# -- scale policies ----------------------------------------------------------


class ScalePolicy:
    """Deterministic world-size policy over the controller's signals.

    ``decide`` receives a read-only snapshot of the signal stream, the
    current world size, the step and a mutable ``state`` dict (checkpointed
    by the controller). It returns the *desired* world size; the controller
    clamps to the configured bounds and converts the difference into
    join/drain actions.
    """

    name = "abstract"

    def decide(self, signals: Dict[str, float], world_size: int, step: int,
               state: Dict) -> int:
        raise NotImplementedError


class NoScalePolicy(ScalePolicy):
    """Plan-only elasticity: never proposes a change."""

    name = "none"

    def decide(self, signals, world_size, step, state):
        return world_size


class GoodputHillClimb(ScalePolicy):
    """Hill-climb on goodput (samples per sim-second).

    Probes upward first; after every decision compares the goodput EWMA
    against its value at the previous decision and keeps the direction
    while goodput improves, reversing when it degrades. With PS-bound
    communication this walks the cluster toward the size where adding a
    worker stops paying for its sync cost.
    """

    name = "goodput"

    #: Relative improvement below which a probe counts as a regression.
    rel_eps = 0.01

    def decide(self, signals, world_size, step, state):
        goodput = signals.get("elastic.goodput", float("nan"))
        if not np.isfinite(goodput):
            return world_size
        prev = state.get("prev_goodput")
        direction = int(state.get("direction", 1))
        if prev is not None and goodput < prev * (1.0 + self.rel_eps):
            direction = -direction
        state["direction"] = direction
        state["prev_goodput"] = float(goodput)
        return world_size + direction


class CommFractionPolicy(ScalePolicy):
    """Keep the communication fraction of step time inside a band.

    Above ``hi`` the sync phase dominates (more workers only deepen the PS
    ingress collapse of Fig. 1a): shrink. Below ``lo`` compute dominates:
    grow. Stateless, so trivially deterministic.
    """

    name = "comm"

    lo = 0.15
    hi = 0.45

    def decide(self, signals, world_size, step, state):
        frac = signals.get("elastic.comm_fraction", float("nan"))
        if not np.isfinite(frac):
            return world_size
        if frac > self.hi:
            return world_size - 1
        if frac < self.lo:
            return world_size + 1
        return world_size


SCALE_POLICIES: Dict[str, type] = {
    p.name: p for p in (NoScalePolicy, GoodputHillClimb, CommFractionPolicy)
}


def make_scale_policy(name: str) -> ScalePolicy:
    cls = SCALE_POLICIES.get(name)
    if cls is None:
        raise ValueError(
            f"unknown scale policy {name!r}; valid choices: "
            f"{', '.join(sorted(SCALE_POLICIES))}"
        )
    return cls()


# -- controller --------------------------------------------------------------


@dataclass
class MembershipActions:
    """What the controller wants to happen at the start of one step."""

    drains: List[int] = field(default_factory=list)  # ranks, current numbering
    joins: int = 0
    #: ``scale_decision`` event payload (also emitted on a hold), or None.
    decision: Optional[Dict] = None

    @property
    def any_change(self) -> bool:
        return bool(self.drains) or self.joins > 0


@dataclass
class ElasticContext:
    """Everything a trainer needs to materialize membership changes.

    Carries the same factories the workload was originally built from, so
    a joiner's fresh replica and a repartitioned loader are constructed
    exactly like the initial ones. ``partition_fn(n_samples, n_workers,
    rng)`` must return a :class:`~repro.data.partition.Partition` over the
    new world size (SelDP re-rotates, DefDP re-splits).
    """

    model_factory: object
    optimizer_factory: object
    dataset: object
    batch_size: int
    partition_fn: object
    reshuffle: bool = True
    loss_factory: Optional[object] = None


class ElasticController(Captured):
    """Deterministic membership/autoscale decisions for one training run.

    Owns the plan, the policy, the stable-uid ledger and the live signal
    stream (:meth:`signals`, all of it checkpointed). The signals are
    folded here from each step's record, never read back from the trace,
    so traced and untraced runs stay bitwise identical.
    """

    _structure = ("plan", "policy")

    def __init__(
        self,
        plan: Plan,
        policy: Optional[ScalePolicy] = None,
        cooldown: int = DEFAULT_COOLDOWN,
    ):
        # World-size bounds: the plan's ``scale:MIN..MAX`` clause (the
        # grammar checks ``1 <= MIN <= MAX``), else the wide defaults.
        scale = plan.of("scale")
        lo, hi = scale[0].target if scale else (DEFAULT_MIN_WORKERS, DEFAULT_MAX_WORKERS)
        self.plan = plan
        self.policy = policy if policy is not None else NoScalePolicy()
        self.min_workers = int(lo)
        self.max_workers = int(hi)
        self.cooldown = int(cooldown)
        # Stable uids, parallel to the trainer's worker list.
        self.uids: List[int] = []
        self._next_uid = 0
        # Per-rank compute-time EWMAs — the straggler signal scale-down
        # drains by; parallel to the worker list.
        self._compute_ewma: List[float] = []
        self._goodput = float("nan")
        self._comm_frac = float("nan")
        self._samples = 0.0
        self._sim_seconds = 0.0
        self._worker_seconds = 0.0
        self._last_change_step = -(10**9)
        self._policy_state: Dict = {}

    # -- lifecycle ---------------------------------------------------------
    def attach(self, n_workers: int) -> None:
        """Adopt the initial membership (called once by the trainer)."""
        if self.uids:
            return
        self.uids = list(range(n_workers))
        self._next_uid = n_workers
        self._compute_ewma = [float("nan")] * n_workers

    # -- decisions ---------------------------------------------------------
    def actions_for_step(self, step: int, world_size: int) -> MembershipActions:
        """Plan events scheduled at ``step`` plus any policy decision.

        Plan clauses win: on a step with scheduled joins/drains the policy
        sits out (its signals will reflect the new size by the next
        decision point). Policy decisions fire every ``DECIDE_EVERY``
        steps, respect the cooldown after any applied change, and are
        clamped to ``[min_workers, max_workers]``.
        """
        acts = MembershipActions(
            drains=self.drains_at(step), joins=self.joins_at(step)
        )
        if acts.any_change:
            return acts
        if (
            isinstance(self.policy, NoScalePolicy)
            or step == 0
            or step % DECIDE_EVERY != 0
            or step - self._last_change_step < self.cooldown
            or self._sim_seconds <= 0.0
        ):
            return acts
        desired = self.policy.decide(
            self.signals(), world_size, step, self._policy_state
        )
        desired = max(self.min_workers, min(self.max_workers, int(desired)))
        acts.decision = {
            "policy": self.policy.name,
            "current": int(world_size),
            "desired": int(desired),
            "applied": bool(desired != world_size),
        }
        g = self._goodput
        if np.isfinite(g):
            acts.decision["goodput"] = float(g)
        if desired > world_size:
            acts.joins = desired - world_size
        elif desired < world_size:
            acts.drains = self.drain_candidates(world_size - desired)
        return acts

    def joins_at(self, step: int) -> int:
        """Workers the plan has joining at the start of ``step``."""
        return sum(c.target for c in self.plan.of("join") if c.start == step)

    def drains_at(self, step: int) -> List[int]:
        """Ranks the plan drains at the start of ``step``, ascending."""
        return sorted(c.target for c in self.plan.of("drain") if c.start == step)

    def drain_candidates(self, count: int) -> List[int]:
        """Ranks to drain on scale-down: worst compute-time EWMA first
        (the stragglers), deterministic tie-break on the higher rank."""
        ewma = np.asarray(self._compute_ewma, dtype=np.float64)
        # Ranks with no signal yet sort last (keep them; they are new).
        keys = np.where(np.isfinite(ewma), ewma, -np.inf)
        order = sorted(range(len(keys)), key=lambda r: (-keys[r], -r))
        return sorted(order[:count])

    # -- membership bookkeeping -------------------------------------------
    def on_drain(self, rank: int, step: int) -> int:
        """Record a drain of ``rank``; returns the departing stable uid."""
        uid = self.uids.pop(rank)
        self._compute_ewma.pop(rank)
        self._last_change_step = step
        return uid

    def on_join(self, step: int) -> int:
        """Record one joiner; returns its freshly assigned stable uid."""
        uid = self._next_uid
        self._next_uid += 1
        self.uids.append(uid)
        self._compute_ewma.append(float("nan"))
        self._last_change_step = step
        return uid

    def provision_seconds(self, joins: int, net, comm_bytes: float) -> float:
        """Sim-second cost of provisioning this step's joiners: a fixed
        boot charge plus the model pull, via the network cost model.
        Joiners provision in parallel, so one transfer is charged."""
        if joins <= 0:
            return 0.0
        return PROVISION_BOOT_S + net.transfer_time(comm_bytes)

    # -- signal stream -----------------------------------------------------
    def observe_step(
        self,
        step: int,
        rec,
        world_size: int,
        batch_size: int,
        compute_times: Optional[Sequence[float]],
    ) -> None:
        """Fold one completed step into the signal stream."""
        samples = float(world_size * batch_size)
        self._samples += samples
        self._sim_seconds += float(rec.sim_time)
        self._worker_seconds += float(world_size * rec.sim_time)
        if rec.sim_time > 0:
            inst = samples / float(rec.sim_time)
            self._goodput = _ewma(self._goodput, inst)
            self._comm_frac = _ewma(
                self._comm_frac, float(rec.comm_time) / float(rec.sim_time)
            )
        if compute_times is not None:
            for r, t in enumerate(compute_times[:world_size]):
                if r < len(self._compute_ewma):
                    self._compute_ewma[r] = _ewma(
                        self._compute_ewma[r], float(t)
                    )

    def signals(self) -> Dict[str, float]:
        """Snapshot of the signal stream the policy decides over."""
        return {
            "elastic.goodput": float(self._goodput),
            "elastic.comm_fraction": float(self._comm_frac),
            "elastic.samples": float(self._samples),
            "elastic.sim_seconds": float(self._sim_seconds),
            "elastic.worker_seconds": float(self._worker_seconds),
        }


def _ewma(current: float, value: float, alpha: float = SIGNAL_ALPHA) -> float:
    if not np.isfinite(current):
        return float(value)
    return float((1.0 - alpha) * current + alpha * value)


def derive_rng_seed(seed: int, salt: int, step: int) -> int:
    """Deterministic child seed keyed on ``(seed, salt, step)`` — the
    stream repartitioned loaders and resized compute models draw from."""
    return int(
        np.random.SeedSequence([int(seed), int(salt), int(step)]).generate_state(1)[0]
    )
