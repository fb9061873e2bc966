"""Automatic rollback recovery: a supervisor around the trainer run loop.

Fault injection makes failures *loud* — :class:`QuorumLostError` aborts a
run the moment too few workers can contribute, and unbounded replica
divergence quietly ruins a model long before any metric notices. The
:class:`RecoverySupervisor` turns both into recoverable incidents:

* **Quorum loss** — relax the quorum to the surviving contributor count
  (never below one), roll back to the latest checkpoint, and
  retry with the surviving worker set.
* **Divergence blow-up** — a step monitor (installed through
  ``TrainConfig.step_monitor``) watches the replica spread every step;
  when it stays above ``divergence_threshold`` for ``DIVERGENCE_PATIENCE``
  consecutive steps the run is aborted with
  :class:`DivergenceExceededError`, rolled back, and every replica is
  re-synced to the restored consensus before the retry.

Each recovery waits an exponential backoff (simulated — recorded, never
slept), up to ``max_recoveries`` attempts. Every incident is recorded as a
typed ``recovery`` :class:`~repro.utils.runlog.FaultRecord` on the final
run's log and as a ``fault`` trace event, so the trace remains the ground
truth of everything that happened — including the aborted attempts.

The supervisor is pure orchestration: a run that never trips either
trigger executes exactly one ``trainer.run(cfg)`` with an unmodified
config (when no divergence watchdog is requested), so fault-free runs stay
bitwise identical to unsupervised ones.
"""

from __future__ import annotations

import dataclasses
import os
from typing import List, Optional

from repro import obs
from repro.cluster.faults import QuorumLostError
from repro.comm.envelope import CollectiveTimeoutError
from repro.core.config import TrainConfig
from repro.core.divergence import replica_spread
from repro.core.trainer import DistributedTrainer, TrainResult
from repro.utils.serialization import load_checkpoint, save_checkpoint
from repro.utils.runlog import FaultRecord

#: Simulated backoff before retry ``k`` is ``BACKOFF_BASE_S × 2^(k-1)``
#: seconds — recorded in the ``recovery`` fault record, never slept for real.
BACKOFF_BASE_S = 1.0

#: Consecutive above-threshold steps before the divergence watchdog aborts.
DIVERGENCE_PATIENCE = 3


class DivergenceExceededError(RuntimeError):
    """Replica spread stayed above the threshold for too many steps."""

    def __init__(self, msg: str, step: int = -1, spread: float = float("nan")):
        super().__init__(msg)
        self.step = step
        self.spread = spread


class RecoverySupervisor:
    """Run a trainer to completion through quorum-loss/divergence faults.

    Parameters
    ----------
    max_recoveries:
        Recovery attempts before giving up (the final failure re-raises).
    divergence_threshold:
        Replica-spread level that counts as divergence; ``None`` (default)
        installs no watchdog and leaves ``TrainConfig.step_monitor``
        untouched.
    """

    def __init__(
        self,
        max_recoveries: int = 3,
        divergence_threshold: Optional[float] = None,
    ):
        if max_recoveries < 0:
            raise ValueError(f"max_recoveries must be >= 0, got {max_recoveries}")
        if divergence_threshold is not None and divergence_threshold <= 0:
            raise ValueError(
                f"divergence_threshold must be > 0, got {divergence_threshold}"
            )
        self.max_recoveries = int(max_recoveries)
        self.divergence_threshold = divergence_threshold
        #: ``recovery`` records of every incident handled so far (also
        #: appended to the final result's RunLog).
        self.recoveries: List[FaultRecord] = []
        self._hot_streak = 0

    # -- divergence watchdog ----------------------------------------------
    def _monitor(self, trainer: DistributedTrainer, step: int) -> None:
        spread = replica_spread(trainer.workers)
        if spread > self.divergence_threshold:
            self._hot_streak += 1
            if self._hot_streak >= DIVERGENCE_PATIENCE:
                raise DivergenceExceededError(
                    f"step {step}: replica spread {spread:.3g} above "
                    f"{self.divergence_threshold:.3g} for "
                    f"{self._hot_streak} consecutive steps",
                    step=step,
                    spread=spread,
                )
        else:
            self._hot_streak = 0

    def _wrap(self, cfg: TrainConfig) -> TrainConfig:
        if self.divergence_threshold is None:
            return cfg
        if cfg.step_monitor is not None:
            raise ValueError(
                "TrainConfig.step_monitor is already set; the supervisor's "
                "divergence watchdog would overwrite it"
            )
        return dataclasses.replace(cfg, step_monitor=self._monitor)

    # -- rollback ----------------------------------------------------------
    def _rollback(self, trainer: DistributedTrainer, cfg: TrainConfig) -> TrainConfig:
        """Restore the latest checkpoint (or the initial snapshot) and
        return the config the retry should run with."""
        ck_path = cfg.checkpoint_path
        if ck_path is not None and os.path.exists(ck_path):
            # Resume from the on-disk checkpoint: trainer state, step
            # counter, and run log all restore inside trainer.run().
            return dataclasses.replace(cfg, resume_from=ck_path)
        # No checkpoint yet: roll back to the pre-run snapshot and retry
        # from step 0.
        trainer.load_state_dict(self._initial_state)
        return dataclasses.replace(cfg, resume_from=None)

    def _record(
        self,
        trainer: DistributedTrainer,
        cfg: TrainConfig,
        step: int,
        attempt: int,
        reason: str,
        detail: dict,
    ) -> None:
        backoff = BACKOFF_BASE_S * (2.0 ** (attempt - 1))
        # Through the trainer's one fault writer, into the tracer the run
        # that raised has already torn down: the trace keeps the aborted
        # attempt's events *and* the incident that ended it. Only a quorum
        # loss is keyed on a worker's own iteration (SSP).
        with obs.use(cfg.tracer):
            self.recoveries.append(trainer.fault_protocol.record(
                step, -1, "recovery", at_iteration=reason == "quorum_lost",
                attempt=attempt, reason=reason, backoff_s=backoff, **detail,
            ))

    # -- the supervised loop ----------------------------------------------
    def run(self, trainer: DistributedTrainer, cfg: TrainConfig) -> TrainResult:
        """``trainer.run(cfg)`` with rollback-and-retry around it."""
        cfg = self._wrap(cfg)
        # Pre-run snapshot: the rollback target before the first checkpoint
        # exists. state_dict() copies arrays, so later training does not
        # mutate it.
        self._initial_state = trainer.state_dict()
        attempt = 0
        while True:
            try:
                self._hot_streak = 0
                result = trainer.run(cfg)
                for rec in self.recoveries:
                    result.log.record_fault(rec)
                return result
            except (QuorumLostError, CollectiveTimeoutError, DivergenceExceededError) as e:
                attempt += 1
                step, reason, detail = self._incident(e, trainer)
                self._record(trainer, cfg, step, attempt, reason, detail)
                if attempt > self.max_recoveries:
                    raise
                if reason == "quorum_lost":
                    # Degrade to the surviving worker set: demanding the old
                    # quorum again would fail the same way immediately.
                    trainer.fault_protocol.quorum = detail["quorum_after"]
                # A timed-out collective just retries: a flapping link may be
                # up again, and a persistent partition has shrunk the live
                # set to the majority side by then.
                cfg = self._rollback(trainer, cfg)
                if reason == "divergence":
                    # The checkpoint was taken mid-drift; collapse the spread
                    # so the retry restarts from consensus, and re-snapshot
                    # it so the retry resumes from there.
                    if cfg.resume_from is not None:
                        trainer.load_state_dict(
                            load_checkpoint(cfg.resume_from, subtree=("state",))
                        )
                    trainer.resync_replicas()
                    if cfg.resume_from is not None:
                        _rewrite_checkpoint(cfg, trainer)

    def _incident(self, e: Exception, trainer: DistributedTrainer):
        """``(step, reason, detail)`` of one recoverable incident."""
        if isinstance(e, QuorumLostError):
            survivors = max(1, int(getattr(e, "contributing", 0)))
            return int(getattr(e, "step", -1)), "quorum_lost", {
                "quorum_before": trainer.fault_protocol.quorum,
                "quorum_after": survivors,
                "contributing": int(getattr(e, "contributing", -1)),
            }
        if isinstance(e, CollectiveTimeoutError):
            detail = {"op": e.op, "src": e.src, "dst": e.dst, "attempts": e.attempts}
            return e.step, "collective_timeout", detail
        return e.step, "divergence", {"spread": float(e.spread)}


def _rewrite_checkpoint(cfg: TrainConfig, trainer: DistributedTrainer) -> None:
    """Overwrite the checkpoint file's trainer state with the resynced one
    (the step counter and the log are kept as saved)."""
    ck = load_checkpoint(cfg.checkpoint_path)
    ck["state"] = trainer.state_dict(copy=False)
    save_checkpoint(ck, cfg.checkpoint_path)
