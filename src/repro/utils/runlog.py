"""Structured per-iteration run logging.

Every trainer emits one :class:`IterationRecord` per training step into a
:class:`RunLog`. The experiment harness consumes these logs to regenerate the
paper's tables and figures (simulated time, LSSR, accuracy trajectories,
gradient-change traces) without the trainers knowing anything about plotting
or reporting.

When tracing is enabled (:mod:`repro.obs`), the event trace is the ground
truth and the run log is a *derived view* over it:
:func:`repro.obs.views.runlog_from_trace` rebuilds an equivalent ``RunLog``
from the ``step_end``/``eval``/``fault`` events alone, which the test suite
asserts against the trainer-maintained one (fault records per step).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


@dataclass
class IterationRecord:
    """One training iteration as seen by the simulated cluster.

    Attributes
    ----------
    step:
        Global iteration index (0-based).
    synced:
        Whether this step performed a cluster-wide synchronization.
    sim_time:
        Simulated wall-clock duration of this step (seconds).
    comm_time:
        Portion of ``sim_time`` spent in communication.
    loss:
        Mean training loss across workers for this step.
    grad_change:
        Max over workers of the relative gradient change Δ(g_i); ``None``
        for trainers that do not track it (BSP/FedAvg/SSP).
    extra:
        Trainer-specific scalars (e.g. staleness for SSP).
    """

    step: int
    synced: bool
    sim_time: float
    comm_time: float = 0.0
    loss: float = float("nan")
    grad_change: Optional[float] = None
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class EvalRecord:
    """A periodic evaluation snapshot (test accuracy or perplexity)."""

    step: int
    epoch: float
    sim_time: float
    metric: float
    metric_name: str = "accuracy"


#: Known fault-record kinds (see :mod:`repro.cluster.faults` for the
#: injected ones; ``quarantine``/``reinstate`` come from the health
#: tracker and ``recovery`` from the rollback supervisor).
FAULT_KINDS = (
    "crash",
    "rejoin",
    "straggle",
    "drop",
    "corrupt",
    "quorum_lost",
    "quarantine",
    "reinstate",
    "recovery",
    # Link-level network faults (the link family of repro.utils.spec).
    "partition",
    "link_drop",
)


@dataclass
class FaultRecord:
    """One injected (or observed) fault event.

    Attributes
    ----------
    step:
        Step index at which the event fired.
    worker:
        Affected worker id, or -1 for cluster-wide events (quorum loss).
    kind:
        One of :data:`FAULT_KINDS`.
    detail:
        Event-specific scalars, e.g. ``{"factor": 4.0}`` for a straggle
        window, ``{"retries": 2, "lost": 0}`` for a dropped upload, or
        ``{"until": 120}`` for a crash with a known rejoin step.
    """

    step: int
    worker: int
    kind: str
    detail: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )


class RunLog:
    """Accumulates iteration and evaluation records for one training run.

    ``meta`` holds the reproducibility manifest (method, workload, seeds,
    library version) attached by the experiment runner; it round-trips
    through :func:`repro.utils.serialization.save_runlog`.
    """

    def __init__(self, name: str = "run", meta: Optional[Dict] = None):
        self.name = name
        self.meta: Dict = dict(meta) if meta else {}
        self.iterations: List[IterationRecord] = []
        self.evals: List[EvalRecord] = []
        self.faults: List[FaultRecord] = []

    # -- recording -------------------------------------------------------
    def record_iteration(self, rec: IterationRecord) -> None:
        self.iterations.append(rec)

    def record_eval(self, rec: EvalRecord) -> None:
        self.evals.append(rec)

    def record_fault(self, rec: FaultRecord) -> None:
        self.faults.append(rec)

    # -- aggregate views -------------------------------------------------
    @property
    def n_steps(self) -> int:
        return len(self.iterations)

    @property
    def total_sim_time(self) -> float:
        """Total simulated wall-clock across all recorded steps."""
        return float(sum(r.sim_time for r in self.iterations))

    @property
    def total_comm_time(self) -> float:
        return float(sum(r.comm_time for r in self.iterations))

    @property
    def n_synced(self) -> int:
        return sum(1 for r in self.iterations if r.synced)

    @property
    def n_local(self) -> int:
        return self.n_steps - self.n_synced

    def lssr(self) -> float:
        """Local-to-synchronous step ratio, Eqn. (4) of the paper.

        ``LSSR = steps_local / (steps_local + steps_bsp)``. 0.0 for pure BSP,
        1.0 for pure local-SGD. Raises if no steps were recorded.
        """
        if self.n_steps == 0:
            raise ValueError("LSSR undefined on an empty run log")
        return self.n_local / self.n_steps

    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.iterations], dtype=np.float64)

    def grad_changes(self) -> np.ndarray:
        """Per-step Δ(g); NaN where not tracked."""
        return np.array(
            [
                np.nan if r.grad_change is None else r.grad_change
                for r in self.iterations
            ],
            dtype=np.float64,
        )

    def eval_curve(self):
        """Return ``(steps, metrics)`` arrays of the evaluation snapshots."""
        steps = np.array([e.step for e in self.evals], dtype=np.int64)
        metrics = np.array([e.metric for e in self.evals], dtype=np.float64)
        return steps, metrics

    def best_metric(self, higher_is_better: bool = True) -> float:
        """Best evaluation metric observed over the run."""
        if not self.evals:
            raise ValueError("no evaluation records in run log")
        vals = [e.metric for e in self.evals]
        return max(vals) if higher_is_better else min(vals)

    def final_metric(self) -> float:
        if not self.evals:
            raise ValueError("no evaluation records in run log")
        return self.evals[-1].metric

    # -- fault views ------------------------------------------------------
    @property
    def n_faults(self) -> int:
        return len(self.faults)

    def faults_of_kind(self, kind: str) -> List[FaultRecord]:
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
            )
        return [f for f in self.faults if f.kind == kind]

    def summary(self) -> Dict[str, float]:
        """Dictionary of headline statistics for reporting."""
        out = {
            "steps": float(self.n_steps),
            "synced_steps": float(self.n_synced),
            "sim_time": self.total_sim_time,
            "comm_time": self.total_comm_time,
        }
        if self.n_steps:
            out["lssr"] = self.lssr()
        if self.evals:
            out["final_metric"] = self.final_metric()
        if self.faults:
            out["n_faults"] = float(self.n_faults)
        return out
