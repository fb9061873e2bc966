"""Pure local-SGD: never communicate (SelSync's δ→∞ limit, Fig. 6)."""

from __future__ import annotations

from repro.core.trainer import DistributedTrainer


class LocalSGDTrainer(DistributedTrainer):
    """The ``never`` rule: every worker descends its own loss surface;
    replicas never exchange anything, so each explores only its local
    minimum (paper §III-B). No communication means no healing pull: a
    corrupted or freshly quarantined worker simply loses the step."""

    name = "localsgd"
    # No data ever crosses a link, so link faults (including a full
    # network partition) cannot take a worker out of the round.
    communicates = False

    def decide(self, i, ok, rec):
        return False, ok
