"""Values that are module constants, not constructor keywords.

No caller sets them, so none of these constructors takes them: passing one
is a ``TypeError`` at the call, never a silently ignored setting.
"""

import pytest

from repro.cluster.elastic import ElasticController
from repro.cluster.health import HealthTracker
from repro.comm.envelope import RetryPolicy
from repro.core import RecoverySupervisor, SelSyncTrainer, TrainConfig
from repro.utils.spec import parse_spec

CALLS = {
    "decide_every": lambda: ElasticController(parse_spec("", "member"), decide_every=10),
    "boot_s": lambda: ElasticController(parse_spec("", "member"), boot_s=5.0),
    # Read by nothing, so no longer taken (nor saved in a checkpoint).
    "seed": lambda: ElasticController(parse_spec("", "member"), seed=0),
    "max_strikes": lambda: HealthTracker(4, max_strikes=2),
    "straggle_tolerance": lambda: HealthTracker(4, straggle_tolerance=3.0),
    "backoff_base_s": lambda: RecoverySupervisor(backoff_base_s=1.0),
    "divergence_patience": lambda: RecoverySupervisor(divergence_patience=3),
    "quorum_floor": lambda: RecoverySupervisor(quorum_floor=1),
    "ewma_alpha": lambda: SelSyncTrainer([], None, ewma_alpha=0.04),
    "delta_overhead_s": lambda: SelSyncTrainer([], None, delta_overhead_s=3e-3),
    "min_improvement": lambda: TrainConfig(min_improvement=1e-4),
    "timeout_mult": lambda: RetryPolicy(timeout_mult=4.0),
    "rtt_alpha": lambda: RetryPolicy(rtt_alpha=0.2),
}


@pytest.mark.parametrize("keyword", sorted(CALLS))
def test_a_fixed_value_is_not_a_keyword(keyword):
    with pytest.raises(TypeError, match=keyword):
        CALLS[keyword]()
