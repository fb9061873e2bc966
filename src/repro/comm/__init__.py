"""Simulated communication substrate.

Data movement between simulated workers happens in-process over numpy
buffers (mpi4py-style collective semantics); the *time* each operation would
take on the paper's testbed (5 Gbps NIC, PS topology) comes from an explicit
cost model, so speedups are ratios of modelled wall-clock.
"""

from repro.comm.network import LinkFaultModel, NetworkModel, make_link_faults
from repro.comm.costmodel import (
    allgather_bits_time,
    chain_allreduce_time,
    ps_sync_time,
    ring_allreduce_time,
    sharded_ps_sync_time,
    tree_allreduce_time,
    tree_reparent_time,
)
from repro.comm.sharding import ShardSpec
from repro.comm.envelope import (
    CollectiveTimeoutError,
    CommEnvelope,
    RetryPolicy,
    SendOutcome,
)
from repro.comm.topology import (
    HealedSync,
    PSTopology,
    RingTopology,
    Topology,
    TreeTopology,
    build_topology,
)
from repro.comm.collectives import SimGroup

__all__ = [
    "NetworkModel",
    "LinkFaultModel",
    "make_link_faults",
    "ps_sync_time",
    "sharded_ps_sync_time",
    "ShardSpec",
    "ring_allreduce_time",
    "tree_allreduce_time",
    "chain_allreduce_time",
    "tree_reparent_time",
    "allgather_bits_time",
    "CollectiveTimeoutError",
    "CommEnvelope",
    "RetryPolicy",
    "SendOutcome",
    "Topology",
    "HealedSync",
    "PSTopology",
    "RingTopology",
    "TreeTopology",
    "build_topology",
    "SimGroup",
]
