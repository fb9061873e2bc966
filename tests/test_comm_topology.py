"""Link-schedule invariants and edge cases for sync topologies.

The :meth:`Topology.schedule_edges` contract is property-tested across every
registered topology and any participating subset: no self-loops, every id
a participant (or the PS pseudo-rank), no link twice. Structural facts
(ring degree, tree connectivity with k-1 edges, PS links only to the PS)
are pinned explicitly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.network import NetworkModel
from repro.comm.topology import (
    TOPOLOGIES,
    PSTopology,
    RingTopology,
    TreeTopology,
    build_topology,
)

ALL_NAMES = sorted(TOPOLOGIES.names()) if hasattr(TOPOLOGIES, "names") else [
    "ps", "ring", "tree"
]
#: The PS pseudo-rank (``LinkFaultModel.ps_rank`` is the worker count).
PS = 64


def links(topo, ranks):
    """The schedule as a set of undirected links."""
    return {frozenset(e) for e in topo.schedule_edges(ranks, PS)}


def peers(topo, rank, ranks):
    return {p for e in links(topo, ranks) if rank in e for p in e if p != rank}


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(ALL_NAMES),
    ranks=st.sets(st.integers(min_value=0, max_value=PS - 1), min_size=1),
)
def test_neighbor_invariants(name, ranks):
    topo = build_topology(name)
    edges = topo.schedule_edges(sorted(ranks), PS)
    assert all(a != b for a, b in edges)  # no self-loops
    assert all(x in ranks or x == PS for e in edges for x in e)  # in range
    assert len({frozenset(e) for e in edges}) == len(edges)  # no link twice


class TestPS:
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_workers_never_peer_directly(self, n):
        edges = PSTopology().schedule_edges(range(n), PS)
        assert sorted(edges) == [(r, PS) for r in range(n)]


class TestRing:
    def test_single_worker_ring_collapses(self):
        assert RingTopology().schedule_edges([0], PS) == ()

    def test_two_ring_is_one_link(self):
        assert links(RingTopology(), [0, 1]) == {frozenset({0, 1})}

    def test_ring_of_five(self):
        topo = RingTopology()
        assert peers(topo, 0, range(5)) == {4, 1}
        assert peers(topo, 2, range(5)) == {1, 3}
        assert peers(topo, 4, range(5)) == {3, 0}

    @pytest.mark.parametrize("n", [3, 4, 9])
    def test_every_rank_has_degree_two(self, n):
        topo = RingTopology()
        for r in range(n):
            assert len(peers(topo, r, range(n))) == 2


class TestTree:
    def test_root_children(self):
        topo = TreeTopology()
        assert peers(topo, 0, range(7)) == {1, 2}
        assert peers(topo, 0, range(2)) == {1}
        assert peers(topo, 0, range(1)) == set()

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17])
    def test_connected_with_n_minus_one_edges(self, n):
        topo = TreeTopology()
        assert len(links(topo, range(n))) == n - 1
        # BFS from the root reaches every rank → the edge set is one tree.
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for r in frontier:
                for p in peers(topo, r, range(n)):
                    if p not in seen:
                        seen.add(p)
                        nxt.append(p)
            frontier = nxt
        assert seen == set(range(n))


class TestSyncTimeEdges:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_single_worker_sync_is_free(self, name):
        assert build_topology(name).sync_time(1e9, 1, NetworkModel()) == 0.0

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_monotone_in_payload(self, name):
        topo = build_topology(name)
        net = NetworkModel()
        times = [topo.sync_time(b, 8, net) for b in (0.0, 1e3, 1e6, 1e9)]
        assert times == sorted(times)
        assert times[-1] > times[0]
