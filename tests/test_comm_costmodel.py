"""Tests for the communication cost models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.costmodel import (
    allgather_bits_time,
    ps_sync_time,
    ring_allreduce_time,
    tree_allreduce_time,
)
from repro.comm.collectives import SimGroup
from repro.comm.network import NetworkModel
from tests.conftest import charged


@pytest.fixture
def net():
    return NetworkModel()


class TestNetworkModel:
    def test_transfer_time_formula(self, net):
        t = net.transfer_time(5e9 / 8)  # exactly 1 second of payload at 5 Gbps
        assert t == pytest.approx(1.0 + net.latency_s)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(bandwidth_bps=0)
        with pytest.raises(ValueError):
            NetworkModel(latency_s=-1)
        with pytest.raises(ValueError):
            NetworkModel(workers_per_node=0)

    def test_negative_bytes(self, net):
        with pytest.raises(ValueError):
            net.transfer_time(-1)

    def test_effective_bandwidth_improves_with_colocation(self):
        lone = NetworkModel(workers_per_node=1).effective_worker_bandwidth()
        packed = NetworkModel(workers_per_node=4).effective_worker_bandwidth()
        assert packed > lone


class TestPsSync:
    def test_single_worker_free(self, net):
        assert ps_sync_time(1e6, 1, net) == 0.0

    def test_monotone_in_bytes(self, net):
        assert ps_sync_time(2e6, 4, net) > ps_sync_time(1e6, 4, net)

    def test_ingress_grows_with_workers(self, net):
        """PS NIC serializes node ingress — more nodes, more time."""
        assert ps_sync_time(100e6, 16, net) > ps_sync_time(100e6, 4, net)

    def test_colocation_reduces_cost(self):
        """Paper clusters pack 4 GPUs/node at N=16: fewer NIC crossings."""
        flat = NetworkModel(workers_per_node=1)
        packed = NetworkModel(workers_per_node=4)
        assert ps_sync_time(100e6, 16, packed) < ps_sync_time(100e6, 16, flat)

    def test_vgg11_dominates_resnet101(self, net):
        """The 507 MB model pays ~3x the 170 MB model's bill (Fig. 1a)."""
        t_vgg = ps_sync_time(507e6, 16, net)
        t_rn = ps_sync_time(170e6, 16, net)
        assert 2.0 < t_vgg / t_rn < 4.0


class TestRingAllreduce:
    def test_single_worker_free(self, net):
        assert ring_allreduce_time(1e6, 1, net) == 0.0

    def test_bandwidth_term_saturates(self, net):
        """Ring payload term approaches 2·bytes/bw regardless of N; with
        tiny latency the total is nearly flat in N."""
        quiet = NetworkModel(latency_s=0.0)
        t4 = ring_allreduce_time(100e6, 4, quiet)
        t16 = ring_allreduce_time(100e6, 16, quiet)
        assert t16 < 1.4 * t4

    def test_cheaper_than_ps_at_scale(self, net):
        """The paper's §III point: allreduce is bandwidth-optimal vs PS."""
        assert ring_allreduce_time(507e6, 16, net) < ps_sync_time(507e6, 16, net)


class TestTreeAllreduce:
    def test_logarithmic_hops(self, net):
        quiet = NetworkModel(latency_s=0.0)
        t2 = tree_allreduce_time(1e6, 2, quiet)
        t16 = tree_allreduce_time(1e6, 16, quiet)
        assert t16 == pytest.approx(4 * t2)  # log2(16)/log2(2)

    def test_single_worker_free(self, net):
        assert tree_allreduce_time(1e6, 1, net) == 0.0


class TestFlagAllgather:
    def test_single_worker_free(self, net):
        assert allgather_bits_time(1, net) == 0.0

    def test_paper_magnitude(self, net):
        """Paper §III: the 1-bit allgather cost ≈ 2–4 ms at N=16."""
        t = allgather_bits_time(16, net)
        assert 1e-3 < t < 10e-3

    def test_negligible_vs_model_sync(self, net):
        assert allgather_bits_time(16, net) < 0.01 * ps_sync_time(170e6, 16, net)


class TestP2P:
    def test_matches_transfer(self, net):
        assert charged(SimGroup(2, net).p2p, 1e6) == (None, net.transfer_time(1e6))


@given(
    nbytes=st.floats(1.0, 1e9),
    n=st.integers(2, 64),
)
@settings(max_examples=60, deadline=None)
def test_all_costs_positive_property(nbytes, n):
    net = NetworkModel()
    for fn in (ps_sync_time, ring_allreduce_time, tree_allreduce_time):
        assert fn(nbytes, n, net) > 0.0
    assert allgather_bits_time(n, net) > 0.0
