"""Coverage for :mod:`repro.comm.network` — links, edge payloads, metrics.

Focus areas the trainer-level tests never hit directly: zero-byte
transfers, parameter validation, the intra-node harmonic blend, and the
tracer metrics hook on the transfer primitive.
"""

import pytest

from repro import obs
from repro.comm.network import NetworkModel
from tests.conftest import charged


class TestValidation:
    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            NetworkModel(bandwidth_bps=0)
        with pytest.raises(ValueError):
            NetworkModel(ps_bandwidth_bps=-1)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            NetworkModel(latency_s=-1e-4)

    def test_rejects_zero_workers_per_node(self):
        with pytest.raises(ValueError):
            NetworkModel(workers_per_node=0)


class TestTransferTime:
    def test_zero_bytes_costs_exactly_latency(self):
        net = NetworkModel(latency_s=3e-4)
        assert net.transfer_time(0) == 3e-4

    def test_zero_bytes_zero_latency_is_free(self):
        assert NetworkModel(latency_s=0.0).transfer_time(0) == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel().transfer_time(-1)

    def test_linear_in_bytes(self):
        net = NetworkModel(latency_s=0.0, bandwidth_bps=8e9)
        assert net.transfer_time(1e9) == pytest.approx(1.0)
        assert net.transfer_time(2e9) == pytest.approx(2.0)

    def test_bandwidth_override(self):
        net = NetworkModel(latency_s=0.0, bandwidth_bps=8e9)
        slow = net.transfer_time(1e9, bandwidth_bps=8e8)
        assert slow == pytest.approx(10.0 * net.transfer_time(1e9))


class TestEffectiveBandwidth:
    def test_single_worker_per_node_is_nic_rate(self):
        net = NetworkModel(workers_per_node=1)
        assert net.effective_worker_bandwidth() == net.bandwidth_bps

    def test_colocated_blend_is_between_nic_and_intranode(self):
        net = NetworkModel(workers_per_node=4, intra_node_speedup=8.0)
        eff = net.effective_worker_bandwidth()
        assert net.bandwidth_bps < eff < net.bandwidth_bps * 8.0

    def test_harmonic_blend_formula(self):
        net = NetworkModel(
            bandwidth_bps=1e9, workers_per_node=2, intra_node_speedup=4.0
        )
        # Half the transfers cross the NIC (1e9), half run intra-node (4e9).
        expected = 1.0 / (0.5 / 1e9 + 0.5 / 4e9)
        assert net.effective_worker_bandwidth() == pytest.approx(expected)


class TestMetricsHook:
    def test_no_tracer_no_side_effects(self):
        assert obs.active() is None
        NetworkModel().transfer_time(1e6)  # must not raise or install one
        assert obs.active() is None


class TestZeroByteAndSingleWorkerCollectives:
    """Degenerate payloads/groups through the SimGroup layer."""

    def test_zero_byte_allreduce(self):
        import numpy as np

        from repro.comm import SimGroup

        g = SimGroup(3)
        mean, t = charged(g.allreduce_mean, [np.zeros(4)] * 3, nbytes=0)
        assert np.array_equal(mean, np.zeros(4))
        assert g.bytes_synced == 0  # zero payload adds nothing to the ledger
        assert t >= 0.0

    def test_zero_byte_charge_sync_and_p2p(self):
        from repro.comm import SimGroup

        g = SimGroup(2)
        out, t = charged(g.charge_sync, 0)
        assert out is None and t >= 0.0
        assert g.bytes_synced == 0
        assert charged(g.p2p, 0) == (None, g.net.latency_s)

    def test_single_worker_sync_is_free(self):
        import numpy as np

        from repro.comm import SimGroup

        g = SimGroup(1)
        mean, t = charged(g.allreduce_mean, [np.arange(4.0)], nbytes=1e9)
        assert np.array_equal(mean, np.arange(4.0))
        assert t == 0.0  # no peers, no wire time — for any topology
        assert charged(g.charge_sync, 1e9) == (None, 0.0)
        # The byte ledger still counts the (degenerate) round.
        assert g.bytes_synced == 2 * int(1e9)

    def test_single_worker_ring_sync_is_free(self):
        from repro.comm import SimGroup

        g = SimGroup(1, topology="ring")
        assert charged(g.charge_sync, 1e9) == (None, 0.0)

    def test_single_worker_flag_round(self):
        import numpy as np

        from repro.comm import SimGroup

        g = SimGroup(1)
        flags, t = charged(g.allgather_flags, [1])
        assert np.array_equal(flags, [1])
        assert t >= 0.0
