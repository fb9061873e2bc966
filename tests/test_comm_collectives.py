"""Tests for the in-process simulated collectives."""

import numpy as np
import pytest

from repro.comm import NetworkModel, SimGroup
from repro.comm.sharding import ShardSpec
from repro.comm.topology import PSTopology, build_topology


class TestAllreduceMean:
    def test_exact_mean(self):
        group = SimGroup(3)
        vecs = [np.full(4, float(i)) for i in range(3)]
        mean, t = group.allreduce_mean(vecs)
        assert np.allclose(mean, 1.0)
        assert t > 0.0

    def test_nbytes_override_controls_time(self):
        group = SimGroup(4)
        v = [np.zeros(8) for _ in range(4)]
        _, t_small = group.allreduce_mean(v, nbytes=1e3)
        _, t_big = group.allreduce_mean(v, nbytes=1e9)
        assert t_big > t_small

    def test_shape_mismatch_raises(self):
        group = SimGroup(2)
        with pytest.raises(ValueError):
            group.allreduce_mean([np.zeros(3), np.zeros(4)])

    def test_wrong_count_raises(self):
        group = SimGroup(3)
        with pytest.raises(ValueError):
            group.allreduce_mean([np.zeros(2)] * 2)

    def test_counters(self):
        group = SimGroup(2)
        group.allreduce_mean([np.zeros(4), np.zeros(4)], nbytes=100)
        assert group.n_syncs == 1
        assert group.bytes_synced == 200


class TestChargeSync:
    def test_matches_topology_formula(self):
        net = NetworkModel()
        group = SimGroup(4, net=net, topology="ps")
        t = group.charge_sync(1e6)
        assert t == pytest.approx(PSTopology().sync_time(1e6, 4, net))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SimGroup(2).charge_sync(-1)

    @pytest.mark.parametrize("shard_spec", [None, ShardSpec.from_layers([2, 2], 2)])
    @pytest.mark.parametrize(
        "entry", ["allreduce_mean", "charge_sync", "sync_time_only"]
    )
    def test_negative_nbytes_rejected_by_every_entry(self, entry, shard_spec):
        """One check in the shared round routine: the ledger never runs
        backwards (``allreduce_mean(vs, nbytes=-8)`` used to subtract 24)."""
        group = SimGroup(3, shard_spec=shard_spec)
        vectors = ([np.zeros(4)] * 3,) if entry == "allreduce_mean" else ()
        with pytest.raises(ValueError, match="nbytes must be >= 0"):
            getattr(group, entry)(*vectors, nbytes=-8)
        assert group.bytes_synced == 0 and group.n_syncs == 0

    @pytest.mark.parametrize("ranks", [[], [0, 0], [0, 3], [-1, 1], [0, 1, 2, 1]])
    @pytest.mark.parametrize(
        "entry", ["allreduce_mean", "charge_sync", "sync_time_only"]
    )
    def test_ranks_must_be_distinct_ids_in_range(self, entry, ranks):
        """``ranks`` is the round's one statement of who takes part: its
        length is the count, so an id named twice or outside the group is
        refused instead of charging a round nobody could have run."""
        group = SimGroup(3)
        vectors = ([np.zeros(4)] * len(ranks),) if entry == "allreduce_mean" else ()
        with pytest.raises(ValueError, match="distinct ids"):
            getattr(group, entry)(*vectors, nbytes=8, ranks=ranks)
        assert group.bytes_synced == 0 and group.n_syncs == 0

    def test_ranks_size_the_round(self):
        net = NetworkModel()
        group = SimGroup(4, net=net)
        mean, t = group.allreduce_mean(
            [np.zeros(2), np.full(2, 2.0)], nbytes=1e6, ranks=[3, 1]
        )
        assert np.array_equal(mean, [1.0, 1.0])
        assert t == pytest.approx(PSTopology().sync_time(1e6, 2, net))
        assert group.bytes_synced == 2 * int(1e6)


class TestAllgatherFlags:
    def test_returns_bits(self):
        group = SimGroup(4)
        flags, t = group.allgather_flags([0, 1, 0, 1])
        assert np.array_equal(flags, [0, 1, 0, 1])
        assert t > 0.0

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            SimGroup(2).allgather_flags([0, 2])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            SimGroup(3).allgather_flags([0, 1])

    def test_flag_time_much_cheaper_than_sync(self):
        group = SimGroup(16)
        _, t_flags = group.allgather_flags([0] * 16)
        t_sync = group.charge_sync(170e6)
        assert t_flags < 0.05 * t_sync


class TestTopologyRegistry:
    @pytest.mark.parametrize("name", ["ps", "ring", "tree"])
    def test_buildable(self, name):
        topo = build_topology(name)
        assert topo.sync_time(1e6, 4, NetworkModel()) > 0.0

    def test_group_accepts_instance(self):
        group = SimGroup(2, topology=PSTopology())
        assert group.topology.name == "ps"

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            SimGroup(0)
