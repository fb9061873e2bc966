"""Tests for the in-process simulated collectives."""

import numpy as np
import pytest

from repro import obs
from repro.comm import NetworkModel, SimGroup
from repro.comm.costmodel import allgather_bits_time, sharded_ps_sync_time
from repro.comm.sharding import ShardSpec
from repro.comm.topology import PSTopology, build_topology
from repro.core import ClusterConfig
from repro.obs import views
from tests.conftest import charged


class TestAllreduceMean:
    def test_exact_mean(self):
        group = SimGroup(3)
        vecs = [np.full(4, float(i)) for i in range(3)]
        mean, t = charged(group.allreduce_mean, vecs)
        assert np.allclose(mean, 1.0)
        assert t > 0.0

    def test_nbytes_override_controls_time(self):
        group = SimGroup(4)
        v = [np.zeros(8) for _ in range(4)]
        _, t_small = charged(group.allreduce_mean, v, nbytes=1e3)
        _, t_big = charged(group.allreduce_mean, v, nbytes=1e9)
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
        with obs.collect() as events:
            group.allreduce_mean([np.zeros(4), np.zeros(4)], nbytes=100)
        assert [e.data["bytes"] for e in events if e.etype == "collective"] == [200.0]
        assert group.bytes_synced == 200


class TestChargeSync:
    def test_matches_topology_formula(self):
        net = NetworkModel()
        group = SimGroup(4, net=net, topology="ps")
        _, t = charged(group.charge_sync, 1e6)
        assert t == pytest.approx(PSTopology().sync_time(1e6, 4, net))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SimGroup(2).charge_sync(-1)

    @pytest.mark.parametrize("shard_spec", [None, ShardSpec.from_layers([2, 2], 2)])
    @pytest.mark.parametrize("entry", ["allreduce_mean", "charge_sync", "pull"])
    def test_negative_nbytes_rejected_by_every_entry(self, entry, shard_spec):
        """One check in the shared round routine: the ledger never runs
        backwards (``allreduce_mean(vs, nbytes=-8)`` used to subtract 24)."""
        group = SimGroup(3, shard_spec=shard_spec)
        vectors = ([np.zeros(4)] * 3,) if entry == "allreduce_mean" else ()
        ranks = {"ranks": [0, 1, 2]} if entry == "pull" else {}
        with pytest.raises(ValueError, match="nbytes must be >= 0"):
            with obs.collect() as events:
                getattr(group, entry)(*vectors, nbytes=-8, **ranks)
        assert group.bytes_synced == 0 and events == []

    @pytest.mark.parametrize("ranks", [[], [0, 0], [0, 3], [-1, 1], [0, 1, 2, 1]])
    @pytest.mark.parametrize("entry", ["allreduce_mean", "charge_sync", "pull"])
    def test_ranks_must_be_distinct_ids_in_range(self, entry, ranks):
        """``ranks`` is the round's one statement of who takes part: its
        length is the count, so an id named twice or outside the group is
        refused instead of charging a round nobody could have run."""
        group = SimGroup(3)
        vectors = ([np.zeros(4)] * len(ranks),) if entry == "allreduce_mean" else ()
        with pytest.raises(ValueError, match="distinct ids"):
            with obs.collect() as events:
                getattr(group, entry)(*vectors, nbytes=8, ranks=ranks)
        assert group.bytes_synced == 0 and events == []

    def test_ranks_size_the_round(self):
        net = NetworkModel()
        group = SimGroup(4, net=net)
        mean, t = charged(
            group.allreduce_mean, [np.zeros(2), np.full(2, 2.0)], nbytes=1e6, ranks=[3, 1]
        )
        assert np.array_equal(mean, [1.0, 1.0])
        assert t == pytest.approx(PSTopology().sync_time(1e6, 2, net))
        assert group.bytes_synced == 2 * int(1e6)


class TestAllgatherFlags:
    def test_returns_bits(self):
        group = SimGroup(4)
        flags, t = charged(group.allgather_flags, [0, 1, 0, 1])
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
        _, t_flags = charged(group.allgather_flags, [0] * 16)
        _, t_sync = charged(group.charge_sync, 170e6)
        assert t_flags < 0.05 * t_sync


#: Tensor sizes of the test model: three shards under ``ps_shards=3``.
_LAYERS = [6, 6, 4]


def _carriers(events):
    """The events a step's clock reads a round's seconds from: an
    unsharded ``collective``, or a sharded round's ``shard_round``."""
    return [
        e for e in events
        if e.etype == "shard_round" or (e.etype == "collective" and "shard" not in e.data)
    ]


class TestSecondsLiveOnEvents:
    """Every entry returns data or ``None``; its seconds are on exactly one
    event, the one :func:`repro.obs.views.clock` folds."""

    @pytest.mark.parametrize("net_faults", [None, "loss:p=0.1"])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_every_entry(self, shards, net_faults):
        cluster = ClusterConfig(n_workers=4, ps_shards=shards, net_fault_spec=net_faults)
        spec = cluster.make_shard_spec(_LAYERS)
        assert (spec is None) == (shards == 1)
        group = cluster.make_group(shard_spec=spec)
        net, payload = cluster.net, 8e6

        def round_s(k):
            if spec is None:
                return group.topology.sync_time(payload, k, net)
            sizes = spec.int_payloads(payload)
            return sharded_ps_sync_time(sizes, [k] * len(sizes), net)

        vectors = [np.full(sum(_LAYERS), float(i)) for i in range(4)]
        calls = [
            ("allreduce", lambda: group.allreduce_mean(vectors, nbytes=payload), round_s(4)),
            ("sync", lambda: group.charge_sync(payload), round_s(4)),
            ("sync", lambda: group.charge_sync(payload, ranks=[0, 2, 3]), round_s(3)),
            ("allgather_flags", lambda: group.allgather_flags([0, 1, 1, 0]),
             allgather_bits_time(4, net)),
            ("p2p", lambda: group.p2p(payload), net.transfer_time(payload)),
            ("pull", lambda: group.pull(payload, [0, 1, 3]), round_s(3) / 2.0),
        ]
        for step, (op, call, want) in enumerate(calls):
            group.begin_step(step)
            with obs.collect() as events:
                out = call()
            assert not isinstance(out, (float, tuple)), op
            (carrier,) = _carriers(events)
            assert carrier.data["op"] == op
            assert carrier.data["seconds"] == want > 0.0
            assert views.clock(events)[1] == want


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
