"""Tests for per-layer communication scheduling (§II-D models)."""

import numpy as np
import pytest

from repro.comm.network import NetworkModel
from repro.comm.scheduling import (
    bucketed_schedule,
    fused_schedule,
    layer_sizes_bytes,
    per_layer_schedule,
)
from repro.nn.models import build_model


@pytest.fixture
def net():
    return NetworkModel(latency_s=1e-3)


SIZES = [4_000_000, 2_000_000, 1_000_000, 500_000]  # backward order
BWD = 0.1  # seconds of backward compute


class TestLayerSizes:
    def test_reversed_parameter_order(self):
        m = build_model("mlp", in_features=8, n_classes=3, hidden=(16,), rng=0)
        sizes = layer_sizes_bytes(m)
        params = [p.nbytes for p in m.parameters()]
        assert sizes == list(reversed(params))

    def test_total_matches_model(self):
        m = build_model("smallvgg", rng=0)
        assert sum(layer_sizes_bytes(m)) == m.nbytes


class TestFused:
    def test_sequential_composition(self, net):
        r = fused_schedule(SIZES, BWD, net)
        expected_comm = net.latency_s + 8 * sum(SIZES) / net.bandwidth_bps
        assert r.total_time == pytest.approx(BWD + expected_comm)
        assert r.comm_tail == pytest.approx(expected_comm)
        assert r.n_messages == 1


class TestPerLayer:
    def test_overlap_beats_fused_when_comm_matters(self, net):
        fused = fused_schedule(SIZES, BWD, net)
        layered = per_layer_schedule(SIZES, BWD, net)
        assert layered.total_time < fused.total_time

    def test_never_finishes_before_backward(self, net):
        r = per_layer_schedule([8], BWD, net)  # negligible payload
        assert r.total_time >= BWD

    def test_message_count(self, net):
        assert per_layer_schedule(SIZES, BWD, net).n_messages == len(SIZES)

    def test_empty_model(self, net):
        r = per_layer_schedule([], BWD, net)
        assert r.total_time == BWD and r.n_messages == 0


class TestBucketed:
    def test_coalesces_small_layers(self, net):
        tiny = [1000] * 50
        r = bucketed_schedule(tiny, BWD, net, bucket_bytes=10_000)
        assert r.n_messages == 5

    def test_latency_amortization_beats_per_layer_for_tiny_layers(self):
        """With many tiny layers on a high-latency link, per-layer pays one
        latency each; bucketing wins — ByteScheduler's raison d'être."""
        slow = NetworkModel(latency_s=5e-3)
        tiny = [1000] * 100
        layered = per_layer_schedule(tiny, 0.01, slow)
        bucketed = bucketed_schedule(tiny, 0.01, slow, bucket_bytes=50_000)
        assert bucketed.total_time < layered.total_time

    def test_single_bucket_equals_fused_tail(self, net):
        """A bucket larger than the whole model degenerates to one fused
        message sent at backward completion."""
        r = bucketed_schedule(SIZES, BWD, net, bucket_bytes=1e12)
        f = fused_schedule(SIZES, BWD, net)
        assert r.total_time == pytest.approx(f.total_time)
        assert r.n_messages == 1

    def test_validation(self, net):
        with pytest.raises(ValueError):
            bucketed_schedule(SIZES, BWD, net, bucket_bytes=0)


class TestCompare:
    def test_runs_on_real_model(self):
        sizes = layer_sizes_bytes(build_model("smallresnet", rng=0))
        net = NetworkModel()
        fused = fused_schedule(sizes, 0.05, net)
        layered = per_layer_schedule(sizes, 0.05, net)
        bucketed = bucketed_schedule(sizes, 0.05, net, bucket_bytes=1e6)
        assert bucketed.n_messages <= layered.n_messages == len(sizes)
        # All schedules move the same bytes; fused is never the fastest
        # when communication dominates.
        assert layered.total_time <= fused.total_time + 1e-12
