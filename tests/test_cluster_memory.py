"""Tests for the memory-footprint accounting (Fig. 2b substrate)."""

import numpy as np
import pytest

from repro.cluster.memory import MemoryModel, measure_activation_bytes
from repro.nn import workspace
from repro.nn.layers import ReLU
from repro.nn.models import build_model
from repro.nn.workspace import owned_arrays

RNG = np.random.default_rng(0)


class TestActivationMeasurement:
    def test_grows_with_batch_size(self):
        """Fig. 2b's mechanism: activation memory scales with batch."""
        model = build_model("smallvgg", rng=0)
        model.train()
        model.forward(RNG.normal(size=(8, 3, 16, 16)))
        small = measure_activation_bytes(model)
        model.forward(RNG.normal(size=(32, 3, 16, 16)))
        large = measure_activation_bytes(model)
        assert large > 2 * small

    def test_conv_workspaces_are_counted(self):
        """The input planes, accumulators and pooling taps a conv model's
        forward saved as workspaces are most of what its backward reads;
        summing saved arrays alone reported 0.25 of 5.24 MB here."""
        model = build_model("smallvgg", rng=0)
        model.train()
        x = RNG.normal(size=(32, 3, 16, 16))
        model.forward(x)
        total = measure_activation_bytes(model)
        saved = [
            item for m in model.modules() for item in m._saved or ()
            if hasattr(item, "__dict__")
        ]
        scratch = sum(a.nbytes for ws in saved for a in owned_arrays(ws))
        # 4 conv + 2 pool workspaces; the ReLUs, Linears and Dropout save arrays
        assert len(saved) == 6
        assert scratch > 4e6 and scratch <= total < scratch + 2 * x.nbytes
        # After backward nothing is saved: the workspaces are free in the pool.
        model.backward(np.zeros((32, 100)))
        assert measure_activation_bytes(model) < total / 10

    def test_views_into_a_workspace_are_counted_once(self):
        relu = ReLU()
        x = RNG.normal(size=(4, 8))
        out = relu.forward(x)
        assert measure_activation_bytes(relu) == out.nbytes  # the saved output
        # A layer saving a slice of pooled memory, and a private array.
        relu._saved = (out[:2], x)
        assert measure_activation_bytes(relu) == out.nbytes + x.nbytes
        relu._saved = (x, x[1:], x.reshape(-1))  # one buffer, three views
        assert measure_activation_bytes(relu) == x.nbytes

    def test_transformer_grows_with_batch(self):
        model = build_model("tinytransformer", vocab_size=32, max_len=8, rng=0)
        model.train()
        model.forward(RNG.integers(0, 32, (2, 8)))
        small = measure_activation_bytes(model)
        model.forward(RNG.integers(0, 32, (16, 8)))
        large = measure_activation_bytes(model)
        assert large > small

    @pytest.mark.parametrize("name", ["smallresnet", "tinytransformer"])
    def test_only_what_backward_needs_is_counted(self, name):
        """BatchNorm running statistics, attention's causal mask and the
        transformer's position table are ndarray attributes but not
        activations: once the backward has consumed the saved slots, nothing
        is left to count."""
        if name == "smallresnet":
            model = build_model(name, rng=0)
            x, shape = RNG.normal(size=(4, 3, 16, 16)), (4, 10)
        else:
            model = build_model(name, vocab_size=32, max_len=8, rng=0)
            x, shape = RNG.integers(0, 32, (4, 8)), (4, 8, 32)
        model.train()
        model.forward(x)
        assert measure_activation_bytes(model) > 0
        model.backward(np.zeros(shape))
        assert measure_activation_bytes(model) == 0

    def test_positive_after_forward(self):
        model = build_model("mlp", rng=0)
        model.forward(RNG.normal(size=(4, 32)))
        assert measure_activation_bytes(model) > 0


class TestMemoryModel:
    def test_footprint_includes_param_buffers(self):
        model = build_model("mlp", rng=0)
        mm = MemoryModel(optimizer_slots=2)  # Adam
        fp = mm.footprint_bytes(model, activation_bytes=0)
        assert fp == 4 * model.nbytes  # params + grads + 2 slots

    def test_measure_end_to_end(self):
        model = build_model("smallresnet", rng=0)
        mm = MemoryModel(optimizer_slots=1)
        fp = mm.measure(model, RNG.normal(size=(4, 3, 16, 16)))
        assert fp > 3 * model.nbytes

    def test_measure_charges_the_backwards_buffers(self):
        """A step's working set: ReLU saves its output, and its backward
        borrows a bool mask and the dx."""
        x = RNG.normal(size=(4, 8))
        assert MemoryModel().measure(ReLU(), x) == 2 * x.nbytes + x.size

    def test_measure_works_in_a_pool_of_its_own(self):
        """The step runs in a pool of its own (a warm process pool would lend
        it buffers it keeps already), and leaves the process's pool as it
        was. Its working set is more than twice what the forward saved."""
        model, x = build_model("smallvgg", rng=0), RNG.normal(size=(8, 3, 16, 16))
        model.train()
        model.backward(np.zeros_like(model.forward(x)))
        kept = {key: {n: len(e) for n, e in s.items()} for key, s in workspace.POOL.kept.items()}
        model.forward(x)
        saved = measure_activation_bytes(model)
        fp = MemoryModel().measure(model, x)
        assert fp - 3 * model.nbytes > 2 * saved
        assert kept == {key: {n: len(e) for n, e in s.items()} for key, s in workspace.POOL.kept.items()}

    def test_negative_activations_rejected(self):
        with pytest.raises(ValueError):
            MemoryModel().footprint_bytes(build_model("mlp", rng=0), -1)

    def test_monotone_in_batch(self):
        """The OOM story of Fig. 2b: footprint strictly rises with b."""
        mm = MemoryModel()
        for name in ("smallalexnet", "smallvgg", "smallresnet"):
            model = build_model(name, rng=0)
            sizes = [
                mm.measure(model, RNG.normal(size=(b, 3, 16, 16)))
                for b in (4, 16, 64)
            ]
            assert sizes[0] < sizes[1] < sizes[2], name
