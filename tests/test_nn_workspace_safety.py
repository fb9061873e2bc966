"""Workspace-safety tests for the transformer hot path.

Every layer on the path works in pooled buffers (``nn.workspace``) and
attention caches its causal mask per ``T``. The lending rule (DESIGN.md,
"Workspace lending rule"): the pool lends only a buffer nothing references,
so what a layer saves for its backward, or a caller keeps, stays as written.
These tests pin what follows from it: reuse across shapes and calls never
changes a result, activations saved downstream survive until their
consumer's backward (and no longer), and workspaces are not state — a
resumed run rebuilds them and stays bitwise identical.
"""

import numpy as np
import pytest

from repro.core.evaluation import perplexity_eval
from repro.data.dataset import SequenceDataset
from repro.experiments.runner import MethodSpec, run_method
from repro.experiments.workloads import get_workload
from repro.nn.layers import Embedding, GELU, LayerNorm, Linear, MultiHeadSelfAttention
from repro.nn.models import build_model

RNG = np.random.default_rng(0)

LAYERS = {
    "gelu": lambda: GELU(),
    "layernorm": lambda: LayerNorm(8),
    "linear": lambda: Linear(8, 8, rng=1),
    "attention": lambda: MultiHeadSelfAttention(8, 2, causal=True, rng=1),
}


def step(layer, x, g):
    """forward + backward on a layer; private copies of (out, dx, grads)."""
    layer.zero_grad()
    out = np.array(layer.forward(x))
    dx = np.array(layer.backward(g))
    return out, dx, layer.get_flat_grads(copy=True)


def assert_same(a, b):
    for u, v in zip(a, b):
        np.testing.assert_array_equal(u, v)


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_alternating_train_and_eval_shapes_rebuild_the_workspace(name):
    """Train-size batches interleaved with eval-size ones, as every
    ``eval_every`` does to each layer of the deployed model."""
    used = LAYERS[name]()
    for b in (3, 7, 3, 3, 7):
        x = RNG.normal(size=(b, 4, 8))
        g = RNG.normal(size=(b, 4, 8))
        assert_same(step(used, x, g), step(LAYERS[name](), x, g))


def test_causal_mask_is_keyed_by_sequence_length():
    used = LAYERS["attention"]()
    for t in (5, 1, 3, 5, 1):
        x = RNG.normal(size=(2, t, 8))
        g = RNG.normal(size=(2, t, 8))
        assert_same(step(used, x, g), step(LAYERS["attention"](), x, g))
        assert used._mask.shape == (t, t)


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_backward_pairs_with_the_latest_forward(name):
    x1, x2, g = (RNG.normal(size=(2, 4, 8)) for _ in range(3))
    used = LAYERS[name]()
    used.forward(x1)
    assert_same(step(used, x2, g), step(LAYERS[name](), x2, g))


def test_held_activations_survive_until_their_backward():
    """What a layer saves for backward (``Linear``'s input is the previous
    layer's output buffer — LayerNorm's, GELU's, a Residual sum) must still
    hold its forward value when that layer's backward starts; once the
    backward is done, and after an evaluation, nothing is saved."""
    model = build_model("tinytransformer", vocab_size=16, max_len=8, rng=0, dropout=0.0)
    ids = RNG.integers(0, 16, (3, 8))
    g = RNG.normal(size=(3, 8, 16))

    def saved(m):
        return [a for a in m._saved or () if isinstance(a, np.ndarray)]

    checked = []

    def checking(m, at_forward):
        inner = m.backward

        def backward(grad_out):
            assert_same(saved(m), at_forward)
            checked.append(m)
            return inner(grad_out)

        return backward

    model.zero_grad()
    model.forward(ids)
    for m in model.modules():
        if saved(m):
            m.backward = checking(m, [a.copy() for a in saved(m)])
    model.backward(g)
    assert {type(m) for m in checked} == {
        Embedding, GELU, LayerNorm, Linear, MultiHeadSelfAttention
    }
    assert all(m._saved is None for m in model.modules())
    grads = model.get_flat_grads(copy=True)

    # Reuse is invisible: the same step again, and on a fresh model.
    model.zero_grad()
    model.forward(ids)
    model.backward(g)
    np.testing.assert_array_equal(model.get_flat_grads(), grads)
    fresh = build_model("tinytransformer", vocab_size=16, max_len=8, rng=0, dropout=0.0)
    fresh.forward(ids)
    fresh.backward(g)
    np.testing.assert_array_equal(fresh.get_flat_grads(), grads)

    # An evaluation saves nothing, and neither does the mode flip after it.
    model.eval()
    perplexity_eval(SequenceDataset(RNG.integers(0, 16, 200), bptt=8))(model)
    assert all(m._saved is None for m in model.modules())
    model.train()
    assert all(m._saved is None for m in model.modules())


def test_transformer_selsync_resume_is_bitwise_identical(tmp_path):
    """Workspaces are not state: a run killed at step 6 and resumed (fresh
    trainer and models, empty workspaces, evals at another batch shape in
    between) reproduces the uninterrupted run to the bit."""
    ck = str(tmp_path / "ck.npz")
    spec = MethodSpec("selsync", {"delta": 0.1, "aggregation": "params"})

    def run(**kw):
        built = get_workload("transformer_wikitext").build(
            n_workers=2, n_steps=12, data_scale=0.05, batch_size=4,
            cluster_kwargs={"executor": "serial"},
        )
        res = run_method(spec, built, n_steps=12, eval_every=3, **kw)
        return (
            [w.get_params() for w in built.workers],
            [r.loss for r in res.log.iterations],
            [r.sim_time for r in res.log.iterations],
            [(e.step, e.metric) for e in res.log.evals],
        )

    full = run()
    run(checkpoint_every=6, checkpoint_path=ck, stop_after=6)
    resumed = run(resume_from=ck)
    assert_same(full[0], resumed[0])
    assert full[1:] == resumed[1:]
