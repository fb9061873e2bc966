"""The per-process layer-workspace pool (``repro.nn.workspace``).

Layers check their scratch buffers out of one pool in ``forward`` and
return them when ``backward`` completes. These tests pin what that has to
guarantee: sharing is invisible in every result (interleaved models,
repeated same-signature layers inside one model, forward-only use), and the
pool's size depends on neither the replica count nor the number of batch
shapes a run has seen.
"""

import numpy as np
import pytest

from repro.core import TrainConfig
from repro.experiments.runner import MethodSpec, build_trainer
from repro.experiments.workloads import get_workload
from repro.nn import workspace
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import build_model
from tests.test_nn_fastpath_differential import naive_cross_entropy

RNG = np.random.default_rng(0)


@pytest.fixture(autouse=True)
def pool(monkeypatch):
    """Every test starts from an empty pool of its own."""
    fresh = workspace.WorkspacePool()
    monkeypatch.setattr(workspace, "POOL", fresh)
    return fresh


class PrivatePool(workspace.WorkspacePool):
    """Reference behaviour: nothing is ever reused, so every forward works
    in freshly allocated (garbage-filled) buffers no other layer has seen."""

    def give_back(self, sig, shape, ws):
        pass


def is_scratch(sig):
    """The conv's partial-product buffer or LayerNorm's backward product,
    held within one call only."""
    return sig == "lnscratch" or sig[:1] == ("slabtmp",)


def free_workspaces(pool):
    """Free workspaces, call-local scratch skipped: a layer holds none."""
    return [
        ws for (sig, _), sizes in pool.free.items() if not is_scratch(sig)
        for free in sizes.values() for ws in free
    ]


def free_scratch(pool):
    """{(signature, batch-first shape): free buffers} of call-local scratch."""
    return {
        (sig, (n, *shape)): len(free)
        for (sig, shape), sizes in pool.free.items() if is_scratch(sig)
        for n, free in sizes.items()
    }


def n_free(pool):
    return len(free_workspaces(pool))


def n_held(*models):
    return sum(m._held is not None for model in models for m in model.modules())


def images(b):
    return RNG.normal(size=(b, 3, 16, 16)), RNG.integers(0, 10, b)


def grads_of(model, x, y):
    loss = CrossEntropyLoss()
    model.zero_grad()
    loss.forward(model.forward(x), y)
    model.backward(loss.backward())
    return model.get_flat_grads(copy=True)


@pytest.mark.parametrize("name", ["smallvgg", "smallresnet"])
def test_interleaved_models_match_back_to_back(name, pool):
    (xa, ya), (xb, yb) = images(8), images(8)
    # Fresh twins for the reference: a second pass would draw new dropout masks.
    expect = [
        grads_of(build_model(name, rng=s), x, y)
        for s, x, y in ((0, xa, ya), (1, xb, yb))
    ]
    one_set = n_free(pool)

    a, b = (build_model(name, rng=s) for s in (0, 1))
    la, lb = CrossEntropyLoss(), CrossEntropyLoss()
    a.zero_grad()
    b.zero_grad()
    la.forward(a.forward(xa), ya)
    lb.forward(b.forward(xb), yb)
    # One set is a model's workspaces and its loss's.
    assert n_free(pool) == 0 and n_held(a, b, la, lb) == 2 * one_set
    a.backward(la.backward())
    b.backward(lb.backward())
    np.testing.assert_array_equal(a.get_flat_grads(), expect[0])
    np.testing.assert_array_equal(b.get_flat_grads(), expect[1])
    assert n_free(pool) == 2 * one_set and n_held(a, b, la, lb) == 0


def train_20_steps(workload, **build_kw):
    built = get_workload(workload).build(
        n_workers=2, n_steps=20, cluster_kwargs={"executor": "serial"}, **build_kw
    )
    trainer = build_trainer(MethodSpec("bsp", {}), built)
    losses = [trainer.step(i).loss for i in range(20)]
    return losses, [w.get_params(copy=True) for w in built.workers]


@pytest.mark.parametrize("workload, build_kw", [
    ("resnet_cifar10", {"data_scale": 0.05, "batch_size": 8}),
    ("transformer_wikitext", {"data_scale": 0.05, "batch_size": 4}),
])
def test_repeated_signatures_train_as_with_private_workspaces(
    workload, build_kw, monkeypatch
):
    """SmallResNet's blocks and the transformer's blocks repeat one layer
    signature several times inside a model, and both replicas share it."""
    shared = train_20_steps(workload, **build_kw)
    monkeypatch.setattr(workspace, "POOL", PrivatePool())
    private = train_20_steps(workload, **build_kw)
    assert shared[0] == private[0]
    for u, v in zip(shared[1], private[1]):
        np.testing.assert_array_equal(u, v)


def workspaces_after_three_steps(n_workers, pool):
    built = get_workload("vgg_cifar100").build(
        n_workers=n_workers, n_steps=6, data_scale=0.05, batch_size=8,
        cluster_kwargs={"executor": "serial"},
    )
    trainer = build_trainer(MethodSpec("bsp", {}), built)
    models = [w.model for w in built.workers]
    for i in range(3):
        trainer.step(i)
    after_steps = n_free(pool)
    assert n_held(*models) == 0
    trainer.evaluate(TrainConfig(n_steps=6, eval_fn=built.eval_fn))
    assert n_held(*models) == 0
    trainer.step(3)
    return after_steps, n_free(pool)


def test_workspace_count_is_independent_of_replica_count(monkeypatch):
    counts = []
    for n_workers in (2, 8):
        fresh = workspace.WorkspacePool()
        monkeypatch.setattr(workspace, "POOL", fresh)
        counts.append(workspaces_after_three_steps(n_workers, fresh))
    assert counts[0] == counts[1]
    after_steps, after_eval = counts[0]
    # One set for the training shape. The evaluation's ragged last chunk is
    # built privately under ``no_grad`` and dropped: it adds no shape.
    assert after_steps > 0 and after_eval == after_steps


@pytest.mark.parametrize("n_workers", [1, 4])
def test_one_conv_scratch_per_kernel_and_shape(n_workers, pool):
    """Every layer, pass and replica shares one partial-product buffer per
    (k, accumulator shape); the evaluation's ragged batch adds none. SmallVGG
    is 3x3 throughout, so its four forward and three dx accumulators have
    three shapes."""
    workspaces_after_three_steps(n_workers, pool)
    held = free_scratch(pool)
    assert len(held) == 3 and set(held.values()) == {1}
    assert {sig for sig, _ in held} == {("slabtmp", 3)}


def test_perplexity_evaluation_keeps_only_the_training_size(pool, monkeypatch):
    """Evaluation chunks of 64 and a ragged 51 used to enter the pool's
    two-size LRU and push the training batch size out of it, so the step
    after every evaluation rebuilt the training set. Evaluation now runs at
    the training batch: in the workspaces training holds, building none."""
    built = get_workload("transformer_wikitext").build(
        n_workers=2, n_steps=4, cluster_kwargs={"executor": "serial"}
    )
    trainer = build_trainer(MethodSpec("bsp", {}), built)
    trainer.step(0)
    kept = free_workspaces(pool)
    builds = []
    checkout = pool.checkout

    def counting(sig, shape, build, keep=True):
        return checkout(sig, shape, lambda: builds.append(sig) or build(), keep)

    monkeypatch.setattr(pool, "checkout", counting)
    trainer.evaluate(TrainConfig(n_steps=4, eval_fn=built.eval_fn))
    assert builds == []
    trainer.step(1)
    gelu = [list(sizes) for (sig, _), sizes in pool.free.items() if sig == "gelu"]
    assert gelu == [[built.batch_size]]
    after = free_workspaces(pool)
    assert len(after) == len(kept) and all(any(a is k for k in kept) for a in after)


def test_retained_shapes_are_bounded(pool):
    model = build_model("smallvgg", rng=0)
    grads_of(model, *images(1))
    one_set = n_free(pool)
    for b in range(2, 11):
        grads_of(model, *images(b))
    assert pool.free and all(list(sizes) == [9, 10] for sizes in pool.free.values())
    assert n_free(pool) == workspace.MAX_BATCH_SIZES * one_set
    # The two kept batch sizes are reused, not rebuilt.
    kept = free_workspaces(pool)
    grads_of(model, *images(10))
    grads_of(model, *images(9))
    after = free_workspaces(pool)
    assert len(after) == len(kept) and all(any(a is k for k in kept) for a in after)


def test_forward_only_model_neither_aliases_nor_leaks(pool):
    server, trainee = (build_model("smallvgg", rng=s) for s in (0, 1))
    x, _ = images(8)
    server.eval()
    stem = server.net.layers[0]
    feats = stem.forward(x)  # a view into a held conv workspace
    snapshot = feats.copy()
    one_set = n_held(server)
    assert one_set == 1

    grads_of(trainee, *images(8))  # same signatures, same shapes
    np.testing.assert_array_equal(feats, snapshot)
    assert n_held(server) == 1 and n_held(trainee) == 0

    # The next forward re-uses the hold; the mode flip ends it.
    stem.forward(x)
    assert n_held(server) == 1
    before = n_free(pool)
    server.train()
    assert n_held(server) == 0 and n_free(pool) == before + 1
    for _ in range(3):
        server.eval()
        server.forward(x)
        server.train()
        grads_of(trainee, *images(8))
    assert n_free(pool) == before + 1


def test_backward_without_forward_is_a_typed_error():
    model = build_model("smallvgg", rng=0)
    grads_of(model, *images(4))
    with pytest.raises(RuntimeError, match="backward called before forward"):
        model.net.layers[0].backward(np.zeros((4, 8, 16, 16)))


def lm_batch(b=4, t=5, v=8):
    return RNG.normal(size=(b, t, v)), RNG.integers(0, v, (b, t))


def test_interleaved_losses_neither_alias_nor_leak(pool):
    (xa, ya), (xb, yb) = lm_batch(), lm_batch()
    want = [naive_cross_entropy(xa, ya), naive_cross_entropy(xb, yb)]
    la, lb = CrossEntropyLoss(), CrossEntropyLoss()
    for _ in range(3):
        got_a, got_b = la.forward(xa, ya), lb.forward(xb, yb)
        assert n_free(pool) == 0 and n_held(la, lb) == 2
        ga, gb = la.backward(), lb.backward()
        assert not np.shares_memory(ga, gb)
        assert (got_a, got_b) == (want[0][0], want[1][0])
        np.testing.assert_array_equal(ga, want[0][1])
        np.testing.assert_array_equal(gb, want[1][1])
        assert n_free(pool) == 2 and n_held(la, lb) == 0


def test_loss_forward_without_backward_neither_aliases_nor_leaks(pool):
    (xa, ya), (xb, yb) = lm_batch(), lm_batch()
    want_a = naive_cross_entropy(xa, ya)
    held = CrossEntropyLoss()
    for _ in range(3):  # each forward returns the previous one's workspace
        held.forward(xa, ya)
    assert n_held(held) == 1 and n_free(pool) == 0
    other = CrossEntropyLoss()
    for _ in range(3):
        assert other.forward(xb, yb) == naive_cross_entropy(xb, yb)[0]
        other.backward()
    np.testing.assert_array_equal(held.backward(), want_a[1])
    assert n_free(pool) == 2 and n_held(held, other) == 0
    # Per-position NLL holds nothing and reuses what is free.
    nll = other.token_nll(xa, ya)
    assert nll.mean() == want_a[0] and n_held(other) == 0 and n_free(pool) == 2


def test_pooled_embedding_one_hot_matches_a_fresh_one(pool):
    from repro.nn.layers import Embedding

    emb = Embedding(12, 5, rng=0)
    for _ in range(4):
        ids = RNG.integers(0, 12, (3, 7))
        g = RNG.normal(size=(3, 7, 5))
        emb.zero_grad()
        emb.forward(ids)
        emb.backward(g)
        onehot = np.zeros((ids.size, 12))
        onehot[np.arange(ids.size), ids.ravel()] = 1.0
        np.testing.assert_array_equal(emb.weight.grad, onehot.T @ g.reshape(-1, 5))
        # The output's workspace, then the one-hot, returned all zero.
        (_,), ws = free_workspaces(pool)
        assert not ws.any()
