"""The per-process layer-workspace pool (``repro.nn.workspace``).

``WorkspacePool.lend`` hands out a workspace nothing outside the pool
references and builds one when none is; a layer keeps what its backward
reads by saving it. These tests pin the lending rule (a buffer anyone can
still read is never lent, a dropped one is lent again), that sharing is
invisible in every result (interleaved models, repeated same-signature
layers inside one model, forward-only use), and that the pool's size depends
on neither the replica count, nor the number of steps, nor the number of
batch shapes a run has seen.
"""

from functools import partial

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

from repro.core import TrainConfig
from repro.experiments.runner import MethodSpec, build_trainer
from repro.experiments.workloads import get_workload
from repro.nn import workspace
from repro.nn.layers import ReLU
from repro.nn.layers import pooling as pooling_module
from repro.nn.layers.pooling import _PoolGrad
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MODELS, build_model
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

    def lend(self, sig, shape, build=None):
        return np.empty(shape, sig) if build is None else build()


def n_kept(pool):
    return sum(len(e) for sizes in pool.kept.values() for e in sizes.values())


def n_free(pool):
    """Kept workspaces nothing outside the pool references: what ``lend``
    would hand out (the same count, computed the way ``lend`` does)."""
    return sum(
        workspace._refs(entry[0]) == entry[1]
        for sizes in pool.kept.values() for e in sizes.values() for entry in e
    )


def kept(pool):
    """The ids of the kept workspaces (holding them would keep them lent)."""
    return {id(entry[0]) for sizes in pool.kept.values() for e in sizes.values() for entry in e}


def counts(pool):
    """{(signature, batch-first shape): workspaces kept}."""
    return {
        (sig, (n, *shape)): len(e)
        for (sig, shape), sizes in pool.kept.items() for n, e in sizes.items()
    }


def n_saving(*models):
    return sum(m._saved is not None for model in models for m in model.modules())


def saved_arrays(model):
    """Every array the model's layers saved, workspaces' arrays included."""
    out = []
    for m in model.modules():
        for item in m._saved or ():
            if isinstance(item, np.ndarray):
                out.append(item)
            elif hasattr(item, "__dict__"):
                out += workspace.arrays(item)
    return out


def images(b):
    return RNG.normal(size=(b, 3, 16, 16)), RNG.integers(0, 10, b)


def grads_of(model, x, y):
    loss = CrossEntropyLoss()
    model.zero_grad()
    loss.forward(model.forward(x), y)
    model.backward(loss.backward())
    return model.get_flat_grads(copy=True)


# -- the lending rule ------------------------------------------------------------


def test_a_buffer_anyone_holds_is_never_lent(pool):
    shape = (4, 6)
    a = workspace.buffer(shape)  # held by a variable
    view = workspace.buffer(shape)[1:]  # held only through a view
    strided = as_strided(workspace.buffer(shape), shape=(2, 2), strides=(8, 8))
    relu = ReLU()
    relu.forward(RNG.normal(size=shape))  # its output, held by ``_saved``
    fresh = workspace.buffer(shape)
    for reader in (a, view, strided, relu._saved[0]):
        assert not np.shares_memory(fresh, reader)
    assert n_kept(pool) == 5 and n_free(pool) == 0


class Pair:
    """A workspace object: an array and a view of it."""

    def __init__(self):
        self.a = np.zeros((2, 3))
        self.v = self.a[:1]


def test_a_dropped_buffer_is_lent_again_as_the_same_object(pool):
    shape = (3, 5)
    a = workspace.buffer(shape)
    first = id(a)
    del a
    b = workspace.buffer(shape)
    assert id(b) == first and n_kept(pool) == 1
    view = b.T
    del b
    c = workspace.buffer(shape)  # the view still reads the first one
    assert id(c) != first and n_kept(pool) == 2
    del view, c
    assert n_free(pool) == 2
    # A workspace object is free once neither it nor any array it holds is
    # read: a view it holds, handed out, keeps it.
    ws = pool.lend("pair", (2, 3), Pair)
    out, first = ws.v, id(ws)
    del ws
    other = pool.lend("pair", (2, 3), Pair)
    assert id(other) != first
    del out
    assert id(pool.lend("pair", (2, 3), Pair)) == first


def test_a_kept_model_output_survives_a_second_forward(pool):
    for name, x in (("smallvgg", images(4)[0]), ("tinytransformer", RNG.integers(0, 64, (2, 8)))):
        model = build_model(name, rng=0).eval()  # no dropout draws
        out = model.forward(x)
        snapshot = out.copy()
        other = x[::-1].copy()
        second = model.forward(other)
        assert not np.shares_memory(out, second)
        np.testing.assert_array_equal(out, snapshot)
        np.testing.assert_array_equal(second, build_model(name, rng=0).eval().forward(other))


#: name: (build kwargs, batch of inputs and targets)
MODEL_INPUTS = {
    "mlp": ({}, lambda b: (RNG.normal(size=(b, 32)), RNG.integers(0, 10, b))),
    "smallalexnet": ({}, lambda b: (RNG.normal(size=(b, 3, 16, 16)), RNG.integers(0, 20, b))),
    "smallresnet": ({}, images),
    "smallvgg": ({}, lambda b: (RNG.normal(size=(b, 3, 16, 16)), RNG.integers(0, 100, b))),
    "tinytransformer": (
        {"max_len": 8},
        lambda b: (RNG.integers(0, 64, (b, 8)), RNG.integers(0, 64, (b, 8))),
    ),
}


def counts_at_steps(name, n_replicas, pool, steps=(2, 20)):
    """{step: counts(pool)} after each of ``steps`` lock-step steps of
    ``n_replicas`` replicas, each a forward + backward in turn."""
    kw, batch = MODEL_INPUTS[name]
    models = [build_model(name, rng=s, **kw) for s in range(n_replicas)]
    loss = CrossEntropyLoss()
    seen = {}
    for step in range(1, max(steps) + 1):
        for model in models:
            x, y = batch(4)
            model.train()
            model.zero_grad()
            loss.forward(model.forward(x), y)
            model.backward(loss.backward())
        if step in steps:
            seen[step] = counts(pool)
    return seen


def test_every_model_is_covered():
    assert set(MODEL_INPUTS) == set(MODELS._entries)


@pytest.mark.parametrize("name", sorted(MODEL_INPUTS))
def test_workspaces_per_key_depend_on_neither_replicas_nor_steps(name, monkeypatch):
    seen = []
    for n_replicas in (1, 4):
        fresh = workspace.WorkspacePool()
        monkeypatch.setattr(workspace, "POOL", fresh)
        seen.append(counts_at_steps(name, n_replicas, fresh))
    assert seen[0][2] and seen[0][2] == seen[0][20] == seen[1][2] == seen[1][20]


class LazyCorner(_PoolGrad):
    """The scatter grid built by the first backward that reads it: the
    workspace gains an array after it is built."""

    def __init__(self, x_shape):
        super().__init__(x_shape)
        self.grid = self.__dict__.pop("corner")

    def __getattr__(self, name):
        if name != "corner":
            raise AttributeError(name)
        self.corner = self.grid.copy()
        return self.corner


def test_a_workspace_that_gains_an_array_is_caught(pool, monkeypatch):
    """Such a workspace never matches its baseline again, so each backward
    builds another: the per-key count check above must see it grow."""
    monkeypatch.setattr(pooling_module, "_PoolGrad", LazyCorner)
    seen = counts_at_steps("smallvgg", 1, pool)
    grown = {k for k in seen[20] if seen[20][k] != seen[2].get(k)}
    assert grown and {sig for sig, _ in grown} == {"maxpool2grad"}


# -- sharing is invisible ----------------------------------------------------------


@pytest.mark.parametrize("name", ["smallvgg", "smallresnet"])
def test_interleaved_models_match_back_to_back(name, pool):
    (xa, ya), (xb, yb) = images(8), images(8)
    # Fresh twins for the reference: a second pass would draw new dropout masks.
    expect = [
        grads_of(build_model(name, rng=s), x, y)
        for s, x, y in ((0, xa, ya), (1, xb, yb))
    ]
    assert n_free(pool) == n_kept(pool)

    a, b = (build_model(name, rng=s) for s in (0, 1))
    la, lb = CrossEntropyLoss(), CrossEntropyLoss()
    a.zero_grad()
    b.zero_grad()
    la.forward(a.forward(xa), ya)
    lb.forward(b.forward(xb), yb)
    # What one model saved shares no memory with what the other did.
    assert not any(
        np.shares_memory(u, v)
        for u in saved_arrays(a) + [la._saved[0]] for v in saved_arrays(b) + [lb._saved[0]]
    )
    assert n_saving(a) and n_saving(b)
    a.backward(la.backward())
    b.backward(lb.backward())
    np.testing.assert_array_equal(a.get_flat_grads(), expect[0])
    np.testing.assert_array_equal(b.get_flat_grads(), expect[1])
    assert n_saving(a, b, la, lb) == 0 and n_free(pool) == n_kept(pool)


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
    after_steps = counts(pool)
    assert n_saving(*models) == 0
    trainer.evaluate(TrainConfig(n_steps=6, eval_fn=built.eval_fn))
    assert n_saving(*models) == 0
    trainer.step(3)
    return after_steps, counts(pool)


def test_workspace_count_is_independent_of_replica_count(monkeypatch):
    seen = []
    for n_workers in (2, 8):
        fresh = workspace.WorkspacePool()
        monkeypatch.setattr(workspace, "POOL", fresh)
        seen.append(workspaces_after_three_steps(n_workers, fresh))
    assert seen[0] == seen[1]
    after_steps, after_eval = seen[0]
    # One set for the training shape. The evaluation's ragged last chunk is
    # built privately under ``no_grad`` and dropped: it adds no shape.
    assert after_steps and after_eval == after_steps


@pytest.mark.parametrize("n_workers", [1, 4])
def test_one_conv_scratch_per_kernel_and_shape(n_workers, pool):
    """Every layer, pass and replica shares the zero-tailed accumulators of
    one (k, shape): a dx accumulator and the partial products beside it; a
    forward's partial products take one of them. The evaluation's ragged
    batch adds none. SmallVGG is 3x3 throughout, so its four forward and
    three dx accumulators have three shapes."""
    workspaces_after_three_steps(n_workers, pool)
    accs = {
        key: n for key, n in counts(pool).items()
        if isinstance(key[0], tuple) and key[0][0] == "slabacc"
    }
    assert len(accs) == 3 and set(accs.values()) == {2}
    assert {sig for sig, _ in accs} == {("slabacc", 3)}


def test_perplexity_evaluation_keeps_only_the_training_size(pool, monkeypatch):
    """Evaluation chunks of 64 and a ragged 51 used to enter the pool's
    two-size LRU and push the training batch size out of it, so the step
    after every evaluation rebuilt the training set. Evaluation now runs at
    the training batch: in the workspaces training uses, building none."""
    built = get_workload("transformer_wikitext").build(
        n_workers=2, n_steps=4, cluster_kwargs={"executor": "serial"}
    )
    trainer = build_trainer(MethodSpec("bsp", {}), built)
    trainer.step(0)
    before, sizes = kept(pool), {k: list(s) for k, s in pool.kept.items()}
    builds = []
    lend = pool.lend

    def counting(sig, shape, build=None):
        build = build or partial(np.empty, shape, sig)
        return lend(sig, shape, lambda: builds.append(sig) or build())

    monkeypatch.setattr(pool, "lend", counting)
    trainer.evaluate(TrainConfig(n_steps=4, eval_fn=built.eval_fn))
    assert builds == []
    trainer.step(1)
    assert {k: list(s) for k, s in pool.kept.items()} == sizes
    assert kept(pool) == before


def test_retained_shapes_are_bounded(pool):
    model = build_model("smallvgg", rng=0)
    grads_of(model, *images(1))
    one_set = counts(pool)
    # The conv's weight-shaped buffers (its dW rows and flipped weights)
    # have no batch axis: their first axis is k.
    no_batch = {(sig, shape[1:]) for sig, shape in one_set if shape[0] != 1}
    assert no_batch
    for b in range(2, 11):
        grads_of(model, *images(b))
    for key, sizes in pool.kept.items():
        if key in no_batch:
            want = [one_set[(key[0], (n, *key[1]))] for n in sizes]
            assert [len(e) for e in sizes.values()] == want
        else:
            assert list(sizes) == [9, 10]
            assert [len(e) for e in sizes.values()] == [one_set[(key[0], (1, *key[1]))]] * 2
    assert len(pool.kept) == len(one_set)
    # The two kept batch sizes are reused, not rebuilt.
    before = kept(pool)
    grads_of(model, *images(10))
    grads_of(model, *images(9))
    assert kept(pool) == before


def test_forward_only_model_neither_aliases_nor_leaks(pool):
    server, trainee = (build_model("smallvgg", rng=s) for s in (0, 1))
    x, _ = images(8)
    server.eval()
    stem = server.net.layers[0]
    feats = stem.forward(x)  # a view into a conv workspace
    snapshot = feats.copy()
    assert n_saving(server) == 1

    grads_of(trainee, *images(8))  # same signatures, same shapes
    np.testing.assert_array_equal(feats, snapshot)
    assert n_saving(server) == 1 and n_saving(trainee) == 0

    # Another forward leaves the kept output as it was; the mode flip ends
    # the saved slot.
    stem.forward(images(8)[0])
    np.testing.assert_array_equal(feats, snapshot)
    server.train()
    assert n_saving(server) == 0
    del feats
    before = n_kept(pool)
    assert n_free(pool) == before
    for _ in range(3):
        server.eval()
        server.forward(x)
        server.train()
        grads_of(trainee, *images(8))
    assert n_kept(pool) == before == n_free(pool)


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
        assert not np.shares_memory(la._saved[0], lb._saved[0])
        ga, gb = la.backward(), lb.backward()
        assert not np.shares_memory(ga, gb)
        assert (got_a, got_b) == (want[0][0], want[1][0])
        np.testing.assert_array_equal(ga, want[0][1])
        np.testing.assert_array_equal(gb, want[1][1])
        assert n_saving(la, lb) == 0
        del ga, gb
        assert n_free(pool) == n_kept(pool) == 3


def test_loss_forward_without_backward_neither_aliases_nor_leaks(pool):
    (xa, ya), (xb, yb) = lm_batch(), lm_batch()
    want_a = naive_cross_entropy(xa, ya)
    held = CrossEntropyLoss()
    for _ in range(3):  # each forward frees the previous one's saved buffer for itself
        held.forward(xa, ya)
    assert n_saving(held) == 1 and n_kept(pool) == 2
    other = CrossEntropyLoss()
    for _ in range(3):
        assert other.forward(xb, yb) == naive_cross_entropy(xb, yb)[0]
        other.backward()
    np.testing.assert_array_equal(held.backward(), want_a[1])
    assert n_saving(held, other) == 0 and n_free(pool) == n_kept(pool) == 3
    # Per-position NLL saves nothing and reuses what is free.
    nll = other.token_nll(xa, ya)
    assert nll.mean() == want_a[0] and n_saving(other) == 0
    assert n_free(pool) == n_kept(pool) == 3


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
        # The one-hot is free again, and all zero.
        assert n_free(pool) == n_kept(pool)
        (entry,) = pool.kept[("onehot", (12,))][ids.size]
        assert not entry[0].any()
