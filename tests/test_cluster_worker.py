"""Tests for the simulated worker."""

import numpy as np
import pytest

from repro.cluster.worker import SimWorker, build_worker_group
from repro.data import ArrayDataset, BatchLoader
from repro.nn.models import build_model
from repro.optim import SGD


def make_worker(seed=0, wid=0):
    rng = np.random.default_rng(1)
    ds = ArrayDataset(rng.normal(size=(64, 8)), rng.integers(0, 3, 64))
    loader = BatchLoader(ds, np.arange(64), batch_size=8, rng=2)
    model = build_model("mlp", in_features=8, n_classes=3, rng=seed)
    return SimWorker(wid, model, SGD(model, lr=0.1), loader)


class TestSimWorker:
    def test_compute_gradient_populates_state(self):
        w = make_worker()
        loss = w.compute_gradient(w.loader.next_batch())
        assert np.isfinite(loss)
        assert w.last_grad_sqnorm > 0.0
        assert np.linalg.norm(w.get_grads()) > 0.0

    def test_grad_sqnorm_matches_grads(self):
        w = make_worker()
        w.compute_gradient(w.loader.next_batch())
        g = w.get_grads()
        assert w.last_grad_sqnorm == pytest.approx(float(g @ g))

    def test_local_step_moves_params(self):
        w = make_worker()
        before = w.get_params()
        w.compute_gradient(w.loader.next_batch())
        w.local_step(lr=0.1)
        assert not np.array_equal(before, w.get_params())

    def test_apply_gradient_replaces(self):
        w = make_worker()
        w.compute_gradient(w.loader.next_batch())
        before = w.get_params()
        custom = np.ones_like(before)
        w.apply_gradient(custom, lr=0.5)
        # Pure SGD: exact update wrt the injected gradient.
        assert np.allclose(w.get_params(), before - 0.5 * custom)

    def test_explicit_batch_used(self):
        w = make_worker()
        x = np.zeros((4, 8))
        y = np.zeros(4, dtype=int)
        loss1 = w.compute_gradient((x, y))
        loss2 = w.compute_gradient((x, y))
        assert loss1 == pytest.approx(loss2, rel=1e-6)  # params unchanged

    def test_epoch_tracks_loader(self):
        w = make_worker()
        assert w.epoch == 0.0
        for _ in range(8):
            w.compute_gradient(w.loader.next_batch())
        assert w.epoch >= 1.0


class TestWorkerGroup:
    def _loaders(self, n):
        rng = np.random.default_rng(1)
        ds = ArrayDataset(rng.normal(size=(64, 8)), rng.integers(0, 3, 64))
        return [
            BatchLoader(ds, np.arange(64), batch_size=8, rng=i) for i in range(n)
        ]

    def test_identical_initialization(self):
        ws = build_worker_group(
            3,
            lambda: build_model("mlp", in_features=8, n_classes=3, rng=5),
            lambda m: SGD(m, lr=0.1),
            self._loaders(3),
        )
        p0 = ws[0].get_params()
        for w in ws[1:]:
            assert np.array_equal(p0, w.get_params())

    def test_nondeterministic_factory_rejected(self):
        counter = iter(range(100))

        def bad_factory():
            return build_model("mlp", in_features=8, n_classes=3, rng=next(counter))

        with pytest.raises(ValueError, match="different initial parameters"):
            build_worker_group(2, bad_factory, lambda m: SGD(m, lr=0.1), self._loaders(2))

    def test_loader_count_checked(self):
        with pytest.raises(ValueError):
            build_worker_group(
                3,
                lambda: build_model("mlp", rng=0),
                lambda m: SGD(m, lr=0.1),
                self._loaders(2),
            )

    def test_replicas_share_no_buffer(self):
        """The copied replicas (2..N-1) are independent: params, velocity,
        Dropout RNG and arenas are their own."""
        ws = build_worker_group(
            4,
            lambda: build_model("tinytransformer", vocab_size=16, max_len=8, rng=5),
            lambda m: SGD(m, lr=0.1, momentum=0.9),
            self._loaders(4),
        )
        arenas = [w.model._ensure_arena() for w in ws]
        for i, a in enumerate(arenas):
            for b in arenas[i + 1 :]:
                assert not np.shares_memory(a.param_buf, b.param_buf)
                assert not np.shares_memory(a.grad_buf, b.grad_buf)
        x, y = np.zeros((2, 8), dtype=np.int64), np.ones((2, 8), dtype=np.int64)
        for w in ws:
            w.compute_gradient((x, y))
            w.local_step(0.1)
        params = [w.get_params() for w in ws]
        velocities = [w.optimizer._flat_velocity.copy() for w in ws]
        rngs = [w.model_mutable_state()["rngs"] for w in ws]
        assert rngs[2] == rngs[0] and np.array_equal(params[2], params[0])

        target = ws[2]
        target.set_params(np.zeros_like(params[2]))
        target.optimizer._flat_velocity[...] = 7.0
        for m in target._rng_modules():
            m.rng.random(3)
        for i, w in enumerate(ws):
            if w is target:
                continue
            assert np.array_equal(w.get_params(), params[i])
            assert np.array_equal(w.optimizer._flat_velocity, velocities[i])
            assert w.model_mutable_state()["rngs"] == rngs[i]

    @pytest.mark.parametrize("name,kwargs,batch", [
        ("mlp", dict(in_features=12, n_classes=3, hidden=(16,)), "float"),
        ("smallvgg", dict(n_classes=5, image_size=8), "image"),
        ("tinytransformer", dict(vocab_size=16, max_len=8), "tokens"),
    ])
    def test_copied_replicas_match_factory_built(self, name, kwargs, batch):
        """First-step gradients (dropout on) of the copied replicas are
        bitwise those of replicas each built by the factory."""
        factory = lambda: build_model(name, rng=3, **kwargs)
        rng = np.random.default_rng(4)
        if batch == "float":
            x, y = rng.normal(size=(6, 12)), rng.integers(0, 3, 6)
        elif batch == "image":
            x, y = rng.normal(size=(6, 3, 8, 8)), rng.integers(0, 5, 6)
        else:
            x, y = rng.integers(0, 16, (3, 8)), rng.integers(0, 16, (3, 8))
        n = 4
        copied = build_worker_group(n, factory, lambda m: SGD(m, lr=0.1), self._loaders(n))
        built = [
            SimWorker(i, m, SGD(m, lr=0.1), loader)
            for i, (m, loader) in enumerate(
                zip((factory() for _ in range(n)), self._loaders(n))
            )
        ]
        for a, b in zip(copied, built):
            a.compute_gradient((x, y))
            b.compute_gradient((x, y))
            assert a.get_grads().tobytes() == b.get_grads().tobytes()
            assert a.last_loss == b.last_loss

    def test_models_are_independent_replicas(self):
        ws = build_worker_group(
            2,
            lambda: build_model("mlp", in_features=8, n_classes=3, rng=5),
            lambda m: SGD(m, lr=0.1),
            self._loaders(2),
        )
        ws[0].set_params(np.zeros_like(ws[0].get_params()))
        assert np.linalg.norm(ws[1].get_params()) > 0.0
