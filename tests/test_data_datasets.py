"""Tests for dataset abstractions and synthetic generators."""

import hashlib

import numpy as np
import pytest

from repro.data import ArrayDataset, SequenceDataset, build_dataset
from repro.data.synthetic import DATASETS, _image_dataset, wikitext_like


class TestArrayDataset:
    def test_length_and_batch(self):
        ds = ArrayDataset(np.arange(10.0).reshape(5, 2), np.arange(5))
        x, y = ds.get_batch(np.array([0, 3]))
        assert x.shape == (2, 2)
        assert list(y) == [0, 3]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 2)), np.zeros(4))

    def test_sample_nbytes(self):
        ds = ArrayDataset(np.zeros((4, 3), dtype=np.float64), np.zeros(4))
        assert ds.sample_nbytes == 24


class TestSequenceDataset:
    def test_windows_and_shift(self):
        toks = np.arange(11)
        ds = SequenceDataset(toks, bptt=3)
        assert len(ds) == 3  # (11-1)//3
        x, y = ds.get_batch(np.array([0, 1]))
        assert np.array_equal(x[0], [0, 1, 2])
        assert np.array_equal(y[0], [1, 2, 3])  # next-token targets
        assert np.array_equal(x[1], [3, 4, 5])

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            SequenceDataset(np.arange(3), bptt=5)

    def test_requires_1d(self):
        with pytest.raises(ValueError):
            SequenceDataset(np.zeros((2, 3), dtype=int), bptt=2)

    def test_labels_are_window_starts(self):
        ds = SequenceDataset(np.arange(10), bptt=3)
        assert np.array_equal(ds.labels, [0, 3, 6])


class TestGenerators:
    def test_all_registered(self):
        for name in [
            "blobs", "cifar10_like", "cifar100_like", "imagenet_like", "wikitext_like",
        ]:
            assert name in DATASETS

    def test_blobs_reproducible(self):
        a, _ = build_dataset("blobs", n_train=64, n_test=16, rng=5)
        b, _ = build_dataset("blobs", n_train=64, n_test=16, rng=5)
        assert np.array_equal(a.x, b.x)

    @pytest.mark.parametrize("name,n_labels", [
        ("cifar10_like", 10),
        ("imagenet_like", 20),
    ])
    def test_image_generators(self, name, n_labels):
        train, test = build_dataset(name, n_train=200, n_test=50, rng=0)
        assert len(train) == 200 and len(test) == 50
        x, y = train.get_batch(np.arange(10))
        assert x.shape == (10, 3, 16, 16)
        assert y.min() >= 0 and y.max() < n_labels

    def test_cifar100_label_count_configurable(self):
        train, _ = build_dataset("cifar100_like", n_train=400, n_test=50, n_classes=25, rng=0)
        assert np.unique(train.labels).size <= 25
        assert train.labels.max() < 25

    def test_image_classes_are_separable(self):
        """A nearest-template classifier must beat chance by a wide margin —
        otherwise no model could learn and every accuracy claim is vacuous."""
        train, test = build_dataset("cifar10_like", n_train=400, n_test=100, noise=0.5, rng=0)
        # Per-class mean of train as template, classify test by correlation.
        templates = np.stack([
            train.x[train.y == c].mean(axis=0) for c in range(10)
        ]).reshape(10, -1)
        xt = test.x.reshape(len(test), -1)
        pred = (xt @ templates.T).argmax(axis=1)
        acc = (pred == test.y).mean()
        assert acc > 0.5  # chance is 0.1

    def test_wikitext_like_structure(self):
        train, test = build_dataset(
            "wikitext_like", n_train_tokens=3000, n_test_tokens=600,
            vocab_size=32, bptt=8, rng=0,
        )
        x, y = train.get_batch(np.arange(4))
        assert x.shape == (4, 8)
        assert x.max() < 32

    def test_wikitext_is_learnable_markov_chain(self):
        """Bigram statistics must carry real information: the empirical
        conditional entropy is well below log(vocab)."""
        train, _ = build_dataset(
            "wikitext_like", n_train_tokens=20_000, n_test_tokens=600,
            vocab_size=16, bptt=8, concentration=0.08, rng=0,
        )
        toks = train.tokens
        counts = np.zeros((16, 16))
        np.add.at(counts, (toks[:-1], toks[1:]), 1.0)
        probs = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(probs > 0, probs * np.log(probs), 0.0)
        row_entropy = -plogp.sum(axis=1)
        marginal = counts.sum(axis=1) / counts.sum()
        cond_entropy = float(marginal @ row_entropy)
        assert cond_entropy < 0.7 * np.log(16)

    def test_vocab_too_small_raises(self):
        with pytest.raises(ValueError):
            build_dataset("wikitext_like", vocab_size=1, rng=0)


# -- the generators against the per-sample loops they replaced -----------------
def roll_reference(n_train, n_test, n_classes, image_size, channels, noise, seed):
    """The image generator as one ``np.roll`` per sample and one
    dataset-sized noise draw: the draw order the gather must keep."""
    rng = np.random.default_rng(seed)
    templates = rng.normal(0.0, 1.0, size=(n_classes, channels, image_size, image_size))

    def sample(n):
        y = rng.integers(0, n_classes, n)
        x = templates[y].copy()
        shifts = rng.integers(-2, 3, size=(n, 2))
        for i in range(n):
            x[i] = np.roll(x[i], shifts[i], axis=(1, 2))
        x += rng.normal(0.0, noise, size=x.shape)
        return x, y

    return sample(n_train), sample(n_test)


def searchsorted_reference(n_train, n_test, vocab_size, concentration, seed):
    """The token chain as one ``np.searchsorted`` per token (with each CDF
    row's last entry pinned to 1.0)."""
    rng = np.random.default_rng(seed)
    trans = rng.dirichlet(np.full(vocab_size, concentration), size=vocab_size)
    cdf = np.cumsum(trans, axis=1)
    cdf[:, -1] = 1.0

    def gen(n):
        toks = np.empty(n, dtype=np.int64)
        toks[0] = rng.integers(0, vocab_size)
        u = rng.random(n)
        for i in range(1, n):
            toks[i] = np.searchsorted(cdf[toks[i - 1]], u[i])
        return toks

    return gen(n_train), gen(n_test)


class TestGeneratorsMatchReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("image_size", range(1, 9))
    def test_image_sizes(self, image_size, seed):
        got = _image_dataset(40, 9, 5, image_size, 3, 0.6, seed)
        want = roll_reference(40, 9, 5, image_size, 3, 0.6, seed)
        for ds, (x, y) in zip(got, want):
            assert ds.x.tobytes() == x.tobytes() and ds.y.tobytes() == y.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    def test_sample_counts_across_noise_chunks(self, n, seed):
        got = _image_dataset(n, 1, 10, 6, 2, 0.5, seed)
        want = roll_reference(n, 1, 10, 6, 2, 0.5, seed)
        for ds, (x, y) in zip(got, want):
            assert ds.x.tobytes() == x.tobytes() and ds.y.tobytes() == y.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_token_chain_every_vocab(self, seed):
        for vocab in range(2, 65):
            got = wikitext_like(300, 40, vocab, bptt=4, rng=seed)
            want = searchsorted_reference(300, 40, vocab, 0.08, seed)
            for ds, toks in zip(got, want):
                assert ds.tokens.tobytes() == toks.tobytes(), vocab


class _ForcedDraws(np.random.Generator):
    """Transition rows whose cumsum ends below ``u``, and every ``u`` just
    under 1.0."""

    U = np.nextafter(1.0, 0.0)

    def dirichlet(self, alpha, size=None):
        rows = np.random.default_rng(0).dirichlet(alpha, size=200)
        short = rows[np.cumsum(rows, axis=1)[:, -1] < self.U]
        return short[: len(alpha)]

    def random(self, size=None):
        return np.full(size, self.U)


def test_wikitext_never_emits_vocab_size():
    """A draw past a row ending below 1.0 used to name token ``vocab_size``
    (an IndexError one step later); it now maps to the last token."""
    rng = _ForcedDraws(np.random.PCG64(0))
    trans = rng.dirichlet(np.full(8, 0.08))
    assert len(trans) == 8
    # Unpinned, the first row sends u past its end: token id 8.
    assert np.searchsorted(np.cumsum(trans, axis=1)[0], rng.U) == 8
    train, test = wikitext_like(64, 64, vocab_size=8, bptt=4, rng=rng)
    for ds in (train, test):
        assert ds.tokens.max() < 8
        assert np.all(ds.tokens[1:] == 7)


def _digest(pair):
    h = hashlib.sha256()
    for ds in pair:
        for a in (ds.tokens,) if hasattr(ds, "tokens") else (ds.x, ds.y):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


#: sha256 of (train, test) at seed 0, recorded before the generators lost
#: their per-sample loops; a change that moves any byte of the data fails here.
PINS = [
    ("cifar100_like", {}, "1b661b80c5bf878239aaaf0569065e626768fe777b3e2f63a46c1e45c6370947"),
    ("cifar100_like", {"n_classes": 20}, "6c173e80c47d0075fda6bf85e6d3248887d24db2790eeebfe06cd20da6dc47ec"),
    ("cifar10_like", {}, "4cc1b9f55cf8a74758e3aeac8d89d38c255e7fe03564d39204a64495a0438fe9"),
    ("imagenet_like", {}, "dcdd933c39567f81fdcefe468cfd6ea5acf2d7f7b1c1fa2e21961772f31e6d8d"),
    ("wikitext_like", {}, "894a5760e4c1537263a9a83849fcd38e96ff178f74b54a186674dc4aaa200fb3"),
]


@pytest.mark.parametrize("name,kwargs,sha", PINS, ids=[f"{p[0]}{p[1] or ''}" for p in PINS])
def test_dataset_bytes_pinned(name, kwargs, sha):
    assert _digest(build_dataset(name, rng=0, **kwargs)) == sha
