"""Procedural dataset generators.

Each generator returns ``(train, test)`` :class:`~repro.data.dataset.Dataset`
pairs. Image datasets draw one random template per class and emit noisy,
randomly shifted instances of it, so (a) a CNN can genuinely learn the task,
(b) difficulty scales with the class count and noise level, and (c) label
distributions can be skewed for the non-IID experiments. The token corpus is
a peaky Markov chain, so a causal LM can reduce perplexity well below the
uniform baseline.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.data.dataset import ArrayDataset, SequenceDataset
from repro.utils.registry import Registry
from repro.utils.rng import RngLike, as_rng

DATASETS: Registry = Registry("dataset")


def build_dataset(name: str, **kwargs):
    """Instantiate a registered dataset pair by name (e.g. ``"cifar10_like"``)."""
    return DATASETS.create(name, **kwargs)


@DATASETS.register("blobs")
def make_blobs(
    n_train: int = 512,
    n_test: int = 128,
    n_features: int = 32,
    n_classes: int = 10,
    noise: float = 1.0,
    rng: RngLike = None,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Gaussian blobs — the fast vector-classification task used in tests."""
    rng = as_rng(rng)
    centers = rng.normal(0.0, 2.0, size=(n_classes, n_features))

    def sample(n):
        y = rng.integers(0, n_classes, n)
        x = centers[y] + rng.normal(0.0, noise, size=(n, n_features))
        return ArrayDataset(x, y)

    return sample(n_train), sample(n_test)


def _image_dataset(
    n_train: int,
    n_test: int,
    n_classes: int,
    image_size: int,
    channels: int,
    noise: float,
    rng: RngLike,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Shared class-template image generator."""
    rng = as_rng(rng)
    templates = rng.normal(0.0, 1.0, size=(n_classes, channels, image_size, image_size))
    # Random circular shifts in [-2, 2]² give intra-class spatial variability
    # that a conv net absorbs but a linear probe does not. Each one is a
    # window of the templates wrapped by 2: a circular shift by s starts at 2 - s.
    wrapped = np.pad(templates, ((0, 0), (0, 0), (2, 2), (2, 2)), mode="wrap")
    windows = sliding_window_view(wrapped, (image_size, image_size), axis=(2, 3))

    def sample(n):
        y = rng.integers(0, n_classes, n)
        shifts = rng.integers(-2, 3, size=(n, 2))
        x = windows[y, :, 2 - shifts[:, 0], 2 - shifts[:, 1]]
        # The stream and bytes of x += rng.normal(0, noise, x.shape), drawn
        # in chunks so no dataset-sized temporary is made.
        z = np.empty((min(n, 256),) + x.shape[1:])
        for i in range(0, n, 256):
            part = z[: n - i]
            rng.standard_normal(out=part)
            part *= noise
            x[i : i + len(part)] += part
        return ArrayDataset(x, y)

    return sample(n_train), sample(n_test)


@DATASETS.register("cifar10_like")
def cifar10_like(
    n_train: int = 2000,
    n_test: int = 500,
    image_size: int = 16,
    noise: float = 0.6,
    rng: RngLike = None,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """10-class image task — the CIFAR10 stand-in (paper: ResNet101)."""
    return _image_dataset(n_train, n_test, 10, image_size, 3, noise, rng)


@DATASETS.register("cifar100_like")
def cifar100_like(
    n_train: int = 3000,
    n_test: int = 600,
    n_classes: int = 100,
    image_size: int = 16,
    noise: float = 0.5,
    rng: RngLike = None,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Many-label image task — the CIFAR100 stand-in (paper: VGG11)."""
    return _image_dataset(n_train, n_test, n_classes, image_size, 3, noise, rng)


@DATASETS.register("imagenet_like")
def imagenet_like(
    n_train: int = 4000,
    n_test: int = 800,
    n_classes: int = 20,
    image_size: int = 16,
    noise: float = 0.7,
    rng: RngLike = None,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Larger-volume image task — the ImageNet-1K stand-in (paper: AlexNet).

    Relative to the CIFAR-like sets this has more samples per epoch, which
    is what makes FedAvg's per-epoch sync schedule degenerate in Table I.
    """
    return _image_dataset(n_train, n_test, n_classes, image_size, 3, noise, rng)


@DATASETS.register("wikitext_like")
def wikitext_like(
    n_train_tokens: int = 40_000,
    n_test_tokens: int = 8_000,
    vocab_size: int = 64,
    bptt: int = 16,
    concentration: float = 0.08,
    rng: RngLike = None,
) -> Tuple[SequenceDataset, SequenceDataset]:
    """Markov token corpus — the WikiText-103 stand-in (paper: Transformer).

    Transition rows are Dirichlet draws with small ``concentration``, giving
    a peaky next-token distribution: the corpus entropy sits well below
    ``log(vocab)`` so perplexity has real headroom to fall during training.
    """
    rng = as_rng(rng)
    if vocab_size < 2:
        raise ValueError(f"vocab_size must be >= 2, got {vocab_size}")
    trans = rng.dirichlet(np.full(vocab_size, concentration), size=vocab_size)
    cdf = np.cumsum(trans, axis=1)
    # A cumsum row can end below 1.0; a draw past its end would name token
    # ``vocab_size``.
    cdf[:, -1] = 1.0
    rows = cdf.tolist()

    def gen(n):
        # Ancestral sampling is sequential in the chain: one inverse-CDF
        # lookup per token, the first CDF entry >= u.
        toks = np.empty(n, dtype=np.int64)
        toks[0] = rng.integers(0, vocab_size)
        u, out, tok = memoryview(rng.random(n)), memoryview(toks), int(toks[0])
        for i in range(1, n):
            tok = out[i] = bisect_left(rows[tok], u[i])
        return SequenceDataset(toks, bptt=bptt)

    return gen(n_train_tokens), gen(n_test_tokens)
