"""Shared fixtures: tiny clusters that keep every test fast.

Also hosts a fallback test-order randomizer: when ``pytest-randomly`` is
installed it owns shuffling (and registers the same ``--randomly-seed``
option, so this stub stays out of the way); when it is not — this offline
image does not ship it — a minimal reimplementation shuffles the collected
items the way the plugin does (modules, then classes, then functions) and
reseeds the global RNGs per test, so ordering/RNG-leak bugs surface locally
and in CI either way. CI pins the seed for reproducible
legs; an unpinned run draws one and prints it in the pytest header so a
failing order can be replayed with ``--randomly-seed=<N>``.
"""

from __future__ import annotations

import json
import random
import time
import zlib

import numpy as np
import pytest

from repro import obs
from repro.cluster.worker import build_worker_group
from repro.core import ClusterConfig, TrainConfig
from repro.core.evaluation import accuracy_eval
from repro.data import BatchLoader, build_dataset, selsync_partition
from repro.nn.models import build_model
from repro.obs import views
from repro.optim import SGD

try:  # the real plugin wins when present
    import pytest_randomly  # noqa: F401

    _HAVE_RANDOMLY = True
except ImportError:
    _HAVE_RANDOMLY = False


if not _HAVE_RANDOMLY:

    def pytest_addoption(parser):
        parser.addoption(
            "--randomly-seed",
            action="store",
            default="default",
            help=(
                "Shuffle seed for test ordering (int, or 'default' to draw "
                "one per run). Mirrors pytest-randomly's option."
            ),
        )
        parser.addoption(
            "--randomly-dont-shuffle",
            action="store_true",
            default=False,
            help="Keep collection order (still reseeds RNGs per test).",
        )

    def _shuffle_seed(config) -> int:
        cached = getattr(config, "_shuffle_seed", None)
        if cached is None:
            raw = config.getoption("--randomly-seed")
            cached = int(time.time()) if raw == "default" else int(raw)
            config._shuffle_seed = cached
        return cached

    def pytest_report_header(config):
        return f"Using --randomly-seed={_shuffle_seed(config)} (fallback shuffler)"

    def pytest_collection_modifyitems(config, items):
        if config.getoption("--randomly-dont-shuffle"):
            return
        # Modules, then classes within a module, then functions within a
        # class — pytest-randomly's order. A module's tests stay together,
        # so a ``scope="module"`` fixture is built once, not once per test.
        rng = random.Random(_shuffle_seed(config))
        by_module = {}
        for item in items:
            by_class = by_module.setdefault(item.nodeid.split("::", 1)[0], {})
            by_class.setdefault(getattr(item, "cls", None), []).append(item)
        modules = list(by_module.values())
        rng.shuffle(modules)
        shuffled = []
        for by_class in modules:
            classes = list(by_class.values())
            rng.shuffle(classes)
            for functions in classes:
                rng.shuffle(functions)
                shuffled.extend(functions)
        items[:] = shuffled

    @pytest.fixture(autouse=True)
    def _reseed_global_rngs(request):
        """Per-test deterministic reseed of the *global* RNG state.

        Any test that leans on ``np.random``/``random`` without seeding
        them gets a seed derived from its own nodeid — so it fails the
        same way regardless of which tests ran before it, instead of
        silently inheriting a neighbour's RNG cursor.
        """
        seed = _shuffle_seed(request.config) ^ zlib.crc32(
            request.node.nodeid.encode()
        )
        random.seed(seed)
        np.random.seed(seed % 2**32)
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def blobs_data():
    """Small, easily separable classification task."""
    return build_dataset(
        "blobs", n_train=256, n_test=64, n_features=16, n_classes=4, rng=0
    )


def next_batches(workers):
    """Each worker's next mini-batch, in worker order — what the trainer's
    ``draw_batches`` hands an executor."""
    return [w.loader.next_batch() for w in workers]


def charged(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), seconds)`` for a ``SimGroup`` entry: the
    entry returns data or ``None``, and the seconds it charged are on its
    events — their comm term under :func:`repro.obs.views.clock`."""
    with obs.collect() as events:
        out = fn(*args, **kwargs)
    return out, views.clock(events)[1]


def make_mlp_cluster(
    train,
    n_workers: int = 4,
    batch_size: int = 16,
    n_features: int = 16,
    n_classes: int = 4,
    hidden=(16,),
    lr: float = 0.05,
    momentum: float = 0.9,
    seed: int = 0,
    partition_fn=selsync_partition,
):
    """Workers + cluster config over an MLP on the given dataset."""
    part = partition_fn(len(train), n_workers, rng=seed + 1)
    loaders = BatchLoader.for_workers(train, part, batch_size=batch_size, seed=seed + 2)
    workers = build_worker_group(
        n_workers,
        lambda: build_model(
            "mlp", in_features=n_features, n_classes=n_classes, hidden=hidden, rng=7
        ),
        lambda m: SGD(m, lr=lr, momentum=momentum),
        loaders,
    )
    cluster = ClusterConfig(
        n_workers=n_workers, seed=seed, comm_bytes=1e6, flops_per_sample=1e6
    )
    return workers, cluster


@pytest.fixture
def mlp_cluster(blobs_data):
    train, _ = blobs_data
    return make_mlp_cluster(train)


@pytest.fixture
def quick_cfg(blobs_data):
    _, test = blobs_data
    return TrainConfig(
        n_steps=40,
        eval_every=20,
        eval_fn=accuracy_eval(test),
        higher_is_better=True,
    )


def write_legacy_checkpoint(tree, path):
    """The checkpoint writer as it was before PR 13: every member deflated,
    and a run log given as plain records sits inside ``__tree__``."""
    from repro.utils.serialization import _hoist_arrays

    arrays = []
    encoded = json.dumps(_hoist_arrays(tree, arrays), allow_nan=False)
    payload = {f"arr_{i}": a for i, a in enumerate(arrays)}
    payload["__tree__"] = np.frombuffer(encoded.encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as f:
        np.savez_compressed(f, **payload)


def event_lines(path):
    """Raw event lines (header excluded) — the unit of byte comparison for
    golden-trace tests: an interrupted run's lines plus its resumed run's
    lines must equal the uninterrupted run's lines exactly."""
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    return lines[1:]


def roundtrip(events):
    """parse(serialize(events)) — the property tests assert this is the
    identity on (etype, step, worker, seq, data)."""
    from repro.obs.sink import event_from_jsonable, event_line

    return [event_from_jsonable(json.loads(event_line(ev))) for ev in events]
