"""Executor backends: construction, ordering and the batch-count check.

Serial ≡ process byte-identity of whole runs lives in
``tests/test_executor_process.py``.
"""

from __future__ import annotations

import pytest

from repro.cluster.executor import (
    EXECUTOR_KINDS,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)
from tests.conftest import make_mlp_cluster, next_batches


def test_executor_losses_in_worker_order(blobs_data):
    train, _ = blobs_data
    workers, _ = make_mlp_cluster(train)
    with ProcessExecutor(procs=2) as ex:
        losses = ex.compute_gradients(workers, next_batches(workers))
        assert losses == [w.last_loss for w in workers]


def test_explicit_batches_path(blobs_data):
    train, _ = blobs_data
    workers, _ = make_mlp_cluster(train)
    batches = next_batches(workers)
    losses = SerialExecutor().compute_gradients(workers, batches)
    assert len(losses) == len(workers)
    with pytest.raises(ValueError):
        SerialExecutor().compute_gradients(workers, batches[:-1])
    with ProcessExecutor(procs=1) as ex, pytest.raises(ValueError):
        ex.compute_gradients(workers, batches[:-1])


def test_make_executor():
    assert isinstance(make_executor("serial"), SerialExecutor)
    px = make_executor("process", procs=2)
    assert isinstance(px, ProcessExecutor) and px.procs == 2
    with pytest.raises(ValueError):
        make_executor("gpu")
    with pytest.raises(ValueError):
        make_executor("threaded")  # removed backend: unknown, not ignored
    with pytest.raises(ValueError):
        make_executor("process", procs=0)


def test_make_executor_error_lists_choices():
    with pytest.raises(ValueError) as ei:
        make_executor("gpu")
    for kind in EXECUTOR_KINDS:
        assert kind in str(ei.value)


def test_shutdown_is_idempotent_and_context_managed(blobs_data):
    train, _ = blobs_data
    workers, _ = make_mlp_cluster(train, n_workers=2)
    for kind in EXECUTOR_KINDS:
        with make_executor(kind) as ex:
            ex.bind(workers)
            losses = ex.compute_gradients(workers, next_batches(workers))
            assert len(losses) == 2
        ex.shutdown()  # after __exit__: must be a no-op
        ex.shutdown()


def test_cluster_config_validates_executor():
    from repro.core import ClusterConfig

    cfg = ClusterConfig(n_workers=2, executor="serial")
    assert isinstance(cfg.make_executor(), SerialExecutor)
    with pytest.raises(ValueError):
        ClusterConfig(n_workers=2, executor="bogus")
    with pytest.raises(ValueError):
        ClusterConfig(n_workers=2, executor="threaded")
    with pytest.raises(ValueError):
        ClusterConfig(n_workers=2, executor_procs=0)
    pcfg = ClusterConfig(n_workers=2, executor="process", executor_procs=1)
    assert isinstance(pcfg.make_executor(), ProcessExecutor)


def test_repro_executor_env_sets_default(monkeypatch):
    from repro.core import ClusterConfig

    monkeypatch.setenv("REPRO_EXECUTOR", "process")
    assert ClusterConfig(n_workers=2).executor == "process"
    monkeypatch.delenv("REPRO_EXECUTOR")
    assert ClusterConfig(n_workers=2).executor == "serial"
