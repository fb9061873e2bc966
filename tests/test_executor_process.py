"""Process-pool executor: cross-backend byte-identity and pool lifecycle.

The contract under test (see ``repro.cluster.executor``): a run on the
``process`` backend is **byte-identical** to the same run on ``serial`` —
same RunLog, same traces, same checkpoint files — including under fault
injection and across a kill-and-resume boundary. Plus the sharp edges:
crash-of-child is a loud error, child exceptions carry their traceback,
pools are pinned to the worker group they forked for.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.executor import ProcessExecutor, make_executor
from repro.core import TrainConfig
from repro.core.bsp import BSPTrainer
from repro.core.selsync import SelSyncTrainer
from repro.obs import Tracer
from repro.utils.serialization import save_runlog
from tests.conftest import make_mlp_cluster, next_batches

EXECUTORS = ("serial", "process")
TRAINERS = [(BSPTrainer, {}), (SelSyncTrainer, {"delta": 0.3})]


def _run_artifacts(
    trainer_cls,
    executor,
    train,
    tmp_path,
    cfg_kwargs=None,
    cluster_kwargs=None,
    **trainer_kwargs,
):
    """One full run; returns (runlog bytes, trace bytes, checkpoint bytes,
    final params) for byte-level comparison across backends."""
    tag = f"{trainer_cls.__name__}-{executor}"
    log_path = tmp_path / f"{tag}.jsonl"
    trace_path = tmp_path / f"{tag}-trace.jsonl"
    ck_path = tmp_path / f"{tag}-ck.npz"
    workers, cluster = make_mlp_cluster(train)
    cluster.executor = executor
    for k, v in (cluster_kwargs or {}).items():
        setattr(cluster, k, v)
    tracer = Tracer(path=str(trace_path), name=trainer_cls.__name__)
    cfg = TrainConfig(
        n_steps=20,
        eval_every=10,
        checkpoint_every=10,
        checkpoint_path=str(ck_path),
        tracer=tracer,
        **(cfg_kwargs or {}),
    )
    trainer = trainer_cls(workers, cluster, **trainer_kwargs)
    try:
        res = trainer.run(cfg)
    finally:
        trainer.executor.shutdown()
    tracer.close()
    save_runlog(res.log, log_path)
    params = [w.get_params(copy=True) for w in trainer.workers]
    return (
        log_path.read_bytes(),
        trace_path.read_bytes(),
        ck_path.read_bytes(),
        params,
    )


@pytest.mark.parametrize("executor", EXECUTORS[1:])
@pytest.mark.parametrize("trainer_cls,kwargs", TRAINERS)
def test_all_backends_byte_identical(
    trainer_cls, kwargs, executor, blobs_data, tmp_path
):
    train, _ = blobs_data
    ref = _run_artifacts(trainer_cls, "serial", train, tmp_path, **kwargs)
    got = _run_artifacts(trainer_cls, executor, train, tmp_path, **kwargs)
    assert got[0] == ref[0], "RunLog JSONL differs"
    assert got[1] == ref[1], "trace JSONL differs"
    assert got[2] == ref[2], "checkpoint npz differs"
    for a, b in zip(ref[3], got[3]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("trainer_cls,kwargs", TRAINERS)
def test_faulted_run_byte_identical(trainer_cls, kwargs, blobs_data, tmp_path):
    train, _ = blobs_data
    faults = {
        "fault_spec": "crash:w2@4-9,straggle:w0x4@3+,drop:p=0.1",
        "min_quorum": 2,
    }
    ref = _run_artifacts(
        trainer_cls, "serial", train, tmp_path, cluster_kwargs=faults, **kwargs
    )
    got = _run_artifacts(
        trainer_cls, "process", train, tmp_path, cluster_kwargs=faults, **kwargs
    )
    assert got[0] == ref[0], "faulted RunLog differs"
    assert got[1] == ref[1], "faulted trace differs"


def test_kill_and_resume_under_process_backend(blobs_data, tmp_path):
    train, _ = blobs_data
    ck = tmp_path / "ck.npz"

    def run(executor, resume=None, stop_after=None, n_steps=20):
        workers, cluster = make_mlp_cluster(train)
        cluster.executor = executor
        cfg = TrainConfig(
            n_steps=n_steps,
            eval_every=10,
            checkpoint_every=10,
            checkpoint_path=str(ck),
            resume_from=resume,
            stop_after=stop_after,
        )
        trainer = BSPTrainer(workers, cluster)
        try:
            res = trainer.run(cfg)
        finally:
            trainer.executor.shutdown()
        return res, [w.get_params(copy=True) for w in trainer.workers]

    full_res, full_params = run("serial")
    run("process", stop_after=10)  # simulated kill; checkpoint survives
    res, params = run("process", resume=str(ck))
    for a, b in zip(full_params, params):
        assert np.array_equal(a, b)
    assert len(res.log.iterations) == len(full_res.log.iterations)
    for a, b in zip(full_res.log.iterations, res.log.iterations):
        assert a.loss == b.loss and a.sim_time == b.sim_time


def test_child_crash_is_loud(blobs_data):
    train, _ = blobs_data
    workers, _ = make_mlp_cluster(train, n_workers=2)
    ex = ProcessExecutor(procs=1)
    try:
        ex.bind(workers)
        ex.compute_gradients(workers, next_batches(workers))
        for proc in ex._pool.procs:
            proc.kill()
            proc.join()
        with pytest.raises(RuntimeError, match="died"):
            ex.compute_gradients(workers, next_batches(workers))
    finally:
        ex.shutdown()


def test_child_exception_carries_traceback(blobs_data):
    train, _ = blobs_data
    workers, _ = make_mlp_cluster(train, n_workers=2)
    ex = ProcessExecutor(procs=2)
    try:
        ex.bind(workers)
        bad = [
            (np.zeros((4, 3)), np.zeros(4, dtype=np.int64)),  # wrong width
            (np.zeros((4, 3)), np.zeros(4, dtype=np.int64)),
        ]
        with pytest.raises(RuntimeError, match="failed in the child"):
            ex.compute_gradients(workers, bad)
        # The pool survives a task failure: a good batch still computes.
        losses = ex.compute_gradients(workers, next_batches(workers))
        assert all(np.isfinite(l) for l in losses)
    finally:
        ex.shutdown()


def test_subset_compute_after_full_bind(blobs_data):
    train, _ = blobs_data
    workers, _ = make_mlp_cluster(train)
    with ProcessExecutor(procs=2) as ex:
        ex.bind(workers)
        losses = ex.compute_gradients(workers[1:3], next_batches(workers[1:3]))
        assert losses == [w.last_loss for w in workers[1:3]]
        # Single-worker calls (the SSP event-loop shape) also go through.
        one = ex.compute_gradients([workers[0]], next_batches([workers[0]]))
        assert one == [workers[0].last_loss]


def test_foreign_worker_rejected(blobs_data):
    train, _ = blobs_data
    workers, _ = make_mlp_cluster(train, n_workers=2)
    twins, _ = make_mlp_cluster(train, n_workers=2)
    with ProcessExecutor(procs=1) as ex:
        ex.bind(workers)
        ex.compute_gradients(workers, next_batches(workers))
        with pytest.raises(RuntimeError, match="different object"):
            ex.compute_gradients(twins, next_batches(twins))


def test_shutdown_idempotent_and_context_manager(blobs_data):
    train, _ = blobs_data
    workers, _ = make_mlp_cluster(train, n_workers=2)
    ex = make_executor("process", procs=1)
    with ex:
        ex.bind(workers)
        ex.compute_gradients(workers, next_batches(workers))
        pool = ex._pool
    assert ex._pool is None
    assert all(not p.is_alive() for p in pool.procs)
    ex.shutdown()  # second shutdown is a no-op
    # Workers are folded back to private arenas and remain fully usable.
    for w in workers:
        assert not w.model._arena.shared
    losses = make_executor("serial").compute_gradients(
        workers, next_batches(workers)
    )
    assert all(np.isfinite(l) for l in losses)


def test_process_results_match_serial_losses(blobs_data):
    """Same step, fresh twin clusters: per-worker losses agree exactly."""
    train, _ = blobs_data
    ws_a, _ = make_mlp_cluster(train)
    ws_b, _ = make_mlp_cluster(train)
    with ProcessExecutor() as ex:
        ex.bind(ws_a)
        got = ex.compute_gradients(ws_a, next_batches(ws_a))
    ref = make_executor("serial").compute_gradients(ws_b, next_batches(ws_b))
    assert got == ref
    for a, b in zip(ws_a, ws_b):
        assert np.array_equal(a.get_grads(copy=True), b.get_grads(copy=True))
