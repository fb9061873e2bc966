"""Pluggable execution backends for the per-worker gradient phase.

Every lock-step trainer has the same hot section: N independent
forward/backward passes, one per simulated worker. An executor owns *how*
those passes run — sequentially in the caller's thread, or fanned out over
a persistent pool of **worker processes** sharing the parameter/gradient
arenas — while trainers stay oblivious; they call
``executor.compute_gradients(workers, batches)`` and get the per-worker
losses back in worker order. An executor only computes: the trainer draws
every mini-batch (:meth:`~repro.core.trainer.DistributedTrainer.draw_batches`)
on its own thread, in worker order, before handing them over.

Determinism contract
--------------------
Both backends produce **byte-identical** results:

* Batches arrive already drawn, so loader RNG streams advance identically
  under every backend.
* Each worker owns its model, optimizer, arena and RNG; tasks share no
  mutable state, so the floating-point work per worker is the same
  instruction sequence regardless of interleaving or address space.
* Results are collected in submission order, not completion order.

The process backend sidesteps the GIL (the numpy glue between kernels is
Python-level and serializes threads — a thread pool measured *slower* than
serial on 1 and 2 cores, ``BENCH_executor.json``, and was removed), which
is why it is the backend that scales with cores. ``serial`` stays the
default.

Process backend transport
-------------------------
:class:`ProcessExecutor` forks children that inherit the simulated workers
whole; before forking, every worker's arena is promoted to a
``multiprocessing.shared_memory`` segment (:func:`repro.nn.arena.share_arena`),
so parameter writes by the parent (optimizer steps, aggregation, resume) and
gradient writes by the children need no copies and no pickling. Mini-batches
travel through a per-worker shared staging segment. The only things pickled
per task are compact descriptors: worker id, batch shapes, dropout RNG
states and BatchNorm running statistics out; loss, ``||g||²`` and the
advanced RNG/buffer states back. All authoritative state (loaders,
optimizers, checkpoints) stays in the parent — a child is a pure
forward/backward engine over shared storage.
"""

from __future__ import annotations

import os
import time
import traceback
import weakref
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs

Batch = Tuple[np.ndarray, np.ndarray]

EXECUTOR_KINDS = ("serial", "process")


def _compute_one(worker, batch: Batch) -> float:
    """One worker's forward/backward, with an ``exec_task`` trace event.

    The event deliberately excludes the backend name and (in deterministic
    mode) any wall-clock timing: the serial and process executors must
    produce byte-identical traces (the process pool replays the same event
    from each child's result).
    """
    tr = obs.active()  # ``wall_s`` is timed only for a non-deterministic trace
    t0 = None if tr is None or tr.deterministic else time.perf_counter()
    loss = worker.compute_gradient(batch)
    wall = {} if t0 is None else {"wall_s": time.perf_counter() - t0}
    obs.emit("exec_task", worker=worker.worker_id, loss=float(loss), **wall)
    return loss


class WorkerExecutor:
    """Runs the per-worker gradient phase; subclasses choose the backend."""

    name = "abstract"

    def bind(self, workers: Sequence) -> None:
        """Declare the full worker group before the first compute call.

        Stateful backends (the process pool) need the complete group up
        front: trainers routinely compute over *subsets* (live workers, SSP's
        single-worker events), and a pool forked from a partial first call
        could never serve the rest. Stateless backends ignore it.
        """

    def compute_gradients(
        self, workers: Sequence, batches: Sequence[Batch]
    ) -> List[float]:
        """Forward/backward every worker once on its batch (``batches[j]``
        belongs to ``workers[j]``); return losses in worker order."""
        if len(batches) != len(workers):
            raise ValueError(
                f"got {len(batches)} batches for {len(workers)} workers"
            )
        return self._run(workers, batches)

    def _run(self, workers: Sequence, batches: Sequence[Batch]) -> List[float]:
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release backend resources; idempotent (no-op when stateless or
        already shut down)."""

    def __enter__(self) -> "WorkerExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False


class SerialExecutor(WorkerExecutor):
    """In-thread reference backend: a plain loop over the workers."""

    name = "serial"

    def _run(self, workers, batches):
        return [_compute_one(w, b) for w, b in zip(workers, batches)]


# -- process backend ---------------------------------------------------------


def _child_main(conn, workers) -> None:
    """Task loop of one forked worker process.

    Inherits its assigned :class:`SimWorker` replicas from the fork; their
    parameter/gradient views alias the parent's shared-memory arenas, so a
    task only needs the batch (read from the staging segment) and the
    model's mutable non-parameter state (from the descriptor). The loop
    exits on the ``None`` sentinel or when the parent's pipe end closes.
    """
    # The fork inherited any installed tracer; observability belongs to the
    # parent (it replays metrics/events from results), so uninstall here.
    obs.install(None)
    by_id = {w.worker_id: w for w in workers}
    staging: Dict[int, Tuple[str, shared_memory.SharedMemory]] = {}
    try:
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError, KeyboardInterrupt):
                break
            if task is None:
                break
            try:
                conn.send(_child_run_task(by_id, staging, task))
            except Exception:  # ship the traceback; the parent raises it
                try:
                    conn.send(
                        {
                            "worker": task.get("worker", -1),
                            "error": traceback.format_exc(),
                        }
                    )
                except (BrokenPipeError, OSError):
                    break
    finally:
        for _, shm in staging.values():
            shm.close()
        try:
            conn.close()
        finally:
            # Skip interpreter teardown: flushing file buffers inherited
            # from the fork (trace sinks, stdout) would duplicate the
            # parent's pending writes.
            os._exit(0)


def _child_run_task(by_id, staging, task):
    wid = task["worker"]
    w = by_id.get(wid)
    if w is None:
        raise RuntimeError(f"child was never assigned worker {wid}")
    name = task["shm"]
    cached = staging.get(wid)
    if cached is None or cached[0] != name:
        if cached is not None:
            cached[1].close()  # parent re-staged into a bigger segment
        staging[wid] = (name, shared_memory.SharedMemory(name=name))
    shm = staging[wid][1]
    x = np.ndarray(task["x_shape"], dtype=np.dtype(task["x_dtype"]), buffer=shm.buf)
    y = np.ndarray(
        task["y_shape"],
        dtype=np.dtype(task["y_dtype"]),
        buffer=shm.buf,
        offset=x.nbytes,
    )
    # The views stay valid for the whole task (the parent re-stages worker
    # ``wid``'s slot only after this task's result arrived); mark them
    # read-only so a mutating layer fails loudly instead of corrupting the
    # staging buffer.
    x.flags.writeable = False
    y.flags.writeable = False
    w.set_model_mutable_state(task["state"])
    t0 = time.perf_counter()
    loss = w.compute_gradient((x, y))
    wall_s = time.perf_counter() - t0
    return {
        "worker": wid,
        "loss": loss,
        "grad_sqnorm": w.last_grad_sqnorm,
        "state": w.model_mutable_state(),
        "wall_s": wall_s,
    }


class _BatchStaging:
    """Parent-side shared-memory slot that carries one worker's batch.

    Grows geometrically when a bigger batch appears (new segment, new name
    — the child re-attaches when the descriptor's name changes); the common
    case is a single allocation reused for the whole run.
    """

    def __init__(self):
        self.shm: Optional[shared_memory.SharedMemory] = None

    def stage(self, x: np.ndarray, y: np.ndarray) -> Dict:
        need = int(x.nbytes + y.nbytes)
        if self.shm is None or self.shm.size < need:
            self.release()
            self.shm = shared_memory.SharedMemory(create=True, size=max(1, need))
        np.ndarray(x.shape, dtype=x.dtype, buffer=self.shm.buf)[...] = x
        np.ndarray(
            y.shape, dtype=y.dtype, buffer=self.shm.buf, offset=x.nbytes
        )[...] = y
        return {
            "shm": self.shm.name,
            "x_shape": tuple(x.shape),
            "x_dtype": x.dtype.str,
            "y_shape": tuple(y.shape),
            "y_dtype": y.dtype.str,
        }

    def release(self) -> None:
        if self.shm is not None:
            self.shm.close()
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            self.shm = None


class _ProcessPool:
    """The forked children, their pipes, and the task/result protocol."""

    def __init__(self, workers: List, n_procs: int):
        from repro.nn.arena import share_arena
        from repro.utils.serialization import settle_checkpoints

        import multiprocessing as mp

        try:
            ctx = mp.get_context("fork")
        except ValueError as e:  # pragma: no cover - non-POSIX platforms
            raise RuntimeError(
                "the process executor needs the 'fork' start method so "
                "children inherit the worker replicas and shared arenas; "
                "this platform does not provide it"
            ) from e
        self.workers = {w.worker_id: w for w in workers}
        if len(self.workers) != len(workers):
            raise ValueError("duplicate worker ids in the bound group")
        # Promote every replica's arena to shared memory *before* forking (no
        # checkpoint publisher may be alive across it); children inherit views.
        settle_checkpoints()
        for w in workers:
            share_arena(w.model)
        self.staging = {w.worker_id: _BatchStaging() for w in workers}
        self._child_of: Dict[int, int] = {}
        assigned: List[List] = [[] for _ in range(n_procs)]
        for i, w in enumerate(workers):
            self._child_of[w.worker_id] = i % n_procs
            assigned[i % n_procs].append(w)
        self.conns = []
        self.procs = []
        for j in range(n_procs):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_child_main,
                args=(child_conn, assigned[j]),
                name=f"repro-exec-{j}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self.conns.append(parent_conn)
            self.procs.append(proc)
        self._pending: Dict[int, Dict] = {}
        self._closed = False

    # -- protocol ---------------------------------------------------------
    def check_membership(self, workers: Sequence) -> None:
        for w in workers:
            bound = self.workers.get(w.worker_id)
            if bound is None:
                raise RuntimeError(
                    f"worker {w.worker_id} is not part of the group this "
                    "process pool was forked for; bind() the full group "
                    "before the first compute call"
                )
            if bound is not w:
                raise RuntimeError(
                    f"worker {w.worker_id} is a different object than the "
                    "one this process pool was forked for; create a fresh "
                    "executor for a fresh worker group"
                )

    def _die(self, wid: int, op: str) -> RuntimeError:
        return self._die_child(self._child_of[wid], op, wid=wid)

    def _die_child(self, j: int, op: str, wid=None) -> RuntimeError:
        proc = self.procs[j]
        proc.join(timeout=1.0)
        serving = "" if wid is None else f" (serving simulated worker {wid})"
        return RuntimeError(
            f"executor child process {proc.name}{serving} died during "
            f"{op} (exit code {proc.exitcode}); the training step cannot "
            "be trusted — aborting"
        )

    def run_tasks(self, workers: Sequence, batches: Sequence[Batch]) -> List[float]:
        tr = obs.active()
        timed = tr is not None and not tr.deterministic
        for w, (x, y) in zip(workers, batches):
            task = {
                "worker": w.worker_id,
                "state": w.model_mutable_state(),
                **self.staging[w.worker_id].stage(
                    np.ascontiguousarray(x), np.ascontiguousarray(y)
                ),
            }
            # Drain any finished results before each send: keeps both pipe
            # directions shallow, so neither side can block with the other
            # full (descriptors and results are KBs, pipes hold 64KB).
            self._drain_ready()
            conn = self.conns[self._child_of[w.worker_id]]
            try:
                conn.send(task)
            except (BrokenPipeError, OSError):
                raise self._die(w.worker_id, "task submission") from None
        losses = []
        it = iter(list(workers))
        try:
            for w in it:
                r = self._recv_for(w.worker_id)
                w.set_model_mutable_state(r["state"])
                w.last_loss = r["loss"]
                w.last_grad_sqnorm = r["grad_sqnorm"]
                wall = {"wall_s": r["wall_s"]} if timed else {}
                obs.emit("exec_task", worker=w.worker_id, loss=float(r["loss"]), **wall)
                losses.append(r["loss"])
        except Exception:
            # A failed task leaves this round's later results in flight;
            # absorb them now so a subsequent round cannot mistake a stale
            # result for its own. (A dead child has nothing to absorb.)
            for w in it:
                try:
                    self._recv_raw(w.worker_id)
                except Exception:  # pragma: no cover - child also gone
                    pass
            raise
        return losses

    def _drain_ready(self) -> None:
        for j, conn in enumerate(self.conns):
            while conn.poll():
                try:
                    r = conn.recv()
                except (EOFError, OSError):
                    # poll() also wakes on EOF: the child is gone.
                    raise self._die_child(j, "task submission") from None
                self._pending[r["worker"]] = r

    def _recv_raw(self, wid: int) -> Dict:
        conn = self.conns[self._child_of[wid]]
        while wid not in self._pending:
            try:
                r = conn.recv()
            except (EOFError, OSError):
                raise self._die(wid, "gradient computation") from None
            self._pending[r["worker"]] = r
        return self._pending.pop(wid)

    def _recv_for(self, wid: int) -> Dict:
        r = self._recv_raw(wid)
        if "error" in r:
            raise RuntimeError(
                f"gradient task for worker {wid} failed in the child "
                f"process:\n{r['error']}"
            )
        return r

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self.conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for proc, conn in zip(self.procs, self.conns):
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck child
                proc.terminate()
                proc.join(timeout=5.0)
            conn.close()
        for st in self.staging.values():
            st.release()
        # Children are gone: fold every arena back to private storage and
        # release the segments, so repeated runs in one process (tests,
        # sweeps) do not accumulate /dev/shm mappings.
        from repro.nn.arena import unshare_arena

        for w in self.workers.values():
            try:
                unshare_arena(w.model)
            except Exception:  # pragma: no cover - interpreter teardown
                pass


class ProcessExecutor(WorkerExecutor):
    """Process-pool backend over shared-memory arenas.

    The pool forks lazily at the first compute call (children must inherit
    fully-built worker replicas) and persists across steps. ``procs`` bounds
    the number of worker processes; ``None`` sizes it to
    ``min(n_workers, cpu_count)``. Simulated workers are assigned to
    children round-robin and stay pinned, so each replica's memory is only
    ever touched by one child.
    """

    name = "process"

    def __init__(self, procs: Optional[int] = None):
        if procs is not None and procs < 1:
            raise ValueError(f"procs must be >= 1, got {procs}")
        self.procs = procs
        self._pool: Optional[_ProcessPool] = None
        self._bound: Optional[List] = None
        self._finalizer = None

    def bind(self, workers: Sequence) -> None:
        if self._pool is not None:
            self._pool.check_membership(workers)
            return
        self._bound = list(workers)

    def _ensure_pool(self, workers: Sequence) -> _ProcessPool:
        if self._pool is None:
            group = self._bound if self._bound is not None else list(workers)
            n = min(self.procs or (os.cpu_count() or 1), len(group))
            self._pool = _ProcessPool(group, max(1, n))
            # Safety net for executors that are dropped without shutdown():
            # terminates children and unlinks segments at garbage collection.
            self._finalizer = weakref.finalize(self, _ProcessPool.close, self._pool)
        self._pool.check_membership(workers)
        return self._pool

    def _run(self, workers, batches):
        return self._ensure_pool(workers).run_tasks(workers, batches)

    def shutdown(self) -> None:
        if self._pool is not None:
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
            self._pool.close()
            self._pool = None


def make_executor(
    kind: str = "serial", procs: Optional[int] = None
) -> WorkerExecutor:
    """Build an executor by name (one of :data:`EXECUTOR_KINDS`)."""
    if kind == "serial":
        return SerialExecutor()
    if kind == "process":
        return ProcessExecutor(procs=procs)
    raise ValueError(
        f"unknown executor {kind!r}; valid choices: {', '.join(EXECUTOR_KINDS)}"
    )
