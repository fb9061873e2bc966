"""The checkpoint's atomic rename is published off the step path.

``save_checkpoint`` writes ``<path>.tmp`` in full and hands the rename onto
``path`` to one publisher thread; ``settle_checkpoints`` waits for it. These
tests gate the rename on the next settle instead of on time: a publish
nothing settles never completes (until a timeout fails the test), so each
assertion below holds on any host speed.
"""

import json
import threading
import zipfile
from multiprocessing.context import ForkProcess
from pathlib import Path

import numpy as np
import pytest

from repro.core import TrainConfig
from repro.core import trainer as trainer_module
from repro.utils import serialization
from repro.utils.serialization import load_checkpoint, save_checkpoint
from tests.test_checkpoint_resume import _build


def _tree_step(path):
    """The ``step`` of the checkpoint at ``path``, read without settling."""
    with zipfile.ZipFile(path) as z, z.open("__tree__.npy") as f:
        return json.loads(np.lib.format.read_array(f).tobytes())["step"]


@pytest.fixture
def gated(monkeypatch):
    """Every publish's rename waits until a settle releases it; the settles
    are spied in ``calls``."""
    serialization.settle_checkpoints()  # nothing left over from an earlier test
    release = threading.Semaphore(0)
    calls = []
    real_replace, real_settle = Path.replace, serialization.settle_checkpoints

    def replace(self, target):
        assert release.acquire(timeout=30), "nothing settled the publish"
        return real_replace(self, target)

    def settle():
        calls.append(serialization._publishing is not None)
        if serialization._publishing is not None:
            release.release()
        real_settle()

    monkeypatch.setattr(Path, "replace", replace)
    monkeypatch.setattr(serialization, "settle_checkpoints", settle)
    monkeypatch.setattr(trainer_module, "settle_checkpoints", settle)
    yield calls
    release.release()
    try:
        real_settle()
    except AssertionError:
        pass


def test_steps_run_while_the_publish_is_blocked(tmp_path, gated):
    """The step-6 checkpoint's publish is blocked until the step-9 save
    settles it: steps 6, 7 and 8 run meanwhile, and ``path`` still holds the
    step-3 checkpoint, complete."""
    ck = tmp_path / "ck.npz"
    seen = {}

    def monitor(trainer, i):
        pending = serialization._publishing
        if 6 <= i <= 8:
            seen[i] = (pending is not None and pending[0].is_alive(), _tree_step(ck))

    res = _build("selsync")[1].run(TrainConfig(
        n_steps=12, eval_fn=None, checkpoint_every=3, checkpoint_path=str(ck),
        step_monitor=monitor,
    ))
    assert seen == {6: (True, 3), 7: (True, 3), 8: (True, 3)}
    assert res.steps == 12 and serialization._publishing is None
    assert load_checkpoint(ck)["step"] == 12
    assert not (tmp_path / "ck.npz.tmp").exists()


def test_load_waits_for_the_publish(tmp_path, gated):
    ck = tmp_path / "ck.npz"
    save_checkpoint({"step": 1}, ck)
    save_checkpoint({"step": 2}, ck)  # settles the first publish
    assert _tree_step(ck) == 1  # the second is still blocked
    assert load_checkpoint(ck)["step"] == 2
    assert gated == [False, True, True]


def test_run_returns_with_its_last_checkpoint_published(tmp_path, gated):
    """Normal exit and a simulated kill (``stop_after``) alike."""
    for stop_after, step in ((None, 12), (7, 6)):
        ck = tmp_path / f"ck{step}.npz"
        _build("bsp")[1].run(TrainConfig(
            n_steps=12, eval_fn=None, checkpoint_every=3, checkpoint_path=str(ck),
            stop_after=stop_after,
        ))
        assert serialization._publishing is None
        assert _tree_step(ck) == step
        assert not Path(f"{ck}.tmp").exists()


def test_run_that_raises_still_publishes(tmp_path, gated):
    ck = tmp_path / "ck.npz"

    def die(trainer, i):
        if i == 4:
            raise RuntimeError("killed")

    with pytest.raises(RuntimeError, match="killed"):
        _build("bsp")[1].run(TrainConfig(
            n_steps=12, eval_fn=None, checkpoint_every=3, checkpoint_path=str(ck),
            step_monitor=die,
        ))
    assert serialization._publishing is None and _tree_step(ck) == 3


@pytest.fixture
def failing_publish(monkeypatch):
    """The first rename raises ENOSPC; later ones succeed."""
    serialization.settle_checkpoints()  # nothing left over from an earlier test
    real_replace, calls = Path.replace, []

    def replace(self, target):
        calls.append(target)
        if len(calls) == 1:
            raise OSError(28, "No space left on device")
        return real_replace(self, target)

    monkeypatch.setattr(Path, "replace", replace)
    return calls


def test_a_failed_publish_surfaces_from_the_next_save(tmp_path, failing_publish):
    ck = tmp_path / "ck.npz"
    save_checkpoint({"step": 1}, ck)  # returns: the rename runs later
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint({"step": 2}, ck)
    assert list(tmp_path.iterdir()) == []  # nothing published, no .tmp
    save_checkpoint({"step": 3}, ck)
    assert load_checkpoint(ck)["step"] == 3
    assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]


@pytest.mark.parametrize("n_steps", [3, 12])
def test_a_failed_publish_surfaces_from_run(tmp_path, failing_publish, n_steps):
    """From the end of the run (its only checkpoint) or from the next save."""
    ck = tmp_path / "ck.npz"
    with pytest.raises(OSError, match="No space left"):
        _build("bsp")[1].run(TrainConfig(
            n_steps=n_steps, eval_fn=None, checkpoint_every=3, checkpoint_path=str(ck),
        ))
    assert serialization._publishing is None
    assert list(tmp_path.iterdir()) == []
    assert len(failing_publish) == 1


def test_the_process_pool_settles_before_it_forks(tmp_path, monkeypatch):
    save_checkpoint({"a": np.ones(3)}, tmp_path / "ck.npz")
    assert serialization._publishing is not None
    order = []
    settle, start = serialization.settle_checkpoints, ForkProcess.start

    def spy_settle():
        order.append("settle")
        settle()

    def spy_start(proc):
        order.append(("fork", serialization._publishing))
        start(proc)

    monkeypatch.setattr(serialization, "settle_checkpoints", spy_settle)
    monkeypatch.setattr(ForkProcess, "start", spy_start)
    _, trainer = _build("bsp", executor="process", executor_procs=2)
    try:
        trainer.run(TrainConfig(n_steps=1, eval_fn=None))
    finally:
        trainer.executor.shutdown()
    assert order[:3] == ["settle", ("fork", None), ("fork", None)]
    assert (tmp_path / "ck.npz").exists() and not (tmp_path / "ck.npz.tmp").exists()
