"""Tests for run-log and checkpoint serialization."""

import json
import zipfile

import numpy as np
import pytest

from repro.core.grad_tracker import RelativeGradChange
from repro.utils.ewma import Ewma
from repro.utils.runlog import EvalRecord, FaultRecord, IterationRecord, RunLog
from repro.utils import serialization
from repro.utils.serialization import (
    RunLogLines,
    decode_jsonable,
    encode_jsonable,
    load_checkpoint,
    load_runlog,
    runlog_from_jsonable,
    runlog_to_jsonable,
    save_checkpoint,
    save_runlog,
    settle_checkpoints,
)
from tests.conftest import write_legacy_checkpoint


@pytest.fixture
def sample_log():
    log = RunLog("demo")
    log.record_iteration(
        IterationRecord(step=0, synced=True, sim_time=1.5, comm_time=0.5,
                        loss=2.0, grad_change=float("inf"), extra={"n_flags": 3.0})
    )
    log.record_iteration(
        IterationRecord(step=1, synced=False, sim_time=1.0, comm_time=0.0,
                        loss=1.5, grad_change=0.25)
    )
    log.record_eval(EvalRecord(step=1, epoch=0.5, sim_time=2.5, metric=0.8))
    return log


class TestRunlogRoundtrip:
    def test_roundtrip_preserves_everything(self, sample_log, tmp_path):
        p = tmp_path / "run.jsonl"
        save_runlog(sample_log, p)
        back = load_runlog(p)
        assert back.name == "demo"
        assert back.n_steps == 2
        assert back.lssr() == 0.5
        assert back.iterations[0].grad_change == float("inf")
        assert back.iterations[1].grad_change == 0.25
        assert back.iterations[0].extra == {"n_flags": 3.0}
        assert back.evals[0].metric == 0.8
        assert back.total_sim_time == sample_log.total_sim_time

    def test_nan_loss_roundtrip(self, tmp_path):
        log = RunLog()
        log.record_iteration(
            IterationRecord(step=0, synced=True, sim_time=1.0)
        )
        p = tmp_path / "r.jsonl"
        save_runlog(log, p)
        back = load_runlog(p)
        assert np.isnan(back.iterations[0].loss)

    def test_unknown_kind_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"kind": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown record kind"):
            load_runlog(p)

    def test_real_training_log_roundtrips(self, tmp_path, mlp_cluster, quick_cfg):
        from repro.core import SelSyncTrainer

        workers, cluster = mlp_cluster
        res = SelSyncTrainer(workers, cluster, delta=0.3).run(quick_cfg)
        p = tmp_path / "real.jsonl"
        save_runlog(res.log, p)
        back = load_runlog(p)
        assert back.lssr() == res.log.lssr()
        assert np.allclose(back.grad_changes(), res.log.grad_changes())


class TestNestedNonFinite:
    """Regression: the old encoder only handled top-level floats, silently
    writing invalid strict JSON for nan/inf nested inside dicts or lists."""

    def test_nested_nan_and_inf_round_trip(self):
        tree = {
            "metrics": {"loss": float("nan"), "scale": [1.0, float("inf")]},
            "trace": [{"d": float("-inf")}, {"d": 0.5}],
            "n": 3,
        }
        back = decode_jsonable(json.loads(
            json.dumps(encode_jsonable(tree), allow_nan=False)
        ))
        assert np.isnan(back["metrics"]["loss"])
        assert back["metrics"]["scale"] == [1.0, float("inf")]
        assert back["trace"][0]["d"] == float("-inf")
        assert back["trace"][1]["d"] == 0.5
        assert back["n"] == 3

    def test_numpy_scalars_become_plain_json(self):
        enc = encode_jsonable(
            {"i": np.int64(7), "f": np.float32(0.5), "b": np.bool_(True)}
        )
        assert enc == {"i": 7, "f": 0.5, "b": True}
        assert type(enc["i"]) is int and type(enc["f"]) is float

    def test_unencodable_type_raises(self):
        with pytest.raises(TypeError, match="cannot JSON-encode"):
            encode_jsonable({"x": object()})

    def test_diverged_eval_record_survives_jsonl(self, tmp_path):
        """An eval metric of nan — a diverged run — must round-trip through
        the strict-JSON run-log file, not crash the writer."""
        log = RunLog("diverged")
        log.record_eval(
            EvalRecord(step=0, epoch=0.1, sim_time=1.0, metric=float("nan"))
        )
        log.record_fault(
            FaultRecord(step=0, worker=1, kind="corrupt",
                        detail={"norm": float("inf")})
        )
        p = tmp_path / "d.jsonl"
        save_runlog(log, p)
        back = load_runlog(p)
        assert np.isnan(back.evals[0].metric)
        assert back.faults[0].detail["norm"] == float("inf")


class TestCheckpointRoundtrip:
    def test_mixed_tree_round_trips(self, tmp_path):
        state = {
            "version": 1,
            "params": np.arange(6, dtype=np.float64).reshape(2, 3),
            "nested": {"vel": np.ones(4, dtype=np.float32), "lr": 0.1},
            "stack": [np.zeros(2), {"k": float("nan")}],
            "name": "bsp",
            "best": None,
        }
        p = tmp_path / "ck.npz"
        save_checkpoint(state, p)
        back = load_checkpoint(p)
        np.testing.assert_array_equal(back["params"], state["params"])
        assert back["params"].dtype == np.float64
        np.testing.assert_array_equal(back["nested"]["vel"], state["nested"]["vel"])
        assert back["nested"]["vel"].dtype == np.float32
        assert back["nested"]["lr"] == 0.1
        np.testing.assert_array_equal(back["stack"][0], np.zeros(2))
        assert np.isnan(back["stack"][1]["k"])
        assert back["name"] == "bsp" and back["best"] is None

    def test_write_is_atomic(self, tmp_path):
        """The temp file never lingers and the target is complete."""
        p = tmp_path / "ck.npz"
        save_checkpoint({"a": np.ones(3)}, p)
        save_checkpoint({"a": np.zeros(3)}, p)  # overwrite in place
        settle_checkpoints()
        assert not (tmp_path / "ck.npz.tmp").exists()
        np.testing.assert_array_equal(load_checkpoint(p)["a"], np.zeros(3))


    def test_failed_write_keeps_previous_checkpoint_and_no_temp(self, tmp_path, monkeypatch):
        """A write that raises mid-file (disk full, interrupt) must leave the
        previous checkpoint loadable and no ``.tmp`` beside it."""
        p = tmp_path / "ck.npz"
        save_checkpoint({"a": np.ones(3)}, p)

        def torn_savez(f, **payload):
            f.write(b"PK\x03\x04 half a member")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(np, "savez", torn_savez)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint({"a": np.zeros(3)}, p)
        monkeypatch.undo()
        assert [f.name for f in tmp_path.iterdir()] == ["ck.npz"]
        np.testing.assert_array_equal(load_checkpoint(p)["a"], np.ones(3))


def _diverged_log():
    """Every non-finite encoding the log can carry: tagged loss / eval /
    fault detail / extra, the legacy string form of ``grad_change``, and a
    NaN loss (stored as ``null``)."""
    log = RunLog("diverged", meta={"seed": 3, "scale": float("inf")})
    log.record_iteration(IterationRecord(step=0, synced=True, sim_time=1.0, loss=float("inf"),
                                         grad_change=float("inf"), extra={"spread": float("nan")}))
    log.record_iteration(IterationRecord(step=1, synced=False, sim_time=0.5,
                                         grad_change=float("-inf")))
    log.record_iteration(IterationRecord(step=2, synced=False, sim_time=0.5, loss=0.25,
                                         grad_change=float("nan")))
    log.record_fault(FaultRecord(step=1, worker=2, kind="corrupt", detail={"norm": float("inf")}))
    log.record_eval(EvalRecord(step=2, epoch=0.1, sim_time=2.0, metric=float("nan")))
    return log


def _checkpoint_tree(log_section):
    return {
        "version": 1,
        "step": 3,
        "best": None,
        "state": {"params": np.arange(6.0).reshape(2, 3), "rng": {"pos": 7}},
        "log": log_section,
    }


def _assert_trees_equal(a, b):
    """Exact equality of two loaded checkpoint trees (NaN equals NaN)."""
    assert type(a) is type(b)
    if isinstance(a, dict):
        assert list(a) == list(b)
        for k in a:
            _assert_trees_equal(a[k], b[k])
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_trees_equal(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    else:
        assert a == b or (a != a and b != b)


class TestCheckpointContainer:
    def test_every_member_is_stored(self, tmp_path):
        """Regression guard for the step-path stall: nothing in a checkpoint
        goes through deflate."""
        ck = tmp_path / "ck.npz"
        save_checkpoint(_checkpoint_tree(RunLogLines().text(_diverged_log())), ck)
        settle_checkpoints()
        with zipfile.ZipFile(ck) as z:
            assert z.testzip() is None  # CRCs present and right
            assert z.infolist()
            assert {i.compress_type for i in z.infolist()} == {zipfile.ZIP_STORED}

    def test_log_is_a_member_of_its_own_not_part_of_the_tree(self, tmp_path):
        ck = tmp_path / "ck.npz"
        text = RunLogLines().text(_diverged_log())
        save_checkpoint(_checkpoint_tree(text), ck)
        settle_checkpoints()
        with np.load(ck) as data:
            tree = json.loads(bytes(data["__tree__"]))
            assert tree["log"] == {"__jsonl__": 1}
            assert bytes(data["arr_1"]).decode() == text
        # ...and it is the run-log file's text, line for line.
        save_runlog(_diverged_log(), tmp_path / "log.jsonl")
        assert (tmp_path / "log.jsonl").read_text() == text + "\n"

    def test_legacy_file_loads_to_an_equal_tree(self, tmp_path):
        """A file laid out as the parent commit wrote it (deflated, log as
        records inside ``__tree__``) loads to exactly what today's does."""
        log = _diverged_log()
        new, old = tmp_path / "new.npz", tmp_path / "old.npz"
        save_checkpoint(_checkpoint_tree(RunLogLines().text(log)), new)
        write_legacy_checkpoint(_checkpoint_tree(runlog_to_jsonable(log)), old)
        with zipfile.ZipFile(old) as z:
            assert {i.compress_type for i in z.infolist()} == {zipfile.ZIP_DEFLATED}
        _assert_trees_equal(load_checkpoint(old), load_checkpoint(new))

    @pytest.mark.parametrize("legacy", [False, True])
    def test_non_finite_log_values_survive(self, tmp_path, legacy):
        log = _diverged_log()
        text = RunLogLines().text(log)
        # Both spellings are on disk: the tag, and grad_change's strings.
        assert '{"__nonfinite__": "inf"}' in text and '"grad_change": "-inf"' in text
        assert '"grad_change": "nan"' in text and '"loss": null' in text
        ck = tmp_path / "ck.npz"
        if legacy:
            write_legacy_checkpoint(_checkpoint_tree(runlog_to_jsonable(log)), ck)
        else:
            save_checkpoint(_checkpoint_tree(text), ck)
        back = runlog_from_jsonable(load_checkpoint(ck)["log"])
        assert back.name == "diverged" and back.meta == {"seed": 3, "scale": float("inf")}
        assert back.iterations[0].loss == float("inf")
        assert np.isnan(back.iterations[0].extra["spread"])
        assert [r.grad_change for r in back.iterations[:2]] == [float("inf"), float("-inf")]
        assert np.isnan(back.iterations[2].grad_change) and np.isnan(back.iterations[1].loss)
        assert back.iterations[2].loss == 0.25
        assert back.faults[0].detail == {"norm": float("inf")}
        assert np.isnan(back.evals[0].metric)

    def test_loaded_arrays_outlive_the_file(self, tmp_path):
        """Load makes no second copy; the arrays must still be writable and
        tied to nothing in the closed (here: deleted) file."""
        ck = tmp_path / "ck.npz"
        save_checkpoint({"a": np.arange(4.0)}, ck)
        a = load_checkpoint(ck)["a"]
        ck.unlink()
        a += 1.0
        np.testing.assert_array_equal(a, np.arange(4.0) + 1.0)


class TestRunLogLines:
    def test_each_record_is_encoded_once(self, monkeypatch):
        """The encode work of a second ``text`` call is the records appended
        since the first, not the history."""
        calls = []
        for name in ("_iter_to_jsonable", "_fault_to_jsonable", "_eval_to_jsonable"):
            real = getattr(serialization, name)
            monkeypatch.setattr(
                serialization, name,
                lambda r, real=real: calls.append(r) or real(r),
            )
        log = _diverged_log()
        lines = RunLogLines()
        first = lines.text(log)
        assert len(calls) == 5
        log.record_iteration(IterationRecord(step=3, synced=True, sim_time=1.0, loss=0.1))
        log.record_eval(EvalRecord(step=3, epoch=0.2, sim_time=3.0, metric=0.5))
        del calls[:]
        second = lines.text(log)
        assert calls == [log.iterations[3], log.evals[1]]
        # Same text as a from-scratch encode, in runlog_to_jsonable's order.
        assert second == RunLogLines().text(log) != first
        assert [json.loads(ln) for ln in second.splitlines()] == runlog_to_jsonable(log)

    def test_a_different_log_starts_over(self):
        lines = RunLogLines()
        long = lines.text(_diverged_log())
        short = RunLog("other")
        short.record_iteration(IterationRecord(step=0, synced=True, sim_time=1.0, loss=1.0))
        assert lines.text(short) == RunLogLines().text(short) != long

    def test_header_tracks_meta_changes(self):
        log, lines = _diverged_log(), RunLogLines()
        lines.text(log)
        log.meta["method"] = "selsync"
        assert json.loads(lines.text(log).splitlines()[0])["meta"]["method"] == "selsync"


class TestTrackerStateDicts:
    def test_ewma_state_round_trips(self):
        e = Ewma(alpha=0.3, window=5)
        for x in (1.0, 4.0, 2.5):
            e.update(x)
        e2 = Ewma(alpha=0.3, window=5)
        e2.load_state_dict(e.state_dict())
        assert e2.value == e.value and e2.n_samples == e.n_samples
        assert e2.update(7.0) == e.update(7.0)

    def test_grad_tracker_state_round_trips(self):
        t = RelativeGradChange(alpha=0.2, window=4)
        for g in (1.0, 2.0, 1.5, 3.0):
            t.update(g)
        t2 = RelativeGradChange(alpha=0.2, window=4)
        t2.load_state_dict(t.state_dict())
        assert t2.n_updates == t.n_updates
        assert t2.update(2.5) == t.update(2.5)
        assert t2.max_delta == t.max_delta
