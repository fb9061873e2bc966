"""Kill-and-resume tests: a resumed run must be bitwise identical.

The contract under test: checkpoint at step K, simulate a kill
(``stop_after``), resume from the file with the *same full config* — and the
continuation reproduces the uninterrupted run exactly: parameters, losses,
simulated clock (jitter RNG stream) and fault records all match to the bit.
"""

import inspect

import numpy as np
import pytest

from repro.core import (
    BSPTrainer,
    ClusterConfig,
    EASGDTrainer,
    FedAvgTrainer,
    LocalSGDTrainer,
    SSPTrainer,
    SelSyncTrainer,
    TrainConfig,
)
from repro.cluster.worker import build_worker_group
from repro.core.compression import COMPRESSORS, build_compressor
from repro.data import ArrayDataset, BatchLoader, selsync_partition
from repro.data.injection import DataInjector
from repro.nn.models import build_model
from repro.obs import Tracer
from repro.optim import SGD, Adam
from repro.utils import serialization
from repro.utils.serialization import (
    RunLogLines,
    load_checkpoint,
    runlog_from_jsonable,
    runlog_to_jsonable,
)
from tests.conftest import write_legacy_checkpoint

N_WORKERS = 4
N_STEPS = 12
KILL_AT = 6


def _mlp_workers(n=N_WORKERS, lr=0.1, n_samples=64):
    rng = np.random.default_rng(0)
    ds = ArrayDataset(rng.normal(size=(n_samples, 8)), rng.integers(0, 3, n_samples))
    part = selsync_partition(n_samples, n, rng=1)
    loaders = BatchLoader.for_workers(ds, part, batch_size=8, seed=2)
    return build_worker_group(
        n,
        lambda: build_model("mlp", in_features=8, n_classes=3, rng=5),
        lambda m: SGD(m, lr=lr, momentum=0.9),
        loaders,
    )


TRAINERS = {
    "bsp": lambda w, c: BSPTrainer(w, c),
    "selsync": lambda w, c: SelSyncTrainer(w, c, delta=0.1),
    "fedavg": lambda w, c: FedAvgTrainer(w, c, c_fraction=0.75),
    "easgd": lambda w, c: EASGDTrainer(w, c, rho=0.1, tau=3),
    "localsgd": lambda w, c: LocalSGDTrainer(w, c),
}


def _build(kind, **cluster_kw):
    workers = _mlp_workers()
    cluster = ClusterConfig(
        n_workers=N_WORKERS, comm_bytes=1e6, flops_per_sample=1e6, **cluster_kw
    )
    return workers, TRAINERS[kind](workers, cluster)


def _fingerprint(workers, res):
    return (
        [w.get_params() for w in workers],
        [r.loss for r in res.log.iterations],
        [r.sim_time for r in res.log.iterations],
        [(f.step, f.worker, f.kind) for f in res.log.faults],
    )


def _assert_same(a, b):
    for pa, pb in zip(a[0], b[0]):
        np.testing.assert_array_equal(pa, pb)
    assert a[1] == b[1]  # losses, bitwise (floats compared exactly)
    assert a[2] == b[2]  # per-step sim times: the jitter RNG stream matches
    assert a[3] == b[3]  # fault records


class TestBitwiseResume:
    @pytest.mark.parametrize("kind", sorted(TRAINERS))
    def test_kill_and_resume_is_bitwise_identical(self, kind, tmp_path):
        ck = str(tmp_path / "ck.npz")
        workers_a, trainer_a = _build(kind)
        res_a = trainer_a.run(TrainConfig(n_steps=N_STEPS, eval_fn=None))

        # Same full config, but checkpoint at KILL_AT and die right after.
        workers_b, trainer_b = _build(kind)
        trainer_b.run(
            TrainConfig(
                n_steps=N_STEPS,
                eval_fn=None,
                checkpoint_every=KILL_AT,
                checkpoint_path=ck,
                stop_after=KILL_AT,
            )
        )

        workers_c, trainer_c = _build(kind)
        res_c = trainer_c.run(
            TrainConfig(n_steps=N_STEPS, eval_fn=None, resume_from=ck)
        )
        assert res_c.steps == N_STEPS
        _assert_same(_fingerprint(workers_a, res_a), _fingerprint(workers_c, res_c))

    @pytest.mark.parametrize("kill", [3, 14, 29])
    def test_ssp_kill_and_resume_is_bitwise_identical(self, kill, tmp_path):
        """SSP's checkpoint is its event heap and counters — no gradient is
        in flight between two landed pushes. Killed at a push inside a crash
        window, with a straggler holding the others at the staleness bound,
        the resumed run writes the uninterrupted run's RunLog, trace, server
        and replicas."""
        ck = str(tmp_path / "ck.npz")

        def run(tag, **leg):
            workers = _mlp_workers()
            cluster = ClusterConfig(
                n_workers=N_WORKERS, comm_bytes=1e6, flops_per_sample=1e6,
                fault_spec="crash:w1@2-5,straggle:w0x4@1+,drop:p=0.2",
                min_quorum=1,
            )
            trainer = SSPTrainer(workers, cluster, staleness=1)
            tracer = Tracer(path=tmp_path / f"{tag}.jsonl", name="ssp")
            res = trainer.run(TrainConfig(
                n_steps=N_STEPS, eval_every=2, tracer=tracer,
                eval_fn=lambda m: float(m.get_flat_params().sum()),
                checkpoint_every=kill,
                checkpoint_path=leg.pop("path", ck), **leg,
            ))
            tracer.close()
            lines = (tmp_path / f"{tag}.jsonl").read_text().splitlines(True)
            return trainer, res, lines

        whole, res_a, trace_a = run("whole", path=str(tmp_path / "whole.npz"))
        _, _, trace_b = run("killed", stop_after=kill)
        resumed, res_c, trace_c = run("resumed", resume_from=ck)
        assert res_c.steps == res_a.steps == N_STEPS
        assert res_c.sim_time == res_a.sim_time
        assert RunLogLines().text(res_c.log) == RunLogLines().text(res_a.log)
        # Every event of a push is at that push's step, so the killed run's
        # lines and the resumed run's concatenate to the uninterrupted trace.
        assert trace_a[1:] == trace_b[1:] + trace_c[1:]
        np.testing.assert_array_equal(resumed.server.pull(), whole.server.pull())
        for wa, wc in zip(whole.workers, resumed.workers):
            np.testing.assert_array_equal(wa.get_params(), wc.get_params())

    def test_faulted_run_resumes_identically(self, tmp_path):
        """Fault draws are keyed on (seed, worker, step), so the injector
        needs no checkpoint state of its own — the resumed half replays the
        exact same crash/straggle/drop sequence.

        Both runs checkpoint identically: a rejoining worker restores from
        the latest checkpoint when one exists, so checkpoint cadence is part
        of the trajectory and must match between the two runs.
        """
        ck_a = str(tmp_path / "a.npz")
        ck = str(tmp_path / "ck.npz")
        spec = dict(fault_spec="crash:w2@3-8,straggle:w0x3@2+,drop:p=0.2",
                    min_quorum=2)
        workers_a, trainer_a = _build("selsync", **spec)
        res_a = trainer_a.run(
            TrainConfig(n_steps=N_STEPS, eval_fn=None,
                        checkpoint_every=KILL_AT, checkpoint_path=ck_a)
        )

        workers_b, trainer_b = _build("selsync", **spec)
        trainer_b.run(
            TrainConfig(
                n_steps=N_STEPS,
                eval_fn=None,
                checkpoint_every=KILL_AT,
                checkpoint_path=ck,
                stop_after=KILL_AT,
            )
        )

        workers_c, trainer_c = _build("selsync", **spec)
        res_c = trainer_c.run(
            TrainConfig(n_steps=N_STEPS, eval_fn=None, resume_from=ck,
                        checkpoint_every=KILL_AT, checkpoint_path=ck)
        )
        _assert_same(_fingerprint(workers_a, res_a), _fingerprint(workers_c, res_c))
        assert res_a.log.n_faults > 0  # the plan actually fired

    def test_resumed_log_contains_pre_kill_records(self, tmp_path):
        ck = str(tmp_path / "ck.npz")
        workers, trainer = _build("bsp")
        trainer.run(
            TrainConfig(
                n_steps=N_STEPS, eval_fn=None,
                checkpoint_every=KILL_AT, checkpoint_path=ck, stop_after=KILL_AT,
            )
        )
        workers2, trainer2 = _build("bsp")
        res = trainer2.run(TrainConfig(n_steps=N_STEPS, eval_fn=None, resume_from=ck))
        # One contiguous history: steps 0..N-1 once each, no gap or overlap.
        assert [r.step for r in res.log.iterations] == list(range(N_STEPS))


class TestFactsFromTheLog:
    """A checkpoint stores each fact once: the run's clock, the patience
    state and the round count are folds over its log, not header fields."""

    # rule -> (trainer, step of the best evaluation, kill step, stopping step):
    # evaluations every 2 iterations (every 8 landed pushes for SSP), the
    # metric peaks at the best step and every later one is stale, so with
    # patience 3 the run stops at the third evaluation after it. The kill
    # falls after the first stale one, inside the streak.
    STREAKS = {
        "bsp": (TRAINERS["bsp"], 7, 10, 13),
        "selsync": (TRAINERS["selsync"], 7, 10, 13),
        "ssp": (lambda w, c: SSPTrainer(w, c, staleness=3), 31, 40, 55),
    }

    @pytest.mark.parametrize("kind", sorted(STREAKS))
    def test_a_run_killed_inside_a_patience_streak_stops_where_the_whole_run_does(
        self, kind, tmp_path
    ):
        make, peak, kill, stop = self.STREAKS[kind]
        ck = str(tmp_path / "ck.npz")

        def run(**leg):
            workers = _mlp_workers()
            cluster = ClusterConfig(
                n_workers=N_WORKERS, comm_bytes=1e6, flops_per_sample=1e6
            )
            at = {}
            res = make(workers, cluster).run(TrainConfig(
                n_steps=24, eval_every=2, patience=3,
                step_monitor=lambda trainer, i: at.update(step=i),
                eval_fn=lambda model: -abs(at["step"] - peak),
                checkpoint_every=kill, checkpoint_path=leg.pop("path", ck), **leg,
            ))
            return RunLogLines().text(res.log), res.log.iterations[-1].step

        whole = run(path=str(tmp_path / "whole.npz"))
        assert whole[1] == stop  # patience, not the horizon, ended the run
        run(stop_after=kill)
        assert run(resume_from=ck) == whole

    def test_the_tree_holds_no_fact_twice(self, tmp_path):
        """The top level is the step and the log beside the trainer state,
        and no section keeps a copy of a logged fact or a value nothing
        reads back."""
        stored_elsewhere = {
            "clock", "best", "stale_evals", "n_syncs", "shard_bounds",
            "world_size", "seed", "_sync_ewma", "_last_delta", "_last_time",
        }

        def keys(node):
            if isinstance(node, dict):
                for k, v in node.items():
                    yield k
                    yield from keys(v)
            elif isinstance(node, list):
                for v in node:
                    yield from keys(v)

        for kind, make, cluster_kw in (
            ("selsync", TRAINERS["selsync"],
             dict(ps_shards=3, fault_spec="crash:w1@2-5", min_quorum=1)),
            ("ssp", lambda w, c: SSPTrainer(w, c, staleness=1),
             dict(fault_spec="crash:w1@2-5", min_quorum=1)),
        ):
            workers = _mlp_workers()
            cluster = ClusterConfig(
                n_workers=N_WORKERS, comm_bytes=1e6, flops_per_sample=1e6, **cluster_kw
            )
            ck = str(tmp_path / f"{kind}.npz")
            make(workers, cluster).run(TrainConfig(
                n_steps=N_STEPS, eval_every=3, eval_fn=lambda m: 0.0,
                checkpoint_every=KILL_AT, checkpoint_path=ck,
            ))
            tree = load_checkpoint(ck)
            assert list(tree) == ["version", "trainer", "step", "state", "log"]
            assert stored_elsewhere.isdisjoint(keys(tree["state"])), kind


def _run_artifacts(build, tmp_path, tag, n_steps, every, **leg):
    """One traced, checkpointing run of ``build()``'s trainer: RunLog text,
    trace lines after the header, replica bytes, decoded checkpoint."""
    workers, trainer = build()
    tracer = Tracer(path=tmp_path / f"{tag}.jsonl", name="resume")
    ck = leg.get("resume_from") or str(tmp_path / f"{tag}.npz")
    res = trainer.run(
        TrainConfig(n_steps=n_steps, eval_fn=None, tracer=tracer,
                    checkpoint_every=every, checkpoint_path=ck, **leg)
    )
    tracer.close()
    return {
        "runlog": RunLogLines().text(res.log),
        "trace": (tmp_path / f"{tag}.jsonl").read_text().splitlines()[1:],
        "params": [w.get_params().tobytes() for w in workers],
        "checkpoint": load_checkpoint(ck),
    }


def _whole_and_resumed(build, tmp_path, n_steps=N_STEPS, kill=KILL_AT, every=3):
    """Artifacts of the uninterrupted run and of kill-at-``kill`` + resume
    (its trace = the killed leg's events, then the resumed leg's)."""
    whole = _run_artifacts(build, tmp_path, "whole", n_steps, every)
    killed = _run_artifacts(build, tmp_path, "killed", n_steps, every, stop_after=kill)
    resumed = _run_artifacts(
        build, tmp_path, "resumed", n_steps, every,
        resume_from=str(tmp_path / "killed.npz"),
    )
    resumed["trace"] = killed["trace"] + resumed["trace"]
    return whole, resumed


def _assert_artifacts_equal(whole, resumed):
    assert resumed["runlog"] == whole["runlog"]
    assert resumed["trace"] == whole["trace"]
    assert resumed["params"] == whole["params"]
    np.testing.assert_equal(resumed["checkpoint"], whole["checkpoint"])


class TestNothingRemembered:
    """Resume needs no state besides the plan and the checkpoint: partition
    transitions are read off the plan, codec and injector state is captured
    whole."""

    PARTITION_RULES = {
        "bsp": TRAINERS["bsp"],
        "selsync-pa": TRAINERS["selsync"],
        "selsync-ga": lambda w, c: SelSyncTrainer(w, c, delta=0.1, aggregation="grads"),
        "fedavg": TRAINERS["fedavg"],
        "easgd": TRAINERS["easgd"],
    }

    @pytest.mark.parametrize("kind", sorted(PARTITION_RULES))
    def test_partition_spanning_the_kill_is_recorded_once(self, kind, tmp_path):
        def build():
            workers = _mlp_workers()
            cluster = ClusterConfig(
                n_workers=N_WORKERS, comm_bytes=1e6, flops_per_sample=1e6,
                net_fault_spec="partition:{w0|w1,w2,w3}@4-9", min_quorum=2,
            )
            return workers, self.PARTITION_RULES[kind](workers, cluster)

        whole, resumed = _whole_and_resumed(build, tmp_path)  # killed at 6
        _assert_artifacts_equal(whole, resumed)
        log = runlog_from_jsonable(resumed["checkpoint"]["log"])
        assert [f.step for f in log.faults_of_kind("partition")] == [4]
        detected = [ln for ln in resumed["trace"] if '"partition_detected"' in ln]
        assert len(detected) == 1

    def test_injector_rng_survives_the_kill(self, tmp_path):
        def build():
            workers = _mlp_workers()
            cluster = ClusterConfig(
                n_workers=N_WORKERS, comm_bytes=1e6, flops_per_sample=1e6
            )
            injector = DataInjector(0.5, 0.5, N_WORKERS, sample_nbytes=64, rng=0)
            return workers, SelSyncTrainer(workers, cluster, delta=0.1, injector=injector)

        _assert_artifacts_equal(*_whole_and_resumed(build, tmp_path))

    @pytest.mark.parametrize("codec", COMPRESSORS.names())
    def test_codec_state_survives_the_kill(self, codec, tmp_path):
        """Every registered codec, so a new one is covered unedited: its
        buffers, warm starts, counters and RNG are all in the checkpoint."""
        def build():
            workers = _mlp_workers()
            cluster = ClusterConfig(
                n_workers=N_WORKERS, comm_bytes=1e6, flops_per_sample=1e6
            )
            seeded = "rng" in inspect.signature(COMPRESSORS.get(codec)).parameters
            compressor = build_compressor(codec, **({"rng": 0} if seeded else {}))
            return workers, BSPTrainer(workers, cluster, compressor=compressor)

        _assert_artifacts_equal(*_whole_and_resumed(build, tmp_path))

    def test_codec_hyperparameters_are_checked_on_load(self):
        saved = build_compressor("topk", ratio=0.01).state_dict()
        with pytest.raises(ValueError, match="ratio=0.01.*ratio=0.1"):
            build_compressor("topk", ratio=0.1).load_state_dict(saved)
        with pytest.raises(ValueError, match="DGCCompressor state mismatch"):
            build_compressor("dgc").load_state_dict(saved)


class TestCheckpointLayouts:
    @pytest.mark.parametrize("kind", ["bsp", "selsync"])
    def test_resume_from_a_parent_layout_file_is_bitwise_identical(self, kind, tmp_path):
        """Back-compat: the checkpoint re-packed as the parent commit laid it
        out (deflated, log inside ``__tree__``) resumes to the same bits."""
        ck, old = str(tmp_path / "ck.npz"), str(tmp_path / "old.npz")
        workers_a, trainer_a = _build(kind)
        res_a = trainer_a.run(TrainConfig(n_steps=N_STEPS, eval_fn=None))

        _, trainer_b = _build(kind)
        trainer_b.run(
            TrainConfig(n_steps=N_STEPS, eval_fn=None, checkpoint_every=KILL_AT,
                        checkpoint_path=ck, stop_after=KILL_AT)
        )
        write_legacy_checkpoint(load_checkpoint(ck), old)
        assert load_checkpoint(old)["log"] == load_checkpoint(ck)["log"]

        workers_c, trainer_c = _build(kind)
        res_c = trainer_c.run(TrainConfig(n_steps=N_STEPS, eval_fn=None, resume_from=old))
        assert res_c.steps == N_STEPS
        _assert_same(_fingerprint(workers_a, res_a), _fingerprint(workers_c, res_c))

    def test_second_checkpoint_encodes_only_new_records(self, tmp_path, monkeypatch):
        """The log section costs O(records since the last checkpoint): the
        second checkpoint must not re-encode the first one's records."""
        encoded = []
        real = serialization._iter_to_jsonable
        monkeypatch.setattr(
            serialization, "_iter_to_jsonable",
            lambda r: encoded.append(r.step) or real(r),
        )
        _, trainer = _build("selsync")
        res = trainer.run(
            TrainConfig(n_steps=N_STEPS, eval_fn=None, checkpoint_every=KILL_AT,
                        checkpoint_path=str(tmp_path / "ck.npz"))
        )
        assert encoded == list(range(N_STEPS))  # each step once, over two checkpoints
        monkeypatch.undo()
        ck = load_checkpoint(tmp_path / "ck.npz")
        assert ck["step"] == N_STEPS and ck["log"] == runlog_to_jsonable(res.log)

    def test_recovery_rewrite_keeps_everything_but_the_state(self, tmp_path):
        """``RecoverySupervisor``'s load -> replace state -> save round trip:
        the step and the log (and with it the clock and the patience state
        folded from it) come back record for record; only the trainer state
        is the new one."""
        from repro.core.recovery import _rewrite_checkpoint
        from repro.core.trainer import patience_step

        ck = str(tmp_path / "ck.npz")
        workers, trainer = _build("selsync", fault_spec="drop:p=0.3", min_quorum=2)
        metrics = iter([0.5, 0.4, 0.4])
        cfg = TrainConfig(n_steps=9, eval_every=3, eval_fn=lambda model: next(metrics),
                          checkpoint_every=9, checkpoint_path=ck)
        trainer.run(cfg)
        before = load_checkpoint(ck)
        best, stale_evals = None, 0
        for rec in before["log"]:
            if rec["kind"] == "eval":
                best, stale_evals = patience_step(cfg, best, stale_evals, rec["metric"])
        assert (before["step"], best, stale_evals) == (9, 0.5, 2)
        assert any(r["kind"] == "fault" for r in before["log"])

        trainer.resync_replicas()
        _rewrite_checkpoint(cfg, trainer)
        after = load_checkpoint(ck)
        assert list(after) == list(before)
        for key in ("version", "trainer", "step", "log"):
            assert after[key] == before[key], key
        for w, saved in zip(workers, after["state"]["workers"]):
            np.testing.assert_array_equal(saved["params"], w.get_params())
        assert not np.array_equal(
            after["state"]["workers"][1]["params"], before["state"]["workers"][1]["params"]
        )


def _arrays(tree):
    """Every ndarray leaf of a checkpoint tree, in traversal order."""
    if isinstance(tree, np.ndarray):
        return [tree]
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, (list, tuple)):
        return [a for v in tree for a in _arrays(v)]
    return []


def _record_loads(monkeypatch):
    """Every ``load_checkpoint(path, subtree)`` the trainers make."""
    import repro.core.trainer as trainer_module

    calls = []

    def recording(path, subtree=()):
        calls.append((str(path), tuple(subtree)))
        return load_checkpoint(path, subtree=subtree)

    monkeypatch.setattr(trainer_module, "load_checkpoint", recording)
    return calls


class TestRejoinFromCheckpoint:
    def test_rejoining_worker_restores_from_latest_checkpoint(self, tmp_path, monkeypatch):
        """With periodic checkpoints, a crashed worker rejoins from the
        latest checkpoint *file* (from_checkpoint=1) instead of a peer-mean
        reseed, and reads only its own rank's branches of it."""
        ck = str(tmp_path / "ck.npz")
        calls = _record_loads(monkeypatch)
        workers, trainer = _build(
            "selsync", fault_spec="crash:w2@4-8", min_quorum=2
        )
        res = trainer.run(
            TrainConfig(
                n_steps=N_STEPS, eval_fn=None,
                checkpoint_every=2, checkpoint_path=ck,
            )
        )
        rejoins = res.log.faults_of_kind("rejoin")
        assert [(f.step, f.worker) for f in rejoins] == [(8, 2)]
        assert rejoins[0].detail["from_checkpoint"] == 1
        assert trainer._latest_checkpoint == ck
        assert calls == [
            (ck, ("state", "workers", 2)),
            (ck, ("state", "extra", "trackers", 2)),
        ]

    def test_rejoin_after_a_resume_reads_resume_from_until_the_next_write(
        self, tmp_path, monkeypatch
    ):
        first, second = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
        kw = dict(fault_spec="crash:w2@4-8", min_quorum=2)
        _build("selsync", **kw)[1].run(
            TrainConfig(n_steps=N_STEPS, eval_fn=None, checkpoint_every=3,
                        checkpoint_path=first, stop_after=6)
        )
        for every, rejoin_reads in ((5, first), (1, second)):
            calls = _record_loads(monkeypatch)
            workers, trainer = _build("selsync", **kw)
            res = trainer.run(
                TrainConfig(n_steps=N_STEPS, eval_fn=None, checkpoint_every=every,
                            checkpoint_path=second, resume_from=first)
            )
            assert [f.detail["from_checkpoint"] for f in res.log.faults_of_kind("rejoin")] == [1]
            assert calls == [
                (first, ()),
                (rejoin_reads, ("state", "workers", 2)),
                (rejoin_reads, ("state", "extra", "trackers", 2)),
            ]
            assert trainer._latest_checkpoint == second

    def test_checkpoint_file_deleted_before_the_rejoin_is_a_typed_error(self, tmp_path):
        """The file is the only copy: losing it must not degrade silently to
        a peer reseed (from_checkpoint=0), nor surface as an AttributeError."""
        import os
        import re

        ck = str(tmp_path / "ck.npz")
        workers, trainer = _build("selsync", fault_spec="crash:w2@4-8", min_quorum=2)

        def lose_the_file(t, i):
            if i == 7:
                serialization.settle_checkpoints()  # step 6's publish may be in flight
                os.remove(ck)

        cfg = TrainConfig(
            n_steps=N_STEPS, eval_fn=None, checkpoint_every=3, checkpoint_path=ck,
            step_monitor=lose_the_file,
        )
        with pytest.raises(FileNotFoundError, match=re.escape(ck)):
            trainer.run(cfg)

    def test_rejoin_without_checkpoint_reseeds_from_peers(self):
        workers, trainer = _build(
            "selsync", fault_spec="crash:w2@4-8", min_quorum=2
        )
        res = trainer.run(TrainConfig(n_steps=N_STEPS, eval_fn=None))
        rejoins = res.log.faults_of_kind("rejoin")
        assert [(f.step, f.worker) for f in rejoins] == [(8, 2)]
        assert rejoins[0].detail["from_checkpoint"] == 0


class TestStreamedCheckpoint:
    """A checkpoint is written from read-only views of the live arenas; the
    default ``state_dict()`` stays a private snapshot."""

    def _stepped(self, kind="selsync"):
        workers, trainer = _build(kind)
        trainer.run(TrainConfig(n_steps=3, eval_fn=None))
        return workers, trainer

    def test_default_state_dict_is_a_snapshot_and_copy_false_aliases_the_arenas(self):
        workers, trainer = self._stepped()
        snap, live = trainer.state_dict(), trainer.state_dict(copy=False)
        frozen = [a.copy() for a in _arrays(snap)]
        w0 = workers[0]
        assert np.shares_memory(live["workers"][0]["params"], w0.model.get_flat_params())
        assert np.shares_memory(
            live["workers"][0]["optimizer"]["flat_velocity"], w0.optimizer._flat_velocity
        )
        assert np.shares_memory(live["server"]["params"], trainer.server._params)
        for ws in live["workers"]:
            for a in (ws["params"], ws["optimizer"]["flat_velocity"]):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 0.0
        assert not live["server"]["params"].flags.writeable
        assert w0.optimizer._flat_velocity.flags.writeable  # only the view is locked
        trainer.run(TrainConfig(n_steps=6, eval_fn=None))
        for a, b in zip(_arrays(snap), frozen):
            np.testing.assert_array_equal(a, b)
        assert not np.array_equal(snap["workers"][0]["params"], w0.get_params())
        np.testing.assert_array_equal(live["workers"][0]["params"], w0.get_params())

    @pytest.mark.parametrize("kind", ["selsync", "bsp"])
    def test_live_tree_and_snapshot_tree_write_identical_members(self, tmp_path, kind):
        workers, trainer = self._stepped(kind)
        import zipfile

        a, b = tmp_path / "snap.npz", tmp_path / "live.npz"
        serialization.save_checkpoint({"state": trainer.state_dict()}, a)
        serialization.save_checkpoint({"state": trainer.state_dict(copy=False)}, b)
        serialization.settle_checkpoints()
        # Member by member: the zip directory also holds each write's time.
        with zipfile.ZipFile(a) as za, zipfile.ZipFile(b) as zb:
            assert za.namelist() == zb.namelist()
            for name in za.namelist():
                assert za.read(name) == zb.read(name), name
                assert za.getinfo(name).compress_type == zipfile.ZIP_STORED

    @pytest.mark.parametrize("legacy", [False, True])
    def test_subtree_load_opens_only_the_members_it_references(
        self, tmp_path, monkeypatch, legacy
    ):
        ck = tmp_path / "ck.npz"
        workers, trainer = _build("selsync")
        trainer.run(TrainConfig(n_steps=4, eval_fn=None,
                                checkpoint_every=4, checkpoint_path=str(ck)))
        whole = load_checkpoint(ck)
        if legacy:
            write_legacy_checkpoint(whole, ck)
        with np.load(ck) as data:
            npz_type, members = type(data), set(data.files)
        opened = []
        getitem = npz_type.__getitem__
        monkeypatch.setattr(
            npz_type, "__getitem__", lambda self, k: (opened.append(k), getitem(self, k))[1]
        )
        rank = load_checkpoint(ck, subtree=("state", "workers", 1))
        want = whole["state"]["workers"][1]
        assert len(opened) == len(set(opened)) == 1 + len(_arrays(want))
        assert "__tree__" in opened and len(opened) < len(members) / 2
        assert len(_arrays(rank)) == len(_arrays(want)) > 0
        for got, ref in zip(_arrays(rank), _arrays(want)):
            assert got.tobytes() == ref.tobytes()
        opened.clear()
        tracker = load_checkpoint(ck, subtree=("state", "extra", "trackers", 1))
        assert tracker == whole["state"]["extra"]["trackers"][1]
        assert opened == ["__tree__"]
        opened.clear()
        load_checkpoint(ck)
        assert set(opened) == members and len(opened) == len(members)

    @pytest.mark.parametrize("make_opt", [
        lambda m: SGD(m, lr=0.1, momentum=0.9),
        lambda m: SGD(m, lr=0.1, momentum=0.9, nesterov=True, weight_decay=1e-3),
        lambda m: Adam(m, lr=0.01),
    ], ids=["sgd", "sgd-nesterov-wd", "adam"])
    def test_optimizer_state_dict_copy_roundtrip(self, make_opt):
        def stepped(model, opt, n):
            rng = np.random.default_rng(3)
            for _ in range(n):
                model.set_flat_grads(rng.normal(size=model.n_parameters))
                opt.step()

        model = build_model("mlp", in_features=8, n_classes=3, rng=5)
        opt = make_opt(model)
        stepped(model, opt, 2)
        snap, live = opt.state_dict(), opt.state_dict(copy=False)
        assert [a.tobytes() for a in _arrays(snap)] == [a.tobytes() for a in _arrays(live)]
        assert _arrays(live) and not any(a.flags.writeable for a in _arrays(live))
        assert all(a.flags.writeable for a in _arrays(snap))

        twin_model = build_model("mlp", in_features=8, n_classes=3, rng=5)
        twin_model.set_flat_params(model.get_flat_params())
        twin = make_opt(twin_model)
        twin.load_state_dict(live)  # loading copies: the twin owns its slots
        stepped(model, opt, 2)
        assert [a.tobytes() for a in _arrays(live)] != [a.tobytes() for a in _arrays(snap)]
        stepped(twin_model, twin, 2)
        assert twin_model.get_flat_params().tobytes() == model.get_flat_params().tobytes()
        assert [a.tobytes() for a in _arrays(twin.state_dict())] == [
            a.tobytes() for a in _arrays(opt.state_dict())
        ]


class TestGuards:
    def test_wrong_trainer_rejected_on_resume(self, tmp_path):
        ck = str(tmp_path / "ck.npz")
        workers, trainer = _build("bsp")
        trainer.run(
            TrainConfig(n_steps=4, eval_fn=None,
                        checkpoint_every=2, checkpoint_path=ck, stop_after=2)
        )
        workers2, trainer2 = _build("selsync")
        with pytest.raises(ValueError, match="written by trainer"):
            trainer2.run(TrainConfig(n_steps=4, eval_fn=None, resume_from=ck))

    def test_checkpoint_every_requires_path(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            TrainConfig(n_steps=4, checkpoint_every=2)
