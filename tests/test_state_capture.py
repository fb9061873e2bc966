"""State is captured, not listed (:mod:`repro.utils.state`).

* Every bookkeeping class in scope and every codec round-trips: driven with
  real calls, saved through ``save_checkpoint`` — or kept in memory, as the
  recovery supervisor keeps ``state_dict()`` — and loaded into a freshly
  built twin, it equals the original attribute by attribute, types
  included, and both go on identically.
* A hyper-parameter mismatch is a ``ValueError``; an attribute the routine
  cannot capture is a ``TypeError`` unless the class names it as structure.
* A rule's per-worker state follows its replica: a crash-rejoining BSP
  worker's codec comes back from the checkpoint its replica comes back
  from, and a reinstated worker's codec — or a worker's codec or Δ tracker
  back from a partition — starts fresh.
* SSP deploys the server's model; EASGD re-checks N·ρ ≤ 1 when membership
  grows; a checkpoint written in the previous layout is refused by version.
"""

import inspect
from collections import deque

import numpy as np
import pytest

from repro.cluster import ElasticContext
from repro.cluster.elastic import ElasticController, make_scale_policy
from repro.cluster.health import HealthTracker
from repro.cluster.worker import build_worker_group
from repro.comm.envelope import CommEnvelope, RetryPolicy
from repro.comm.network import make_link_faults
from repro.core import (
    BSPTrainer, ClusterConfig, EASGDTrainer, SelSyncTrainer, SSPTrainer, TrainConfig,
)
from repro.core.adaptive import FixedDelta, FractionOfMaxDelta, TargetLSSRDelta
from repro.core.compression import COMPRESSORS, TopKCompressor, build_compressor
from repro.core.grad_tracker import RelativeGradChange
from repro.data import ArrayDataset, BatchLoader, selsync_partition
from repro.data.injection import DataInjector
from repro.nn.models import build_model
from repro.optim import SGD
from repro.utils.ewma import Ewma
from repro.utils.serialization import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from repro.utils.spec import parse_spec
from repro.utils.state import Captured

N_WORKERS = 4


def _dataset(n=64):
    rng = np.random.default_rng(0)
    return ArrayDataset(rng.normal(size=(n, 8)), rng.integers(0, 3, n))


def _model():
    return build_model("mlp", in_features=8, n_classes=3, rng=5)


def _optimizer(model):
    return SGD(model, lr=0.1, momentum=0.9)


def _trainer(rule, **cluster_kw):
    """``rule(workers, cluster)`` over four MLP replicas, bound for elastic
    membership when the cluster asks for it."""
    ds = _dataset()
    part = selsync_partition(len(ds), N_WORKERS, rng=1)
    loaders = BatchLoader.for_workers(ds, part, batch_size=8, seed=2)
    workers = build_worker_group(N_WORKERS, _model, _optimizer, loaders)
    cluster = ClusterConfig(
        n_workers=N_WORKERS, comm_bytes=1e6, flops_per_sample=1e6, **cluster_kw
    )
    trainer = rule(workers, cluster)
    if trainer.elastic is not None:
        trainer.bind_elastic(ElasticContext(
            model_factory=_model, optimizer_factory=_optimizer, dataset=ds,
            batch_size=8, partition_fn=selsync_partition,
        ))
    return trainer


def _run(trainer, **cfg_kw):
    try:
        return trainer.run(TrainConfig(eval_fn=None, **cfg_kw))
    finally:
        trainer.executor.shutdown()


# -- every class in scope, driven by real calls -------------------------------


class _Rec:
    """The fields of an ``IterationRecord`` the elastic signals read."""

    sim_time, comm_time, synced = 1.0, 0.3, True


def _drive_health(tracker):
    tracker.observe(0, {0: 1.0, 1: 1.0, 2: 1.0, 3: 50.0})  # quarantines 3
    tracker.observe(1, {0: 1.0, 1: 1.2, 2: float("nan"), 3: 1.0})  # strikes 2


def _drive_elastic(ctl):
    ctl.attach(N_WORKERS)
    for step in range(25):
        ctl.observe_step(step, _Rec(), N_WORKERS, 8, [1.0, 1.2, 0.9, 3.0])
    ctl.actions_for_step(20, N_WORKERS)  # the goodput policy's own state
    ctl.on_join(21)  # a joiner's compute EWMA is NaN
    ctl.on_drain(1, 22)


def _drive_injector(injector):
    rng = np.random.default_rng(1)
    batches = [
        (rng.normal(size=(8, 4)), rng.integers(0, 3, 8)) for _ in range(N_WORKERS)
    ]
    for _ in range(3):
        injector.inject(batches)


def _codec(name):
    seeded = "rng" in inspect.signature(COMPRESSORS.get(name)).parameters
    return build_compressor(name, **({"rng": 0} if seeded else {}))


def _drive_codec(codec):
    rng = np.random.default_rng(3)
    for _ in range(3):
        codec.compress(rng.normal(size=64))


def _calls(method, *args):
    return lambda obj: [getattr(obj, method)(a) for a in args]


#: name -> (build a fresh instance, drive it with real calls)
CASES = {
    "ewma": (lambda: Ewma(alpha=0.3, window=3), _calls("update", 1.0, 4.0, 2.5, 3.0)),
    "grad_tracker": (
        lambda: RelativeGradChange(alpha=0.2, window=4),
        _calls("update", 1.0, 2.0, 1.5, 3.0),
    ),
    "fixed_delta": (lambda: FixedDelta(0.3), lambda policy: None),
    "fraction_of_max_delta": (lambda: FractionOfMaxDelta(0.5, warmup=3), lambda policy: None),
    "target_lssr_delta": (
        lambda: TargetLSSRDelta(0.7, initial_delta=0.1, gain=0.2, warmup=2),
        _calls("observe", True, False, False, True, False),
    ),
    "health": (
        lambda: HealthTracker(N_WORKERS, threshold=1.0, alpha=1.0, warmup=0, probation=7),
        _drive_health,
    ),
    "elastic": (
        lambda: ElasticController(
            parse_spec("scale:2..6", "member"), policy=make_scale_policy("goodput")
        ),
        _drive_elastic,
    ),
    "envelope": (
        lambda: CommEnvelope(
            make_link_faults(parse_spec("loss:p=0.4", "link"), N_WORKERS, seed=5),
            RetryPolicy(),
        ),
        lambda env: [env.send(0, 3, step, 0.01) for step in range(20)],
    ),
    "loader": (
        lambda: BatchLoader(_dataset(40), np.arange(40), batch_size=16, rng=2),
        lambda loader: [loader.next_batch() for _ in range(5)],
    ),
    "injector": (
        lambda: DataInjector(0.5, 0.5, N_WORKERS, sample_nbytes=8, rng=0), _drive_injector
    ),
    **{
        f"codec-{name}": (lambda name=name: _codec(name), _drive_codec)
        for name in COMPRESSORS.names()
    },
}


def _view(v):
    """A comparable picture of ``v``, types included: arrays by dtype, shape
    and bytes, a generator by its state, NaN as itself, an object by its
    ``vars`` less structure and method wrappers."""
    if isinstance(v, np.ndarray):
        return "ndarray", v.dtype.str, v.shape, v.tobytes()
    if isinstance(v, np.random.Generator):
        return "generator", repr(v.bit_generator.state)
    if isinstance(v, float) and np.isnan(v):
        return "nan"
    if isinstance(v, deque):
        return "deque", v.maxlen, [_view(x) for x in v]
    if isinstance(v, (list, tuple)):
        return type(v).__name__, [_view(x) for x in v]
    if isinstance(v, dict):
        return "dict", [(type(k).__name__, k, _view(x)) for k, x in v.items()]
    if hasattr(v, "__dict__"):
        skip = getattr(type(v), "_structure", ())
        return type(v).__name__, {
            k: _view(x) for k, x in vars(v).items() if k not in skip and not callable(x)
        }
    return type(v).__name__, v


@pytest.mark.parametrize("medium", ["file", "memory"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_fresh_twin_loaded_from_the_state_equals_the_original(case, medium, tmp_path):
    build, drive = CASES[case]
    original = build()
    drive(original)
    state = original.state_dict()
    if medium == "file":
        save_checkpoint({"state": state}, tmp_path / "ck.npz")
        state = load_checkpoint(tmp_path / "ck.npz", ("state",))
    twin = build()
    twin.load_state_dict(state)
    assert _view(twin) == _view(original)
    # The twin owns what it loaded: the original moving on leaves it be,
    # and driven alike the two stay equal.
    loaded = _view(twin)
    drive(original)
    assert _view(twin) == loaded
    drive(twin)
    assert _view(twin) == _view(original)


def test_a_deque_keeps_its_maxlen_and_int_keys_come_back_ints(tmp_path):
    health, ewma = CASES["health"][0](), Ewma(window=3)
    _drive_health(health)
    for x in range(5):
        ewma.update(x)
    state = {"health": health.state_dict(), "ewma": ewma.state_dict()}
    assert list(state["health"]["quarantined_until"]) == ["3"]  # JSON keys
    save_checkpoint(state, tmp_path / "ck.npz")
    loaded = load_checkpoint(tmp_path / "ck.npz")
    health, ewma = CASES["health"][0](), Ewma(window=3)
    health.load_state_dict(loaded["health"])
    ewma.load_state_dict(loaded["ewma"])
    assert health.quarantined_until == {3: 7}
    assert isinstance(ewma._buf, deque) and ewma._buf.maxlen == 3
    assert list(ewma._buf) == [2.0, 3.0, 4.0]


# -- refusals -----------------------------------------------------------------


@pytest.mark.parametrize(
    "saved, live, match",
    [
        (lambda: Ewma(alpha=0.3), lambda: Ewma(alpha=0.2),
         r"Ewma state mismatch: checkpoint has alpha=0\.3, this instance has alpha=0\.2"),
        (lambda: Ewma(window=25), lambda: Ewma(window=5),
         r"checkpoint has window=25, this instance has window=5"),
        (lambda: TopKCompressor(ratio=0.01), lambda: TopKCompressor(ratio=0.1),
         r"checkpoint has ratio=0\.01, this instance has ratio=0\.1"),
        (lambda: BatchLoader(_dataset(), np.arange(64), 8),
         lambda: BatchLoader(_dataset(), np.arange(32), 8),
         r"checkpoint has order of shape \(64,\), this instance has \(32,\)"),
    ],
    ids=["ewma-alpha", "ewma-window", "codec-ratio", "loader-order-length"],
)
def test_a_hyper_parameter_mismatch_is_a_value_error(saved, live, match):
    with pytest.raises(ValueError, match=match):
        live().load_state_dict(saved().state_dict())


class _Probe(Captured):
    _structure = ("plan",)

    def __init__(self):
        self.plan = object()  # built from the constructor's arguments
        self._n = 0

    def step(self):
        self._n += 1


def test_an_attribute_it_cannot_capture_is_a_type_error():
    loader = BatchLoader(_dataset(), np.arange(64), 8)
    loader.sampler = object()
    with pytest.raises(TypeError, match=r"BatchLoader\.sampler: cannot checkpoint"):
        loader.state_dict()

    class Unnamed(_Probe):
        _structure = ()

    with pytest.raises(TypeError, match=r"Unnamed\.plan: cannot checkpoint"):
        Unnamed().state_dict()


def test_structure_and_method_wrappers_are_not_state():
    probe = _Probe()
    step = probe.step
    probe.step = lambda: step()  # an instance-level wrapper, as a profiler installs
    probe.step()
    assert probe.state_dict() == {"_n": 1}
    twin = _Probe()
    twin.load_state_dict(probe.state_dict())
    assert twin._n == 1 and twin.plan is not probe.plan


# -- a rule's per-worker state follows its replica ----------------------------


def _bsp_topk(**cluster_kw):
    return _trainer(
        lambda w, c: BSPTrainer(w, c, compressor=TopKCompressor(ratio=0.1)), **cluster_kw
    )


def _codec_when(trainer, fault_kind):
    """worker -> its codec's state the moment a ``fault_kind`` record is made."""
    seen = {}
    record = trainer.fault_protocol.record

    def spy(step, worker, kind, **detail):
        record(step, worker, kind, **detail)
        if kind == fault_kind:
            seen[worker] = trainer._compressors[worker].state_dict()

    trainer.fault_protocol.record = spy
    return seen


def test_a_rejoining_bsp_worker_reads_its_codec_from_its_replicas_checkpoint(tmp_path):
    """Crash at 5-7, checkpoints after steps 3 and 7: worker 2 pushes at step
    4, after the file it rejoins from was written — its codec must come back
    as that file has it, like its replica, not as memory has it."""
    trainer = _bsp_topk(fault_spec="crash:w2@5-7", min_quorum=2)
    written = []
    write = trainer._write_checkpoint

    def spy_write(*args, **kwargs):
        write(*args, **kwargs)
        written.append([c.state_dict() for c in trainer._compressors])

    trainer._write_checkpoint = spy_write
    seen = _codec_when(trainer, "rejoin")
    _run(trainer, n_steps=10, checkpoint_every=4, checkpoint_path=str(tmp_path / "ck.npz"))
    assert list(seen) == [2] and len(written) == 2
    assert written[0][2]["_residual"].size > 0
    np.testing.assert_equal(seen[2], written[0][2])


def test_a_reinstated_bsp_worker_restarts_its_codec():
    """NaN bursts at steps 4-5 quarantine worker 2 for three steps; it comes
    back on the consensus replica, so its codec starts as a fresh clone, not
    with the residual it built before the quarantine."""
    trainer = _bsp_topk(
        fault_spec="corrupt:w2@4-6", health=True, probation=3, min_quorum=1
    )
    seen = _codec_when(trainer, "reinstate")
    _run(trainer, n_steps=12)
    assert 2 in seen
    np.testing.assert_equal(seen[2], TopKCompressor(ratio=0.1).state_dict())


@pytest.mark.parametrize(
    "rule, per_worker",
    [
        (lambda w, c: BSPTrainer(w, c, compressor=TopKCompressor(ratio=0.1)), "_compressors"),
        (lambda w, c: SelSyncTrainer(w, c, delta=0.1), "trackers"),
    ],
    ids=["bsp+topk", "selsync-pa"],
)
def test_a_worker_back_from_a_partition_restarts_its_rule_state(rule, per_worker):
    """Worker 0 is cut off at steps 4-7 and re-enters at step 8 on the
    majority's consensus replica, so its codec / Δ tracker starts fresh,
    not with what it built before the cut."""
    trainer = _trainer(
        rule, net_fault_spec="partition:{w0|w1,w2,w3}@4-8", min_quorum=2
    )
    seen = {}
    record = trainer.fault_protocol.record

    def spy(step, worker, kind, **detail):
        record(step, worker, kind, **detail)
        if kind == "rejoin":
            seen[(step, worker)] = getattr(trainer, per_worker)[worker].state_dict()

    trainer.fault_protocol.record = spy
    _run(trainer, n_steps=10)
    per = getattr(trainer, per_worker)
    assert list(seen) == [(8, 0)]
    np.testing.assert_equal(seen[(8, 0)], per.factory().state_dict())


# -- SSP, EASGD, the layout version -------------------------------------------


def test_ssp_deploys_the_servers_model():
    trainer = _trainer(lambda w, c: SSPTrainer(w, c, staleness=2))
    _run(trainer, n_steps=6)
    server = trainer.server.pull()
    replicas = np.mean([w.get_params() for w in trainer.workers], axis=0)
    assert not np.array_equal(replicas, server)  # the replicas lag the PS
    np.testing.assert_array_equal(trainer.mean_params(), server)
    model, saved = trainer.deploy_model()
    np.testing.assert_array_equal(model.get_flat_params(), server)
    trainer.restore_model(saved)
    trainer.resync_replicas()
    for w in trainer.workers:
        np.testing.assert_array_equal(w.get_params(), server)


def test_easgd_rechecks_n_rho_when_membership_grows():
    trainer = _trainer(
        lambda w, c: EASGDTrainer(w, c, rho=0.2, tau=2), elastic_spec="join:+2@3"
    )
    with pytest.raises(ValueError, match=r"N\*rho = 1\.20 > 1 at world size 6"):
        _run(trainer, n_steps=6)
    assert len(trainer.workers) == 6


def test_a_checkpoint_in_the_previous_layout_is_refused(tmp_path):
    ck = tmp_path / "ck.npz"
    _run(_bsp_topk(), n_steps=3, checkpoint_every=3, checkpoint_path=str(ck))
    tree = load_checkpoint(ck)
    assert CHECKPOINT_VERSION == 4
    # 1: the layout before capture; 2: before the unread counters went;
    # 3: before the facts the log determines left the file.
    for old in (1, 2, 3):
        tree["version"] = old
        save_checkpoint(tree, ck)
        with pytest.raises(ValueError, match=rf"checkpoint version {old} != 4"):
            _run(_bsp_topk(), n_steps=6, resume_from=str(ck))
