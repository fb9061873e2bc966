"""End-to-end robustness regression: the PR's acceptance criteria.

Pins both sides of the headline claim on SmallVGG/8w SelSync under the
adversarial corrupt fault (``corrupt:p=0.1`` — every worker lies on the
wire with probability 0.1 per step):

* plain mean collapses to near-chance accuracy, while
* trimmed-mean(3) stays within 5% of the fault-free run's final accuracy.

The workload uses the SmallVGG model with a 10-class dataset override: at
test scale the stock 100-class synthetic CIFAR100 never leaves chance
accuracy for *any* aggregator, which would make the comparison
meaningless. The model, cluster size, protocol, and fault spec are exactly
the acceptance configuration.

Also pins the executor byte-identity contract for fault-free mean runs
(serial vs process), which is what makes supervised recovery
replay deterministic.
"""

import warnings

import numpy as np
import pytest

from repro.core import TrainConfig
from repro.experiments.runner import MethodSpec, build_trainer, run_method
from repro.experiments.workloads import build_workload

pytestmark = pytest.mark.slow


def _vgg_run(aggregator, fault_spec=None, trim_f=3):
    kw = {"aggregator": aggregator, "trim_f": trim_f}
    if fault_spec:
        kw.update({"fault_spec": fault_spec, "min_quorum": 2})
    built = build_workload(
        "vgg_cifar100",
        n_workers=8,
        seed=0,
        data_scale=0.15,
        partition_scheme="seldp",
        cluster_kwargs=kw,
        dataset_overrides={"n_classes": 10},
    )
    res = run_method(
        MethodSpec("selsync", {"delta": 0.3}), built, n_steps=120,
        eval_every=120,
    )
    return res.log.evals[-1].metric, res


@pytest.fixture(scope="module")
def clean_mean():
    return _vgg_run("mean")


@pytest.fixture(scope="module")
def corrupt_mean():
    # The Byzantine pushes blow the averaged model up to inf/nan within ~10
    # steps, so the conv GEMMs overflow from then on. That divergence is the
    # point of the run (asserted below), not a kernel defect: silence the
    # RuntimeWarnings here. A filter rather than ``np.errstate`` because it
    # is process-wide, so forked executors are covered too.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return _vgg_run("mean", fault_spec="corrupt:p=0.1")


@pytest.fixture(scope="module")
def corrupt_trimmed():
    return _vgg_run("trimmed_mean", fault_spec="corrupt:p=0.1", trim_f=3)


def test_fault_free_baseline_learns(clean_mean):
    acc, _ = clean_mean
    # Measured 0.9444 at this exact configuration; anything above 0.85
    # means the baseline trains properly.
    assert acc >= 0.85


def test_plain_mean_demonstrably_degrades(clean_mean, corrupt_mean):
    clean_acc, _ = clean_mean
    corrupt_acc, res = corrupt_mean
    # Measured 0.0778 (chance is 0.10 for 10 classes): the Byzantine
    # pushes destroy the model. Pin a generous but unambiguous gap.
    assert corrupt_acc <= clean_acc - 0.30
    # ... by overflowing: the loss is non-finite from early on to the end.
    losses = [r.loss for r in res.log.iterations]
    assert np.isfinite(losses[0]) and not np.isfinite(losses[-1])
    # The degradation happened *despite* the faults being visible.
    assert any(f.kind == "corrupt" for f in res.log.faults)


def test_trimmed_mean_holds_fault_free_accuracy(clean_mean, corrupt_trimmed):
    clean_acc, _ = clean_mean
    trimmed_acc, res = corrupt_trimmed
    # The acceptance bar: within 5% of the fault-free final accuracy
    # under the same adversarial storm that collapses the plain mean.
    assert trimmed_acc >= clean_acc - 0.05
    assert any(f.kind == "corrupt" for f in res.log.faults)
    assert np.isfinite(res.log.iterations[-1].loss)


def test_fault_free_mean_byte_identical_across_executors():
    finals = {}
    evals = {}
    for backend in ("serial", "process"):
        built = build_workload(
            "resnet_cifar10",
            n_workers=4,
            seed=0,
            data_scale=0.05,
            cluster_kwargs={"executor": backend},
        )
        trainer = build_trainer(MethodSpec("selsync", {"delta": 0.3}), built)
        try:
            res = trainer.run(TrainConfig(n_steps=12, eval_every=6))
            finals[backend] = np.asarray(trainer.mean_params()).tobytes()
            evals[backend] = [e.metric for e in res.log.evals]
        finally:
            trainer.executor.shutdown()
    assert finals["serial"] == finals["process"]
    assert evals["serial"] == evals["process"]
