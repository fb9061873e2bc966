"""A transformer step and evaluation fault in no array, whatever ran before.

A page fault here is glibc handing back pages it had returned to the kernel:
an array above the mmap threshold, or heap-top memory that a free let it
trim. Both thresholds follow the process's allocation history, so a step
that allocates and frees large arrays is fault-free in one history and not
in another: before every layer's forward activations, ``dx`` and scratch
were pooled, the same step took 0 faults in a fresh interpreter, 672 after
the e2e benchmark's warm-up run and set-ups, and 1,872 with the warm-up
model still referenced (EXPERIMENTS.md, "Trainers freed at once, a step
with no heap churn"). Now a step checks its arrays out of the pool and an
evaluation deploys into two vectors the trainer made, so neither allocates
anything large. The counts are read in a child interpreter with a fresh
history under three hash seeds, which reorder it, and after the
benchmark's history with the warm-up trainer dropped or kept alive.
"""
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import repro

CHILD = """
import json, resource, sys
from repro.core import TrainConfig
from repro.experiments.runner import MethodSpec, build_trainer
from repro.experiments.workloads import get_workload

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

def build():
    built = get_workload("transformer_wikitext").build(
        n_workers=4, n_steps=100, seed=0,
        cluster_kwargs={"executor": "serial", "ps_shards": 1})
    return built, build_trainer(
        MethodSpec("selsync", {"delta": 0.1, "aggregation": "params"}), built)

history = sys.argv[1]
if history != "fresh":
    # The e2e benchmark's: a warm-up run of one block and its evaluation,
    # then set-ups built and dropped before the measured run is built.
    built, warm = build()
    warm.run(TrainConfig(n_steps=100, eval_every=50, eval_fn=built.eval_fn,
                         stop_after=50))
    if history == "dropped":
        del built, warm
    for _ in range(15):
        build()

built, trainer = build()
cfg = TrainConfig(n_steps=100, eval_fn=built.eval_fn)
out = {"before_eval": [], "evals": [], "after_eval": []}
for i in range(12):
    if i in (6, 9):
        f = faults(); trainer.evaluate(cfg); out["evals"].append(faults() - f)
    f = faults(); trainer.step(i)
    out["before_eval" if i < 6 else "after_eval"].append(faults() - f)
print(json.dumps(out))
"""

# One 160 KiB (320, 64) array is 40 pages. A page or two now and then is
# the interpreter's own heap growing (the run log), not an array.
ARRAY_PAGES = 8


def run_child(history: str, hash_seed: str = "0") -> dict:
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(repro.__file__).parents[1]),
        "PYTHONHASHSEED": hash_seed,
        "OPENBLAS_NUM_THREADS": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, history], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def assert_no_array_faults(got: dict) -> None:
    # The first step builds the pool; from the second on, nothing is new.
    steps = got["before_eval"][1:] + got["after_eval"]
    assert max(steps) < ARRAY_PAGES and statistics.median(steps) == 0, got
    assert max(got["evals"]) < ARRAY_PAGES, got


@pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
def test_transformer_steps_and_evaluations_take_no_array_faults(hash_seed):
    assert_no_array_faults(run_child("fresh", hash_seed))


@pytest.mark.parametrize("history", ["dropped", "kept"])
def test_no_array_faults_after_the_benchmarks_history(history):
    """After a warm-up run of one block, dropped or still referenced, and
    15 set-ups built and dropped, as ``benchmarks/e2e/run.py`` does."""
    assert_no_array_faults(run_child(history))
