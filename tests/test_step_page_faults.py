"""A fresh interpreter's transformer step and evaluation fault in no array.

The loss's two (320, 64) arrays and the embedding's one-hot were allocated
per replica step at 160 KiB, above glibc's initial 128 KiB mmap threshold,
and the perplexity evaluation built private 64-sequence workspaces: a step
took 512 minor faults until the first evaluation's ≈ 0.5 MB frees happened
to raise glibc's dynamic mmap and trim thresholds. The loss and the one-hot
are pooled now and evaluation runs in the training workspaces. The counts
are read in a fresh interpreter, since the thresholds follow the process's
allocation history, under three hash seeds, which reorder it. A process
with another history (the e2e benchmark's, after its warm-up run and
set-ups) can still re-fault a replica's saved activations when the heap
top is trimmed; EXPERIMENTS.md, "Perplexity in the training workspaces".
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
import json, resource
from repro.core import TrainConfig
from repro.experiments.runner import MethodSpec, build_trainer
from repro.experiments.workloads import get_workload

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

built = get_workload("transformer_wikitext").build(
    n_workers=4, n_steps=100, seed=0,
    cluster_kwargs={"executor": "serial", "ps_shards": 1})
trainer = build_trainer(
    MethodSpec("selsync", {"delta": 0.1, "aggregation": "params"}), built)
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


@pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
def test_transformer_steps_and_evaluations_take_no_array_faults(hash_seed):
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(repro.__file__).parents[1]),
        "PYTHONHASHSEED": hash_seed,
        "OPENBLAS_NUM_THREADS": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    # The first step builds the pool; from the second on, nothing is new.
    steps = got["before_eval"][1:] + got["after_eval"]
    assert max(steps) < ARRAY_PAGES and statistics.median(steps) == 0, got
    assert max(got["evals"]) < ARRAY_PAGES, got
