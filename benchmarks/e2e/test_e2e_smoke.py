"""Smoke test of the e2e benchmark (outside tier-1 ``testpaths``)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py

Validates ``BENCHMARK.json`` against the driver's schema and against
``catalog.py``, runs ``run.py --quick`` end to end, and pins the verdict
rules of ``compare.py``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import catalog  # noqa: E402
import compare  # noqa: E402
from workloads import SPECS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_generated_from_the_catalog():
    assert BENCH == catalog.benchmark_json(SPECS)


def test_benchmark_json_schema():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCH["paths"] == ["benchmarks/e2e"]
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in BENCH[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert len(json.dumps(BENCH)) <= 64 * 1024


def test_every_per_layer_metric_says_what_it_moves():
    metrics = {m.name for m in catalog.END_TO_END}
    workloads = {s.name for s in SPECS}
    for m in catalog.PER_LAYER:
        assert m.moves_metric in metrics, m.name
        assert m.moves_workload in workloads, m.name
        assert "." in m.name  # <layer>.<thing>


def test_quick_run_reports_every_metric(tmp_path):
    out = tmp_path / "quick.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60, f"--quick took {elapsed:.0f} s"
    doc = json.loads(out.read_text())
    assert set(doc["runs"]) == {s.name for s in SPECS}
    for name, run in doc["runs"].items():
        e2e = run["end_to_end"]
        # --quick is too short to reach the quality target: that one
        # operation may fail, nothing else.
        assert e2e["correct"] and e2e["failed"] <= 1 and e2e["attempted"] >= 1, name
        assert set(e2e["metrics"]) == {m.name for m in catalog.END_TO_END}
        for metric in e2e["metrics"].values():
            assert metric["value"] > 0
        assert re.fullmatch(r"[0-9a-f]{64}", e2e["run_digest"])
    assert doc["derived"]["sim_speedup_vs_bsp"] > 0
    # A report compared with itself: every row within, every digest equal.
    assert compare.compare(doc, doc, BENCH) == 0


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "vgg8_bsp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_compare_verdicts():
    assert compare.verdict(100.0, 105.0, "lower", 0.10) == "within"
    assert compare.verdict(100.0, 111.0, "lower", 0.10) == "worse"
    assert compare.verdict(100.0, 89.0, "lower", 0.10) == "better"
    assert compare.verdict(0.90, 0.80, "higher", 0.05) == "worse"
    assert compare.verdict(0.90, 0.96, "higher", 0.05) == "better"
    # Past the bound, but by less than twice the recorded run-to-run spread.
    assert compare.verdict(0.080, 0.104, "lower", 0.25, noise=0.2) == "unresolved"
    assert compare.verdict(0.080, 0.140, "lower", 0.25, noise=0.2) == "worse"
    noisy = [80.0, 100.0, 120.0, 140.0]
    assert compare.verdict(110.0, 125.0, "lower", 0.10, noisy, [90.0, 125.0, 150.0]) == "unresolved"
    assert compare.verdict(110.0, 200.0, "lower", 0.10, noisy, [190.0, 200.0, 210.0]) == "worse"
    assert compare.verdict(110.0, 60.0, "lower", 0.10, noisy, [55.0, 60.0, 65.0]) == "better"
