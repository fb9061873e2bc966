"""Compare two full benchmark reports of the same seed.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the base (the parent commit), ``B`` the change; both come from
``run.py --out``. One row per workload x end-to-end metric, judged against
the bound ``BENCHMARK.json`` fixes for it:

* ``better`` / ``worse``  — B moved past the bound (in the metric's direction)
  by more than twice the run-to-run spread ``baseline_spread.json`` recorded
  for that workload and metric;
* ``within``              — B is inside the bound;
* ``unresolved``          — one pair of reports cannot tell: B is past the
  bound by less than that noise margin, or the metric's timed blocks spread
  (inter-quartile, as a share of their median) wider than the bound in either
  report and B's blocks do not all sit on one side of A's. Run more pairs.

Every ratio is B/A and printed with its base. ``sim-identical`` compares
``run_digest``: equal digests mean every sim-clock statistic is bit-equal.
Exits non-zero on any ``worse`` or any rise in failed operations.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def spread(samples: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(samples) < 2:
        return 0.0
    q = statistics.quantiles(samples, n=4)
    return (q[2] - q[0]) / statistics.median(samples)


def verdict(
    a: float,
    b: float,
    better: str,
    bound: float,
    a_samples: Optional[List[float]] = None,
    b_samples: Optional[List[float]] = None,
    noise: float = 0.0,
) -> str:
    """``noise`` is the metric's recorded run-to-run spread (a share)."""
    sign = 1.0 if better == "lower" else -1.0
    if a_samples and b_samples and max(spread(a_samples), spread(b_samples)) > bound:
        if sign * min(b_samples) > sign * max(a_samples):
            return "worse"
        if sign * max(b_samples) < sign * min(a_samples):
            return "better"
        return "unresolved"
    worsening = sign * (b - a) / abs(a)
    if abs(worsening) <= bound:
        return "within"
    if abs(worsening) <= bound + 2.0 * noise:
        return "unresolved"
    return "worse" if worsening > 0 else "better"


def recorded_noise() -> Dict:
    """(workload, metric) -> the larger of the two passes' spreads in
    ``baseline_spread.json``; empty when the file is absent."""
    path = HERE / "baseline_spread.json"
    if not path.exists():
        return {}
    doc = json.loads(path.read_text())["workloads"]
    return {
        (w, m): max(e["pass1"]["spread"], e["pass2"]["spread"])
        for w, metrics in doc.items()
        for m, e in metrics.items()
    }


def compare(a_doc: Dict, b_doc: Dict, bench: Dict) -> int:
    status = 0
    noise = recorded_noise()
    print(f"{'workload':20s} {'metric':22s} {'A (base)':>14s} {'B':>14s} {'B/A':>8s} {'bound':>6s}  verdict")
    for w in bench["workloads"]:
        name = w["name"]
        try:
            a_run = a_doc["runs"][name]["end_to_end"]
            b_run = b_doc["runs"][name]["end_to_end"]
        except KeyError:
            print(f"{name:20s} missing from one report")
            status = 1
            continue
        for m in bench["end_to_end"]:
            a = a_run["metrics"][m["name"]]["value"]
            b = b_run["metrics"][m["name"]]["value"]
            v = verdict(
                a, b, m["better"], m["bound"],
                a_run.get("samples", {}).get(m["name"]),
                b_run.get("samples", {}).get(m["name"]),
                noise.get((name, m["name"]), 0.0),
            )
            if v == "worse":
                status = 1
            print(
                f"{name:20s} {m['name']:22s} {a:14.6g} {b:14.6g} {b / a:8.4f} "
                f"{m['bound']:6.2f}  {v}"
            )
        a_fail = a_run["failed"] / a_run["attempted"]
        b_fail = b_run["failed"] / b_run["attempted"]
        rose = b_fail > a_fail
        if rose:
            status = 1
        print(
            f"{name:20s} {'failed_share':22s} {a_fail:14.6g} {b_fail:14.6g} "
            f"{'':8s} {'':6s}  {'worse' if rose else 'within'}"
        )
        same = a_run["run_digest"] == b_run["run_digest"]
        print(f"{name:20s} sim-identical: {'yes' if same else 'no'}")
    return status


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(p).read_text()) for p in argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(a_doc, b_doc, bench)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
