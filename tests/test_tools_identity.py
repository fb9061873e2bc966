"""``tools/identity.py``'s report of the first line on which two runs differ.

The fixture is the ``fedavg-c1/ring+crash`` cell at the commit where FedAvg
stopped pulling back when every live worker pushed: the parent's step 3
carries a ``collective(op="pull")`` event the change does not, so the
change's ``step_end`` sits on the parent's pull line (with its own ``seq``
and a smaller ``comm_time``). A report that compares ``data`` before
``etype`` names a field of the wrong event there.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity.py"
_spec = importlib.util.spec_from_file_location("identity_tool", TOOL)
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)

HEADER = '{"meta": {}, "schema": 2}'
COMPUTE = (
    '{"data": {"max": 2.4e-05, "times": [2.3e-05, 2.4e-05, 2.3e-05, 2.4e-05]}, '
    '"etype": "compute_phase", "seq": 1, "step": 3, "worker": -1}'
)
SYNC = (
    '{"data": {"bytes": 3000000.0, "op": "sync", "payload": 1000000.0, "ranks": 3, '
    '"seconds": 0.0029333333333333334}, "etype": "collective", "seq": 2, "step": 3, "worker": -1}'
)
AGGREGATION = (
    '{"data": {"kind": "PA", "n_contrib": 3}, "etype": "aggregation", "seq": 3, '
    '"step": 3, "worker": -1}'
)
PULL = (
    '{"data": {"bytes": 0.0, "op": "pull", "payload": 1000000.0, "ranks": 3, '
    '"seconds": 0.0014666666666666667}, "etype": "collective", "seq": 4, "step": 3, "worker": -1}'
)
STEP_END_WITH_PULL = (
    '{"data": {"comm_time": 0.0044, "extra": {}, "grad_change": null, '
    '"loss": 2.1514834411678603, "sim_time": 0.004423651072985012, "synced": true}, '
    '"etype": "step_end", "seq": 5, "step": 3, "worker": -1}'
)
STEP_END = (
    '{"data": {"comm_time": 0.0029333333333333334, "extra": {}, "grad_change": null, '
    '"loss": 2.1514834411678603, "sim_time": 0.0029569844063183446, "synced": true}, '
    '"etype": "step_end", "seq": 4, "step": 3, "worker": -1}'
)
TASK = (
    '{"data": {"loss": 2.620304834897987}, "etype": "exec_task", "seq": 0, '
    '"step": 3, "worker": 0}'
)

WITH_PULL = [HEADER, COMPUTE, SYNC, AGGREGATION, PULL, STEP_END_WITH_PULL, TASK]
WITHOUT_PULL = [HEADER, COMPUTE, SYNC, AGGREGATION, STEP_END, TASK]


def explain(tmp_path, parent_lines, change_lines):
    dirs = []
    for name, lines in (("parent", parent_lines), ("change", change_lines)):
        d = tmp_path / name
        d.mkdir()
        (d / "trace.jsonl").write_text("\n".join(lines) + "\n")
        (d / "runlog.jsonl").write_text("")
        dirs.append(d)
    return identity.explain(*dirs, ("parent", "change"), {}, {})


@pytest.mark.parametrize(
    "parent, change, side",
    [(WITH_PULL, WITHOUT_PULL, "parent"), (WITHOUT_PULL, WITH_PULL, "change")],
)
def test_an_event_on_one_side_only_is_reported_as_that(tmp_path, parent, change, side):
    report = explain(tmp_path, parent, change)
    first = report.splitlines()[0]
    assert first.strip() == (
        f"first differing trace line 5: step 3 worker -1 collective on the {side} side only"
    )
    assert report.splitlines()[1].strip() == f"{side}: {PULL}"
    assert "data.bytes" not in report and "step_end" not in report


def test_the_same_event_with_other_fields_reports_the_field(tmp_path):
    changed = STEP_END_WITH_PULL.replace('"loss": 2.1514834411678603', '"loss": 2.5')
    report = explain(tmp_path, WITH_PULL, WITH_PULL[:5] + [changed, TASK])
    assert "line 6: step 3 worker -1 step_end, field data.loss: parent 2.15" in report


def test_event_identity_is_compared_before_its_data():
    pull, step_end = json.loads(PULL), json.loads(STEP_END)
    assert identity._first_difference(pull, step_end) == ("etype", "collective", "step_end")
    later = dict(pull, step=4)
    assert identity._first_difference(pull, later) == ("step", 3, 4)


def test_different_events_neither_side_reaches_report_the_etype(tmp_path):
    other = PULL.replace('"etype": "collective"', '"etype": "reroute"')
    report = explain(tmp_path, WITH_PULL, WITH_PULL[:4] + [other] + WITH_PULL[5:])
    assert "line 5: step 3 worker -1 collective, field etype: parent 'collective' vs change 'reroute'" in report
