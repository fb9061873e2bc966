"""What ``import repro`` is allowed to cost.

Every CLI call, benchmark run and test process imports ``repro.cli`` and
``repro.experiments``; scipy (≈490 modules, +64 MiB RSS, +0.5 s) is used by
two figure functions only and must not ride along.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_cli_and_experiments_import_without_scipy():
    code = (
        "import sys, repro.cli, repro.experiments\n"
        "heavy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not heavy, heavy[:5]\n"
    )
    # The child sees ``repro`` where this process found it.
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
