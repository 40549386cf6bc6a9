"""The benchmark harness runs against this checkout: one short run per mode.

``perfbench/run.py`` calls and patches the package's public functions, so a
change to what it relies on (a return shape, a module global, a tape node's
fields) fails here rather than first in a full-length benchmark run.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("trace", ["0", "1"])
def test_train_small_runs_correct(trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "train-small", "--seconds", "1", "--trace", trace],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
