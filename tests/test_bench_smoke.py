"""The benchmark runs end to end on its quickest workload.

``mupbench/run.py`` wraps module globals of mup to time its layers and
checks every answer it gets.  One short run with the timed closed loop
and one with the counting and layer timing catch a change that breaks
either, before a full benchmark run would.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", ["0", "1"])
def test_nrev_runs_and_answers_right(trace):
    proc = subprocess.run(
        [sys.executable, "mupbench/run.py", "--workload", "nrev", "--seconds", "1",
         "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
