"""The benchmark's inference counts, checked on its three quick workloads.

``mupbench/worker.py count WORKLOAD SEED`` runs each query of the workload
once through a counting tracer.  Its counts must equal the ones pinned in
``mupbench/counts.json``.  ``queens``, the workload heavy in ``#`` and
backtracking, takes about 3 s in this mode; ``countdown`` takes about 5 s,
so it is left to ``mupbench/run.py --trace 1``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["nrev", "fact_table", "queens"])
def test_counts_match_counts_json(workload):
    proc = subprocess.run(
        [sys.executable, "mupbench/worker.py", "count", workload, "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failures"] == []
    assert result["problems"] == []
    pinned = json.loads((ROOT / "mupbench" / "counts.json").read_text())[workload]
    for kind, stored in pinned.items():
        live = {name: result["per_kind"].get(kind, {}).get(name, 0) for name in stored}
        assert live == stored, kind
