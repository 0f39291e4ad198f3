"""Tripwire for the surface the frozen ``ledger/`` drives.

``ledger/workloads.py::wrap_boundaries`` wraps seven names by
``getattr`` — ``FetchCache.lookup``/``lookup_many``/
``lookup_many_encoded`` and the backend's ``fetch_many``/``fetch_flat``/
``fetch_many_encoded``/``fetch_flat_encoded`` — so renaming or removing
any of them kills every traced ledger run.  The backend names are
adapters every engine inherits from ``StorageBackend``; the procshard
coordinator reaches them that way too.  Each case here is one quick
traced run (a few seconds), checked for a clean exit and no
oracle-rejected answer.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", ["warm_template", "cold_fetch_scale",
                                      "mixed_write_disk", "procshard_fanout"])
def test_quick_traced_ledger_run_is_clean(workload):
    completed = subprocess.run(
        [sys.executable, "ledger/run.py", "--quick", "--workload", workload,
         "--trace", "1"],
        cwd=REPO, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr[-2000:]
    last = completed.stdout.strip().splitlines()[-1]
    summary = json.loads(last)
    assert summary["failed"] == 0
    assert summary["attempted"] > 0
