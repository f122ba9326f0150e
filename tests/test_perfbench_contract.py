"""The benchmark harness in ``perfbench/`` runs against this checkout.

The harness calls the solver by name and keyword (``run_outer(threads=0)``,
``run_statistics(threads=0)``, ``bcd_sweep(..., c_bounds=...)``; both
``threads`` keywords are accepted and ignored) and its tracer wraps
module-level names such as ``_initial_c_bounds``, ``_block_gradient`` and
``_coupling_value``.  A rename or a dropped keyword on the solver's side
shows up here as a failed or incorrect run, or as a layer reported as not
measured.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["stats", "certified", "polytope"])
def test_traced_run_is_correct_and_complete(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.01", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "not measured" not in proc.stdout, proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    if workload == "certified":
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        # counted only when bcd_sweep receives c_bounds by keyword
        assert metrics["inner_bcd.c_doublings"] > 0
        # certified sweeps and curvature sampling run one colour class at a
        # time: no per-agent gradient, and at most one whole-coupling value
        # per class (two per chain sweep)
        assert metrics["model.block_gradient.calls"] == 0
        assert metrics["model.coupling_value.calls"] <= 2 * metrics["inner_bcd.bcd_sweep.calls"]
