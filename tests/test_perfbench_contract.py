"""The benchmark harness in ``perfbench/`` runs against this checkout.

The harness calls the solver by name and keyword (``run_outer(threads=0)``,
``run_statistics(threads=0)``, ``bcd_sweep(..., c_bounds=...)``; both
``threads`` keywords are accepted and ignored) and its tracer wraps
module-level names such as ``_initial_c_bounds``, ``_block_gradient`` and
``_coupling_value``.  A rename or a dropped keyword on the solver's side
shows up here as a failed or incorrect run, or as a layer reported as not
measured.

A run's last line is its result, and it stays one only while every traced
name is still defined (a missing one is left out of the result), every
metric is finite (``json.dumps`` writes ``NaN`` and ``Infinity``, which are
not JSON) and the library prints nothing to stdout.  So the result is parsed
strictly and its metric names must equal the ones ``BENCHMARK.json``
declares.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def _not_json(constant):
    raise ValueError(f"{constant} is not valid JSON")


def run_bench(workload, trace):
    """Run the harness briefly; return its strictly parsed result."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "not measured" not in proc.stdout, proc.stdout
    lines = proc.stdout.strip().splitlines()
    # the harness's own lines only: its header, and a percentile line that
    # runs of 100 or more solves add
    assert lines[0].startswith(f"workload {workload} "), proc.stdout
    assert all(line.startswith("solve_ms over all ") for line in lines[1:-1]), proc.stdout
    result = json.loads(lines[-1], parse_constant=_not_json)
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_correct_and_complete(workload):
    result = run_bench(workload, trace=1)
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    if workload == "certified":
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        # counted only when bcd_sweep receives c_bounds by keyword
        assert metrics["inner_bcd.c_doublings"] > 0
        # certified sweeps and curvature sampling run one colour class at a
        # time: no per-agent gradient, and at most one whole-coupling value
        # per class (two per chain sweep)
        assert metrics["model.block_gradient.calls"] == 0
        assert metrics["model.coupling_value.calls"] <= 2 * metrics["inner_bcd.bcd_sweep.calls"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_the_end_to_end_metrics(workload):
    result = run_bench(workload, trace=0)
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
