"""Smoke run of the benchmark harness on every workload.

perfbench/run.py calls the package from outside (problem.b.to_symtensor(),
rayleigh, residual, lagrangian_grad, the canonical map), so a change to
those calls shows here rather than only in a benchmark run. Each workload
runs for one second, untraced, in its own process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["eigen-h6", "eigen-order4", "boundary"])
def test_workload_runs_correctly(workload):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
