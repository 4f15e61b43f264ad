"""Smoke run of the benchmark harness on every workload.

perfbench/run.py calls the package from outside (problem.b.to_symtensor(),
rayleigh, residual, lagrangian_grad, the canonical map), so a change to
those calls shows here rather than only in a benchmark run. Each workload
runs for one second, untraced, in its own process.
"""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from specteig import (DinkelbachConfig, PamConfig, random_cubic,
                      solve_multistart)
from specteig.cli import EXAMPLE_SPECS

ROOT = Path(__file__).resolve().parent.parent


def _module(path: Path, monkeypatch):
    """The module at path, loaded under its file name for this test only
    (its dataclasses look it up while they are built), with no bytecode
    written beside it."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


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
    # the run's result fingerprint against perfbench/baseline.json. The
    # boundary baseline was frozen before rounding moves it has not been
    # re-recorded for (ROADMAP item 1), so that workload reads DIFFERENT
    # until it is; a re-record makes this line fail and must update it
    verdict = "DIFFERENT" if workload == "boundary" else "same"
    assert f"fingerprint vs perfbench/baseline.json: {verdict}\n" \
        in proc.stdout, proc.stdout


def test_workloads_restate_the_studies_and_the_battery(monkeypatch):
    # perfbench/workloads.py restates the bundled studies, the solver
    # defaults they run at and the battery script's default run; a copy
    # that drifts would bench other work than the CLI and scripts run
    workloads = _module(ROOT / "perfbench" / "workloads.py", monkeypatch)
    battery = _module(ROOT / "scripts" / "run_boundary_battery.py",
                      monkeypatch)
    assert {tag: (s.tensor, s.b, s.kind, s.gamma, s.alpha, s.init, s.trials)
            for tag, s in workloads.STUDIES.items()} == {
        tag: (spec["tensor"], spec.get("b"), spec["kind"], spec["gamma"],
              spec["alpha"], spec["init"], spec["trials"])
        for tag, spec in EXAMPLE_SPECS.items()}
    assert (workloads.TOL, workloads.EPS) == (DinkelbachConfig.tol,
                                              PamConfig.eps)
    # each copy in perfbench, and the script's constant it restates
    for copy, name in {"BATTERY_SEEDS": "SEEDS", "BATTERY_DIMS": "DIMS",
                       "LARGE_DIMS": "LARGE_DIMS", "BATTERY_DELTA": "DELTA",
                       "BATTERY_SCALES": "BATTERY_SCALES",
                       "SWEEP_N": "SWEEP_N", "SWEEP_SEED": "SWEEP_SEED",
                       "SWEEP_SCALES": "SWEEP_SCALES",
                       "SWEEP_DELTAS": "SWEEP_DELTAS"}.items():
        assert getattr(workloads, copy) == getattr(battery, name), copy
    # the function defaults that perfbench restates; the CLI and the
    # battery script read them from the same signatures
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    assert workloads.CLUSTER_TOL == default(solve_multistart, "cluster_tol")
    assert workloads.BATTERY_SCALES == battery.BATTERY_SCALES == default(
        random_cubic, "scales")
