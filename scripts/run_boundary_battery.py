#!/usr/bin/env python3
"""
Boundary-step battery on random cubic models.

Part 1 solves the sphere-boundary subproblem for seeded cubic Taylor
models across a range of dimensions, plus n = 15 and n = 30 for the first
seed, and records the full certificate for each instance: multiplier,
objective value, Lagrangian gradient norm, the smallest eigenvalue of the
projected second-order matrix, and iteration counts.

Part 2 sweeps the radius on one larger instance and records how the
multiplier and the boundary minimum move as the ball grows, with the same
certificate for every radius.

An instance counts as good in the summary lines only when it converged and
its projected second-order matrix is positive definite. The script exits
with status 1 unless every instance of both parts is good.

The CSVs write lambda, value, grad_norm and proj_min_eig as the shortest
decimal that reads back to the same float, so two runs whose CSVs match
in every column but time_s gave bit-identical answers.

Produces (under --outdir, default results/):
  boundary_battery.csv   one row per (seed, n) instance
  boundary_sweep.csv     one row per radius
"""

import argparse
import csv
import inspect
import time
from pathlib import Path

import numpy as np

from specteig import check_second_order, random_cubic, solve_boundary

#: The default run; perfbench/workloads.py restates these, and a tier-1
#: test holds the two equal. The battery's scales are random_cubic's own.
SEEDS = (1000, 1002)
DIMS = tuple(range(2, 11))
DELTA = 2.0
BATTERY_SCALES = inspect.signature(random_cubic).parameters["scales"].default
#: Larger dimensions solved for the first battery seed only.
LARGE_DIMS = (15, 30)
SWEEP_N, SWEEP_SEED = 15, 42
SWEEP_SCALES = (200.0, 8.0, 2.0)
SWEEP_DELTAS = tuple(float(d) for d in range(1, 11))


def instances(seeds=SEEDS, dims=DIMS, delta=DELTA, sweep_n=SWEEP_N,
              sweep_seed=SWEEP_SEED, sweep_deltas=SWEEP_DELTAS) -> dict:
    """Each part's (seed, n, model, delta) instances, in order, each
    battery model built when it is reached: the battery's n in dims at
    every seed, then LARGE_DIMS at the first seed, all at delta; the
    sweep's one model at every radius."""
    pairs = ([(seed, n) for seed in seeds for n in dims]
             + [(seeds[0], n) for n in LARGE_DIMS])
    sweep = random_cubic(sweep_n, sweep_seed, SWEEP_SCALES)
    return {"battery": ((seed, n, random_cubic(n, seed, BATTERY_SCALES),
                         delta) for seed, n in pairs),
            "sweep": ((sweep_seed, sweep_n, sweep, delta)
                      for delta in sweep_deltas)}


def solve(cases):
    """Solve and certify each (seed, n, model, delta) instance; yield its
    seed, n and delta, the BoundaryResult, check_second_order's least
    eigenvalue and flag, and the solve's wall time."""
    for seed, n, poly, delta in cases:
        t0 = time.perf_counter()
        res = solve_boundary(poly, delta)
        wall = time.perf_counter() - t0
        min_eig, proj_pd = check_second_order(poly, res.s, res.lambda_)
        yield seed, n, delta, res, min_eig, proj_pd, wall


def _exact(x) -> str:
    """The shortest decimal that reads back as the float x."""
    return repr(float(x))


def _certified(row) -> bool:
    return bool(row["converged"] and row["proj_PD"])


def _write(rows, outpath: Path) -> int:
    """Write the rows as CSV; return how many are certified."""
    with open(outpath, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return sum(_certified(r) for r in rows)


def run_battery(cases, outpath: Path) -> bool:
    """Solve and certify every instance; True when all are certified."""
    rows = []
    for seed, n, _, res, min_eig, proj_pd, wall in solve(cases):
        rows.append({
            "seed": seed, "n": n, "converged": int(res.converged),
            "lambda": _exact(res.lambda_),
            "value": _exact(res.value),
            "grad_norm": _exact(res.grad_lagrangian_norm),
            "proj_min_eig": _exact(min_eig),
            "proj_PD": int(proj_pd),
            "inner_iters": res.inner_iters,
            "outer_iters": res.outer_iters,
            "time_s": f"{wall:.3f}",
        })
        flag = "ok" if _certified(rows[-1]) else "CHECK"
        print(f"seed={seed} n={n:2d} lambda={res.lambda_:12.4f} "
              f"value={res.value:14.4f} grad={res.grad_lagrangian_norm:.2e} "
              f"[{flag}]")
    good = _write(rows, outpath)
    print(f"battery: {good}/{len(rows)} converged and certified "
          f"-> {outpath}")
    return good == len(rows)


def run_sweep(cases, outpath: Path) -> bool:
    """Solve and certify every radius; True when all are certified."""
    rows = []
    for _, _, delta, res, min_eig, proj_pd, _ in solve(cases):
        rows.append({
            "delta": delta,
            "lambda": _exact(res.lambda_),
            "value": _exact(res.value),
            "grad_norm": _exact(res.grad_lagrangian_norm),
            "converged": int(res.converged),
            "proj_min_eig": _exact(min_eig),
            "proj_PD": int(proj_pd),
        })
        flag = "ok" if _certified(rows[-1]) else "CHECK"
        print(f"delta={delta:4.1f} lambda={res.lambda_:12.4f} "
              f"value={res.value:14.4f} [{flag}]")
    good = _write(rows, outpath)
    lams = np.array([float(r["lambda"]) for r in rows])
    trend = "nonincreasing" if np.all(np.diff(lams) <= 1e-9) else "MIXED"
    print(f"sweep: {good}/{len(rows)} converged and certified, multiplier "
          f"{lams[0]:.1f} -> {lams[-1]:.1f} ({trend}) -> {outpath}")
    return good == len(rows)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--seeds", type=int, nargs="+", default=SEEDS)
    ap.add_argument("--dims", type=int, nargs="+", default=DIMS)
    ap.add_argument("--delta", type=float, default=DELTA)
    ap.add_argument("--sweep-n", type=int, default=SWEEP_N)
    ap.add_argument("--sweep-seed", type=int, default=SWEEP_SEED)
    ap.add_argument("--sweep-deltas", type=float, nargs="+",
                    default=SWEEP_DELTAS)
    ap.add_argument("--outdir", type=Path, default=Path("results"))
    args = ap.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    parts = instances(args.seeds, args.dims, args.delta, args.sweep_n,
                      args.sweep_seed, args.sweep_deltas)
    battery_ok = run_battery(parts["battery"],
                             args.outdir / "boundary_battery.csv")
    print()
    sweep_ok = run_sweep(parts["sweep"], args.outdir / "boundary_sweep.csv")
    return 0 if battery_ok and sweep_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
