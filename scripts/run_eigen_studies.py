#!/usr/bin/env python3
"""
Multi-start eigenpair studies on the bundled tensors.

Runs the four standard studies end to end and writes one JSON document and
one CSV table per study, plus a combined summary CSV. Three are the
bundled studies of `specteig examples` (its EXAMPLE_SPECS table), and one
a variant of the first:

  z-default      5.1: fourth-order tensor, unit-sphere pairs, automatic
                 shift (operator Frobenius norm), 100 starts in U(-1, 1)
  z-small-shift  5.1 with shift 0.1, which concentrates the starts onto
                 the smallest eigenvalue
  h-diagonal     5.2: sixth-order tensor, componentwise-power normalizer,
                 shift 3, step weights 3, 100 starts in U(0, 1)
  d-pencil       5.3: fourth-order pencil against a dense positive
                 definite right-hand tensor, shift 10, 80 starts in U(-1, 1)

Produces (under --outdir, default results/):
  eigen_<study>.json   full report with parameters
  eigen_<study>.csv    per-cluster rows
  eigen_summary.csv    one row per study

All draws derive from --seed, so reruns with the same arguments reproduce
the same reports bit for bit.
"""

import argparse
import csv
import json
import time
from pathlib import Path

from specteig import format_table, report_to_csv, report_to_json
from specteig.cli import EXAMPLE_SPECS, _run_example

STUDIES = {
    "z-default": EXAMPLE_SPECS["5.1"],
    "z-small-shift": {**EXAMPLE_SPECS["5.1"], "alpha": 0.1},
    "h-diagonal": EXAMPLE_SPECS["5.2"],
    "d-pencil": EXAMPLE_SPECS["5.3"],
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--seed", type=int, default=1729)
    ap.add_argument("--trials", type=int, default=None,
                    help="override the per-study trial count")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--outdir", type=Path, default=Path("results"))
    ap.add_argument("--study", choices=sorted(STUDIES), default=None,
                    help="run a single study instead of all four")
    args = ap.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    names = [args.study] if args.study else list(STUDIES)
    summary_rows = []
    for name in names:
        params = STUDIES[name]
        if args.trials is not None:
            params = {**params, "trials": args.trials}
        t0 = time.perf_counter()
        _, config, report = _run_example(params, args.seed, args.jobs)
        wall = time.perf_counter() - t0
        print(f"== {name} ({params['kind']}-pairs, {report.trials} trials, "
              f"{wall:.1f} s) ==")
        print(format_table(report))
        print()

        doc = {
            "study": name,
            "kind": params["kind"],
            "params": {
                "trials": report.trials, "seed": args.seed,
                "gamma": params["gamma"], "alpha": params["alpha"],
                "init_range": list(params["init"]),
                "tol": config.tol, "eps": config.inner.eps,
            },
            "wall_s": round(wall, 3),
            "report": json.loads(report_to_json(report)),
        }
        (args.outdir / f"eigen_{name}.json").write_text(
            json.dumps(doc, indent=2) + "\n")
        (args.outdir / f"eigen_{name}.csv").write_text(report_to_csv(report))

        best = min(p.lambda_ for p in report.pairs) if report.pairs else None
        summary_rows.append({
            "study": name, "kind": params["kind"], "trials": report.trials,
            "accepted": report.accepted, "clusters": len(report.pairs),
            "smallest_lambda": best, "wall_s": round(wall, 3),
        })

    with open(args.outdir / "eigen_summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(summary_rows[0]))
        writer.writeheader()
        writer.writerows(summary_rows)
    print(f"wrote {len(names)} report(s) under {args.outdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
