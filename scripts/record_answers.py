#!/usr/bin/env python3
"""
Float-exact record of the boundary solver's answers.

The record is the boundary battery of scripts/run_boundary_battery.py at
seeds 0-19 (n = 2..10 at every seed, n = 15 and n = 30 at seed 0) and its
n = 15 radius sweep, solved through that script's instance list and
solve loop. It is one JSON document with, per instance, every
BoundaryResult field and the value and flag of check_second_order. Every
float is written as float.hex, so two records are equal only when every
answer is bit-identical. tests/test_records.py recomputes the record and
compares it with the committed one, tests/records/boundary.json; a change
that moves answers on purpose rewrites that file with this script.

Usage, from the repository root:

  PYTHONPATH=src python3 scripts/record_answers.py
  PYTHONPATH=src python3 scripts/record_answers.py --out PATH
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run_boundary_battery import instances, solve  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "tests" / "records" / "boundary.json"


def _hex(x) -> str:
    return float(x).hex()


def record() -> dict:
    """Every field of each boundary step of the battery at seeds 0-19 and
    of its radius sweep, in the battery script's order, and its
    second-order certificate, floats as float.hex."""
    return {part: [{
        "seed": seed, "n": n, "delta": _hex(delta),
        "s": [_hex(v) for v in res.s],
        "lambda_": _hex(res.lambda_),
        "value": _hex(res.value),
        "grad_lagrangian_norm": _hex(res.grad_lagrangian_norm),
        "inner_iters": res.inner_iters,
        "outer_iters": res.outer_iters,
        "history": [_hex(v) for v in res.history],
        "converged": res.converged,
        "proj_min_eig": _hex(min_eig),
        "proj_PD": bool(certified),
    } for seed, n, delta, res, min_eig, certified, _ in solve(cases)]
        for part, cases in instances(seeds=range(20)).items()}


def dump(doc: dict) -> str:
    """The record as its committed file holds it: one instance a line."""
    parts = {name: ",\n  ".join(json.dumps(e, sort_keys=True) for e in rows)
             for name, rows in doc.items()}
    return "{\n" + ",\n".join(f' "{name}": [\n  {rows}\n ]'
                              for name, rows in parts.items()) + "\n}\n"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--out", type=Path, default=RECORD)
    args = ap.parse_args()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(dump(record()), encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
