#!/usr/bin/env python3
"""
Paired benchmark runs of a base commit against the working tree.

Extracts the base commit (default HEAD) with `git archive` into a temporary
directory and runs the repository's benchmark, `perfbench/run.py`, in both
checkouts: for every workload in BENCHMARK.json, ten pairs of untraced
runs of BENCHMARK.json's run length at seed 2026, alternating which side
goes first, then one traced run per side. Both sides must carry
byte-identical `perfbench/` files, so the two are measured with the same
benchmark code.

Writes one JSON document (--out) with, per workload and end-to-end metric,
each side's runs, median and quartiles, the pairs the change won, and a
verdict; the per-layer metrics of the traced runs; the result fingerprint
of every run, with whether the change's equal the base's; and each side's
environment line (Python, NumPy and BLAS builds, core counts and
OPENBLAS_NUM_THREADS), since a change's timings hold for one build.

Verdicts follow the benchmark's rules. "gain": the change won at least nine
tenths of the pairs (ties count for neither) and its median differs from
the base's by more than the base's interquartile range. "regression": the
change's median is worse than the base's by more than the metric's bound.
"unresolved": neither, and the base's own spread (IQR over median) exceeds
the bound while not every change run beats every base run. Otherwise
"within bound".

Usage, from the repository root:

  python3 scripts/bench_pair.py --out BENCH.json
  python3 scripts/bench_pair.py --base HEAD~1 --out BENCH.json
"""

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = "perfbench/run.py"
PAIRS = 10
SEED = 2026


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _extract(rev: str, target: Path) -> None:
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        # the extraction filter exists from Python 3.12 and in backports
        if hasattr(tarfile, "data_filter"):
            tar.extractall(target, filter="data")
        else:
            tar.extractall(target)


def _same_bench(a: Path, b: Path) -> bool:
    files_a = sorted(p.relative_to(a) for p in (a / "perfbench").rglob("*")
                     if p.is_file() and "__pycache__" not in p.parts)
    files_b = sorted(p.relative_to(b) for p in (b / "perfbench").rglob("*")
                     if p.is_file() and "__pycache__" not in p.parts)
    return files_a == files_b and all(
        (a / f).read_bytes() == (b / f).read_bytes() for f in files_a)


def _run(root: Path, workload: str, seconds: float, trace: int) -> dict:
    """One benchmark process; its JSON line plus the fingerprint lines."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, BENCH, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.exit(f"bench_pair: {workload} in {root} exited "
                 f"{proc.returncode} without a result:\n{proc.stderr}")
    out = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"],
           "metrics": {k: m["value"] for k, m in result["metrics"].items()},
           "process_s": round(time.perf_counter() - t0, 3)}
    for line in lines:
        line = line.strip()
        if line.startswith("fingerprint: "):
            out["fingerprint"] = json.loads(line[len("fingerprint: "):])
        elif line.startswith("fingerprint vs perfbench/baseline.json: "):
            out["vs_baseline"] = line.rsplit(" ", 1)[-1]
        elif line.startswith("environment: "):
            out["environment"] = json.loads(line[len("environment: "):])
    return out


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"runs": values, "median": statistics.median(values),
            "q1": q1, "q3": q3}


def _verdict(base: list, change: list, better: str, bound: float) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    ties = sum(c == b for b, c in zip(base, change))
    sb, sc = _summary(base), _summary(change)
    iqr = sb["q3"] - sb["q1"]
    gain = sign * (sc["median"] - sb["median"])
    worse = -gain / abs(sb["median"]) if sb["median"] else 0.0
    spread = iqr / abs(sb["median"]) if sb["median"] else 0.0
    if wins >= math.ceil(0.9 * len(base)) and gain > iqr:
        verdict = "gain"
    elif worse > bound:
        verdict = "regression"
    elif spread > bound and min(sign * c for c in change) <= max(
            sign * b for b in base):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"better": better, "bound": bound, "base": sb, "change": sc,
            "change_wins": wins, "ties": ties, "pairs": len(base),
            "median_ratio": sc["median"] / sb["median"]
            if sb["median"] else None,
            "base_iqr": iqr, "verdict": verdict}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--base", default="HEAD",
                    help="git revision to compare against (default HEAD)")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]
    doc = {"base": _git("rev-parse", args.base),
           "change": f"working tree on {_git('rev-parse', 'HEAD')}",
           "dirty_files": _git("status", "--porcelain").splitlines(),
           "settings": {"seed": SEED, "seconds": seconds, "pairs": PAIRS,
                        "order": "base first in even pairs, change first "
                                 "in odd pairs"},
           "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_base_") as tmp:
        base_root = Path(tmp)
        _extract(args.base, base_root)
        if not _same_bench(base_root, ROOT):
            sys.exit("bench_pair: perfbench/ differs between the base and "
                     "the working tree; the sides would not be comparable")
        sides = {"base": base_root, "change": ROOT}
        for name in (w["name"] for w in spec["workloads"]):
            runs = {"base": [], "change": []}
            for i in range(PAIRS):
                order = ("base", "change") if i % 2 == 0 \
                    else ("change", "base")
                for side in order:
                    res = _run(sides[side], name, seconds, 0)
                    runs[side].append(res)
                    print(f"{name} pair {i} {side}: solves_per_s "
                          f"{res['metrics']['solves_per_s']:.4g}, "
                          f"correct {res['correct']}", flush=True)
            traced = {side: _run(sides[side], name, seconds, 1)
                      for side in ("base", "change")}
            metrics = {}
            for m in spec["end_to_end"]:
                metrics[m["name"]] = _verdict(
                    [r["metrics"][m["name"]] for r in runs["base"]],
                    [r["metrics"][m["name"]] for r in runs["change"]],
                    m["better"], m["bound"])
            fingerprints = {side: [r.get("fingerprint") for r in runs[side]]
                            + [traced[side].get("fingerprint")]
                            for side in sides}
            doc["workloads"][name] = {
                "end_to_end": metrics,
                "per_layer": {side: traced[side]["metrics"]
                              for side in sides},
                "correct": {side: [r["correct"] for r in runs[side]]
                            + [traced[side]["correct"]] for side in sides},
                "failed": {side: [[r["failed"], r["attempted"]]
                                  for r in runs[side]] for side in sides},
                "vs_baseline": {side: sorted({r.get("vs_baseline", "?")
                                             for r in runs[side]})
                                for side in sides},
                "fingerprint_change_equals_base": all(
                    f == fingerprints["base"][0]
                    for f in fingerprints["base"] + fingerprints["change"]),
                "fingerprint": fingerprints["change"][0],
                "environment": {side: traced[side].get("environment")
                                for side in sides},
            }
            args.out.write_text(json.dumps(doc, indent=1, sort_keys=True)
                                + "\n")
    for name, w in doc["workloads"].items():
        for metric, v in w["end_to_end"].items():
            print(f"{name:13s} {metric:14s} base {v['base']['median']:.5g} "
                  f"change {v['change']['median']:.5g} wins "
                  f"{v['change_wins']}/{v['pairs']}: {v['verdict']}")
        print(f"{name:13s} fingerprint equal: "
              f"{w['fingerprint_change_equals_base']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
