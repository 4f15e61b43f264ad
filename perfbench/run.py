#!/usr/bin/env python3
"""specteig benchmark: solver workloads in a closed loop, one process.

Run from the repository root:

    python3 perfbench/run.py --workload eigen-h6 --seed 1729 --seconds 30
    python3 perfbench/run.py --workload boundary --trace 1
    python3 perfbench/run.py --workload all

The package is imported from ``src/`` next to this directory. A run prints
a report (every metric by name and unit, the correctness verdict and the
result fingerprint) and, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics. With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones of a traced run. See README.md
in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Single-threaded BLAS unless the caller chose otherwise; the operands here
# are far below OpenBLAS's threading sizes, so this only removes noise.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

WORKLOAD_NAMES = ("eigen-h6", "eigen-order4", "boundary")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1729)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_package():
    if not (SRC / "specteig" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'specteig'}; run from a "
                 f"checkout of the repository")
    sys.path.insert(0, str(SRC))
    import specteig
    if Path(specteig.__file__).resolve().parent != SRC / "specteig":
        sys.exit(f"perfbench: imported specteig from {specteig.__file__}, "
                 f"not from {SRC}")
    return specteig


def _environment(np) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _percentile(values, pct: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=float), pct))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _untraced(workload, pkg, wl, seed, seconds):
    """Closed loop for `seconds`: before each round one cold set-up, whose
    objects that round solves, so no round reuses another's objects."""
    data = SRC / "specteig" / "data"
    speed = wl.Speed(workload.speed_exponent)
    setup_s = []
    tally = wl.Tally()
    clock = wl.Clock(tally, speed)
    state = None
    deadline = time.perf_counter() + seconds
    rounds = 0
    while (rounds < workload.fingerprint_rounds
           or time.perf_counter() < deadline):
        scale = speed.refresh()
        t0 = time.perf_counter()
        made = workload.setup(pkg, data, seed)
        setup_s.append((time.perf_counter() - t0) * scale)
        if state is None:
            first, state = made, workload.prepare(pkg, made, seed)
        workload.run_round(pkg, state, rounds, made, tally, clock)
        rounds += 1
    workload.finish(tally)
    samples = tally.samples_ms
    tail = _percentile(samples, workload.tail_pct)
    beyond = sum(1 for v in samples if v > tail)
    completed = tally.attempted - tally.errors
    metrics = {
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "solves_per_s": _metric(completed / tally.timed_s, "1/s"),
        "solve_ms_p50": _metric(_percentile(samples, 50.0), "ms"),
        "solve_ms_tail": _metric(tail, "ms"),
        "s_per_hit": _metric(tally.timed_s / max(tally.hits, 1), "s"),
        "ok_frac": _metric(tally.ok / tally.attempted, "frac"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_s)} cold set-ups",
        "solves_per_s": f"{completed} solves in {tally.timed_s:.3f} s "
                        f"normalised ({tally.raw_s:.3f} s raw) of solving, "
                        f"{rounds} rounds",
        "solve_ms_p50": f"median of {len(samples)} samples",
        "solve_ms_tail": f"p{workload.tail_pct:g} of {len(samples)} "
                         f"samples, {beyond} beyond it"
                         + ("" if beyond >= 10 else " (FEWER THAN TEN)"),
        "s_per_hit": f"{tally.hits} hits",
        "ok_frac": f"failed_frac = {1 - tally.ok / tally.attempted:.6f} "
                   f"({tally.attempted - tally.ok} of {tally.attempted}; "
                   f"{tally.errors} lost to errors)",
        "peak_rss_mb": "peak resident set of this process",
    }
    probe_ms = 1e3 * statistics.median(speed.probes)
    notes["speed"] = (f"speed probe median {probe_ms:.4f} ms (reference "
                      f"{1e3 * wl.REFERENCE_PROBE_S:.4f} ms), "
                      f"{len(speed.probes)} probes")
    return first, tally, metrics, notes


def _traced(workload, pkg, wl, seed):
    from tracing import SPAN_NAMES, Tracer

    data = SRC / "specteig" / "data"

    def one_pass(tracer):
        tally = wl.Tally()
        clock = wl.Clock(tally, wl.Speed(workload.speed_exponent), tracer)
        first = None
        for r in range(workload.trace_rounds):
            with clock:
                made = workload.setup(pkg, data, seed)
            if first is None:
                first, state = made, workload.prepare(pkg, made, seed)
            workload.run_round(pkg, state, r, made, tally, clock)
        workload.finish(tally)
        return first, tally

    _, plain = one_pass(None)
    tracer = Tracer().install()
    try:
        first, traced = one_pass(tracer)
    finally:
        tracer.remove()

    # Spans hold raw seconds; `speed` converts them to the normalised scale
    # of the timed metrics.
    raw_wall = traced.raw_s
    speed = traced.timed_s / raw_wall
    fp_plain = workload.fingerprint(plain)
    fp_traced = workload.fingerprint(traced)
    traced.check(fp_plain == fp_traced,
                 "traced fingerprint differs from the untraced one")
    traced.check((plain.attempted, plain.ok, plain.hits)
                 == (traced.attempted, traced.ok, traced.hits),
                 "traced outcome counts differ from the untraced ones")
    self_sum = sum(st.self_s for st in tracer.stats.values())
    remainder = raw_wall - tracer.root_s
    traced.check(abs(self_sum - tracer.root_s) <= 1e-6 * raw_wall
                 and remainder >= -1e-9
                 and all(st.self_s >= -1e-9 for st in tracer.stats.values()),
                 f"self times {self_sum:.6f} s plus remainder "
                 f"{remainder:.6f} s do not account for wall {raw_wall:.6f} s")
    traced.failures[:0] = plain.failures

    metrics = {}
    rows = []
    for name in SPAN_NAMES:
        st = tracer.stats[name]
        metrics[f"{name}.calls"] = _metric(st.calls, "count")
        metrics[f"{name}.self_pct"] = _metric(100.0 * st.self_s / raw_wall,
                                              "%")
        rows.append(f"  {name:34s} {st.calls:10d} calls "
                    f"{st.self_s * speed:10.4f} s self "
                    f"{st.total_s * speed:10.4f} s total")
    c = tracer.counters
    partial = tracer.stats["tensor_core.partial"]

    def ratio(a, b):
        return a / b if b else 0.0

    eigen = isinstance(workload, wl.EigenWorkload)

    extra = {
        "tensor_core.partial.us_per_call":
            (1e6 * speed * ratio(partial.self_s, partial.calls), "us"),
        "tensor_core.partial.rows_computed":
            (c["tensor_core.partial.rows_computed"], "count"),
        "tensor_core.partial.bytes_computed":
            (c["tensor_core.partial.bytes_computed"], "bytes"),
        "pam.pam_solve.sweeps": (c["pam.pam_solve.sweeps"], "count"),
        "pam.pam_solve.not_converged":
            (c["pam.pam_solve.not_converged"], "count"),
        "dinkelbach.solve.outer_iters":
            (c["dinkelbach.solve.outer_iters"], "count"),
        "dinkelbach.solve.pam_solves":
            (c["dinkelbach.solve.pam_solves"], "count"),
        "dinkelbach.solve.retries": (c["dinkelbach.solve.retries"], "count"),
        "dinkelbach.solve.not_converged":
            (c["dinkelbach.solve.not_converged"], "count"),
        "dinkelbach.solve.useful_solve_ratio":
            (ratio(c["dinkelbach.solve.trace_rows"],
                   c["dinkelbach.solve.pam_solves"]), "ratio"),
        "eigen.multistart.accepted_ratio":
            (ratio(traced.ok, traced.attempted) if eigen else 0.0,
             "ratio"),
        "eigen.multistart.extremal_hit_ratio":
            (ratio(traced.hits, traced.attempted) if eigen else 0.0,
             "ratio"),
        "trust_region.solve_boundary.inner_sweeps":
            (c["trust_region.solve_boundary.inner_sweeps"], "count"),
        "trust_region.solve_boundary.outer_rounds":
            (c["trust_region.solve_boundary.outer_rounds"], "count"),
        "trust_region.solve_boundary.not_converged":
            (c["trust_region.solve_boundary.not_converged"], "count"),
        "trust_region.check_second_order.certified_ratio":
            (ratio(c["trust_region.check_second_order.certified"],
                   tracer.stats["trust_region.check_second_order"].calls),
             "ratio"),
        "pam.warnings": (c["pam.warnings"], "count"),
        "trust_region.warnings": (c["trust_region.warnings"], "count"),
        "trace.wall_s": (traced.timed_s, "s"),
        "trace.overhead_s": (traced.timed_s - plain.timed_s, "s"),
        "trace.unwrapped_pct": (100.0 * remainder / raw_wall, "%"),
    }
    for key, (value, unit) in extra.items():
        metrics[key] = _metric(value, unit)
    notes = {"rounds": f"{workload.trace_rounds} rounds, untraced then "
                       f"traced; untraced {plain.timed_s:.4f} s, traced "
                       f"{traced.timed_s:.4f} s normalised "
                       f"({raw_wall:.4f} s raw)",
             "missing": ", ".join(tracer.missing) or "none"}
    return first, traced, metrics, notes, rows, fp_traced


def _recorded_fingerprint(name: str):
    path = HERE / "baseline.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get("fingerprints", {}).get(name)


def run_one(args) -> int:
    pkg = _import_package()
    import numpy as np
    import workloads as wl

    logging.basicConfig(level=logging.ERROR, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    workload = wl.WORKLOADS[args.workload]
    print(f"== {workload.name}: seed {args.seed}, "
          f"{'traced' if args.trace else f'{args.seconds:g} s untraced'}")
    print(f"   why: {workload.why}")
    print(f"   environment: {json.dumps(_environment(np))}")
    if args.trace:
        made, tally, metrics, notes, rows, fp = _traced(workload, pkg, wl,
                                                        args.seed)
        print(f"   {notes['rounds']}; targets not found: {notes['missing']}")
        print("   spans (seconds normalised; self time excludes wrapped "
              "child spans):")
        print("\n".join(rows))
    else:
        made, tally, metrics, notes = _untraced(workload, pkg, wl, args.seed,
                                                args.seconds)
        fp = workload.fingerprint(tally)
    print("   metrics:")
    for key, m in metrics.items():
        note = notes.get(key, "")
        print(f"     {key:48s} {m['value']:16.6f} {m['unit']:6s} {note}")
    # The fingerprint rounds have the same inputs in both modes and at
    # every seed, so any run can be compared with the recorded fingerprint.
    print(f"   fingerprint: {json.dumps(fp, sort_keys=True)}")
    recorded = _recorded_fingerprint(workload.name)
    if recorded is not None:
        same = json.loads(json.dumps(fp)) == recorded
        print(f"   fingerprint vs perfbench/baseline.json: "
              f"{'same' if same else 'DIFFERENT'}")
    print(f"   working set: {json.dumps(workload.working_set(made))}")
    if "speed" in notes:
        print(f"   {notes['speed']}")
    for text in tally.error_text[:10]:
        print(f"   error: {text}")
    correct = not tally.failures
    for text in tally.failures:
        print(f"   CHECK FAILED: {text}")
    print(f"   correctness: {'PASS' if correct else 'FAIL'}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.errors, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per
    workload; prints their reports and one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    verdicts = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (json.JSONDecodeError, IndexError):
            print("\n".join(lines))
            print(f"perfbench: workload {name} exited {proc.returncode} "
                  f"without a result", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = m
        verdicts.append(f"{name}: {'PASS' if result['correct'] else 'FAIL'}")
    print("== correctness: " + ", ".join(verdicts))
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
