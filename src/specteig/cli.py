"""Command line interface: eigen, examples, trust-region, verify.

Exit codes: 0 success, 1 input error, 2 no convergence, 3 invalid
denominator, 4 verification failure. The default seed can be overridden by
the SPECTEIG_SEED environment variable; an explicit --seed wins over both.
verify always runs at the default seed, the seed of the shipped records.
CSV and JSON outputs are deterministic for a fixed seed; wall-clock times
appear only in human tables and in the trust-region CSV time_s column.
"""

from __future__ import annotations

import argparse
import inspect
import json
import logging
import math
import os
import sys
import time
from dataclasses import replace
from importlib import resources

from .dinkelbach import DinkelbachConfig, write_trace_csv
from .eigen import (build_problem, format_table, report_to_csv,
                    report_to_json, residual, solve_multistart)
from .errors import (ArityError, ConfigError, DenominatorError, DimError,
                     DomainError, DuplicateEntryError, NumericalError,
                     ParseError, SpecteigError)
from .pam import PamConfig, Uniform
from .tensor_core import SymTensor, load_tensor
from .trust_region import (BoundaryConfig, check_second_order, load_poly,
                           random_cubic, solve_boundary)

logger = logging.getLogger(__name__)

DEFAULT_SEED = 1729

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_BAD_DENOMINATOR = 3
EXIT_VERIFY_FAILED = 4

#: The bundled studies: data files, kind, trial count and the solver
#: values each sets; every other value is its config dataclass's default.
EXAMPLE_SPECS = {
    "5.1": {"tensor": "example2.tns", "kind": "Z", "trials": 100,
            "gamma": 1.0, "alpha": None, "init": (-1.0, 1.0)},
    "5.2": {"tensor": "example3.tns", "kind": "H", "trials": 100,
            "gamma": 3.0, "alpha": 3.0, "init": (0.0, 1.0)},
    "5.3": {"tensor": "example4_A.tns", "b": "example4_B.tns", "kind": "D",
            "trials": 80, "gamma": 1.0, "alpha": 10.0, "init": (-1.0, 1.0)},
}

#: The bundled study tensors and their records at the default seed.
_DATA = resources.files("specteig.data")

#: Largest relative gap at which verify takes a study's float as its
#: record's: another BLAS build or CPU may round a sum differently and
#: move a value by a few ulps, where a changed solve moves it far more.
RECORD_RTOL = 1e-9

#: The BoundaryConfig fields that trust-region takes as flags.
_BOUNDARY_FLAGS = ("gamma", "alpha", "tol", "max_outer", "inner_eps")


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _resolve_seed(arg_seed: int | None) -> int:
    if arg_seed is not None:
        return arg_seed
    env = os.environ.get("SPECTEIG_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"SPECTEIG_SEED must be an integer, got {env!r}")
    return DEFAULT_SEED


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ParseError(f"expected LO:HI, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ParseError(f"expected LO:HI with numbers, got {text!r}")
    if not lo < hi:
        raise ParseError(f"need LO < HI, got {text!r}")
    return lo, hi


def _parse_sweep(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParseError(f"expected LO:HI:STEP, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ParseError(f"expected LO:HI:STEP with numbers, got {text!r}")
    if step <= 0 or hi < lo:
        raise ParseError(f"need LO <= HI and STEP > 0, got {text!r}")
    out = []
    v = lo
    while v <= hi + 1e-12:
        out.append(round(v, 12))
        v += step
    return out


def _load_bundled(name: str, data_dir: str | None) -> SymTensor:
    if data_dir is not None:
        return load_tensor(os.path.join(data_dir, name))
    with resources.as_file(_DATA / name) as path:
        return load_tensor(path)


def _build_parser() -> _Parser:
    parser = _Parser(prog="specteig",
                     description="Extremal symmetric-tensor eigenpairs and "
                                 "boundary trust-region steps.")
    parser.add_argument("--verbose", action="store_true",
                        help="show solver warnings on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eig = sub.add_parser("eigen", parents=[],
                           help="multistart extremal eigenpair solve")
    p_eig.add_argument("tensor", help="numerator tensor file")
    p_eig.add_argument("--kind", required=True,
                       choices=["z", "h", "d", "Z", "H", "D"],
                       help="eigenpair kind")
    p_eig.add_argument("--b", dest="b_path",
                       help="denominator tensor file (kind d)")
    p_eig.add_argument("--extremum", choices=["min", "max"], default="min")
    p_eig.add_argument("--trials", type=int, default=100)
    p_eig.add_argument("--seed", type=int, default=None)
    p_eig.add_argument("--tol", type=float, default=DinkelbachConfig.tol,
                       help="outer stopping tolerance (default %(default)g)")
    p_eig.add_argument("--eps", type=float, default=PamConfig.eps,
                       help="block solver stall tolerance (default "
                            "%(default)g)")
    p_eig.add_argument("--alpha", default="auto",
                       help="surrogate shift, or 'auto' for the operator "
                            "Frobenius norm (default auto)")
    p_eig.add_argument("--gamma", type=float, default=1.0,
                       help="proximal weight for every block (default 1)")
    p_eig.add_argument("--init-range", metavar="LO:HI",
                       default=f"{Uniform.lo:g}:{Uniform.hi:g}",
                       help="uniform init range (default %(default)s)")
    p_eig.add_argument("--max-inner", type=int, default=PamConfig.max_iter)
    p_eig.add_argument("--k-max", type=int, default=DinkelbachConfig.k_max)
    p_eig.add_argument("--cluster-tol", type=float, default=inspect.signature(
        solve_multistart).parameters["cluster_tol"].default,
                       help="cluster chaining gap (default %(default)s)")
    p_eig.add_argument("--jobs", type=int, default=1)
    p_eig.add_argument("--format", choices=["table", "csv", "json"],
                       default="table")
    p_eig.add_argument("--history", metavar="PATH",
                       help="write the first trial's parametric trace CSV")

    p_ex = sub.add_parser("examples", help="replicate the bundled studies")
    p_ex.add_argument("which", choices=["5.1", "5.2", "5.3", "all"])
    p_ex.add_argument("--trials", type=int, default=None,
                      help="override the per-example trial count")
    p_ex.add_argument("--seed", type=int, default=None)
    p_ex.add_argument("--jobs", type=int, default=1)
    p_ex.add_argument("--format", choices=["table", "csv", "json"],
                      default="table")
    p_ex.add_argument("--sidecar", metavar="PATH",
                      help="JSON sidecar path (single example only)")

    p_tr = sub.add_parser("trust-region", help="boundary step for a cubic "
                                               "or explicit polynomial")
    p_tr.add_argument("poly", nargs="?", help="polynomial JSON file")
    p_tr.add_argument("--random", type=int, metavar="N",
                      help="use a seeded random cubic on R^N instead")
    p_tr.add_argument("--seed", type=int, default=None)
    scales = inspect.signature(random_cubic).parameters["scales"].default
    p_tr.add_argument("--scales", default=",".join(f"{x:g}" for x in scales),
                      metavar="A,B,C",
                      help="random cubic block scales (default %(default)s)")
    p_tr.add_argument("--delta", type=float, default=2.0)
    p_tr.add_argument("--delta-sweep", metavar="LO:HI:STEP",
                      help="solve over a grid of radius values instead of "
                           "one")
    for name in _BOUNDARY_FLAGS:
        default = getattr(BoundaryConfig, name)
        p_tr.add_argument("--" + name.replace("_", "-"), type=type(default),
                          default=default, help="default %(default)g")
    p_tr.add_argument("--format", choices=["table", "csv", "json"],
                      default="table")
    p_tr.add_argument("--history", metavar="PATH",
                      help="write the per-round model value CSV")

    p_ver = sub.add_parser("verify", help="rerun the bundled studies and "
                                          "compare them with their records")
    p_ver.add_argument("--data", metavar="DIR", default=None,
                       help="override the bundled data directory")
    return parser


def _emit_eigen_report(problem, report, fmt: str, tol: float) -> int:
    # Re-verify rows before emitting; drop any that fail the residual bound.
    kept = tuple(p for p in report.pairs
                 if residual(problem, p.lambda_, p.x) <= tol)
    if len(kept) != len(report.pairs):
        logger.warning("dropped %d rows failing re-verification",
                       len(report.pairs) - len(kept))
        report = replace(report, pairs=kept)
    if fmt == "table":
        print(format_table(report))
    elif fmt == "csv":
        sys.stdout.write(report_to_csv(report))
    else:
        print(report_to_json(report))
    return EXIT_OK if report.pairs else EXIT_NO_CONVERGENCE


def _cmd_eigen(args) -> int:
    seed = _resolve_seed(args.seed)
    a = load_tensor(args.tensor)
    b = load_tensor(args.b_path) if args.b_path else None
    problem = build_problem(a, args.kind, b=b, extremum=args.extremum)
    if str(args.alpha).lower() == "auto":
        alpha = None
    else:
        try:
            alpha = float(args.alpha)
        except ValueError:
            raise ParseError(f"--alpha must be 'auto' or a number, "
                             f"got {args.alpha!r}")
    inner = PamConfig(gammas=(args.gamma,) * a.order, alpha=alpha,
                      eps=args.eps, max_iter=args.max_inner, seed=seed,
                      init=Uniform(*_parse_range(args.init_range)))
    config = DinkelbachConfig(inner=inner, tol=args.tol, k_max=args.k_max)
    report = solve_multistart(problem, args.trials, seed, config,
                              cluster_tol=args.cluster_tol, jobs=args.jobs)
    if args.history:
        # the parametric trace of the trial seeded with the base seed
        write_trace_csv(report.trace, args.history)
    return _emit_eigen_report(problem, report, args.format, args.tol)


def _study_config(spec: dict, order: int, seed: int) -> DinkelbachConfig:
    """The solve config of a study at a seed: its own gamma, alpha and
    init range, and the config dataclasses' defaults for everything else."""
    return DinkelbachConfig(inner=PamConfig(
        gammas=(spec["gamma"],) * order, alpha=spec["alpha"], seed=seed,
        init=Uniform(*spec["init"])))


def _run_example(spec: dict, seed: int, jobs: int = 1,
                 data_dir: str | None = None):
    """Solve a study spec, an EXAMPLE_SPECS entry or a variant of one, at
    its trial count from the bundled data (or data_dir)."""
    a = _load_bundled(spec["tensor"], data_dir)
    b = _load_bundled(spec["b"], data_dir) if "b" in spec else None
    problem = build_problem(a, spec["kind"], b=b)
    config = _study_config(spec, a.order, seed)
    report = solve_multistart(problem, spec["trials"], seed, config,
                              jobs=jobs)
    return problem, config, report


def _sidecar(tag: str, spec: dict, seed: int, config: DinkelbachConfig,
             report) -> str:
    """The JSON sidecar of a study run, its values and its report: what
    `examples` writes and `verify` compares with the shipped record."""
    doc = {
        "example": tag,
        "kind": spec["kind"],
        "params": {
            "trials": report.trials,
            "seed": seed,
            "gamma": spec["gamma"],
            "alpha": spec["alpha"],
            "init_range": list(spec["init"]),
            "tol": config.tol,
            "eps": config.inner.eps,
        },
        "report": json.loads(report_to_json(report)),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cmd_examples(args) -> int:
    seed = _resolve_seed(args.seed)
    tags = ["5.1", "5.2", "5.3"] if args.which == "all" else [args.which]
    if args.sidecar and len(tags) > 1:
        raise ParseError("--sidecar needs a single example, not 'all'")
    worst = EXIT_OK
    for tag in tags:
        spec = EXAMPLE_SPECS[tag]
        if args.trials is not None:
            spec = {**spec, "trials": args.trials}
        problem, config, report = _run_example(spec, seed, args.jobs)
        if args.format == "table":
            print(f"== example {tag} (kind {spec['kind']}, "
                  f"{report.trials} trials) ==")
        code = _emit_eigen_report(problem, report, args.format, config.tol)
        worst = max(worst, code)
        with open(args.sidecar or f"examples_{tag}.json", "w",
                  encoding="utf-8") as fh:
            fh.write(_sidecar(tag, spec, seed, config, report))
    return worst


def _tr_rows_to_text(rows, fmt: str, sweep: bool) -> str:
    cols = ["n", "iters", "lambda", "value", "grad_norm", "proj_PD",
            "time_s"]
    if sweep:
        cols = ["delta"] + cols
    if fmt == "json":
        # time_s is excluded so JSON output is run-to-run identical.
        payload = [{k: row[k] for k in cols if k != "time_s"}
                   for row in rows]
        return json.dumps(payload, indent=2, sort_keys=True)
    if fmt == "csv":
        lines = [",".join(cols)]
        for row in rows:
            cells = []
            for k in cols:
                v = row[k]
                cells.append(f"{v:.10g}" if isinstance(v, float) else str(v))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    widths = {k: max(len(k), 12) for k in cols}
    head = " | ".join(f"{k:>{widths[k]}}" for k in cols)
    lines = [head, "-" * len(head)]
    for row in rows:
        cells = []
        for k in cols:
            v = row[k]
            cells.append(f"{v:>{widths[k]}.6g}" if isinstance(v, float)
                         else f"{v!s:>{widths[k]}}")
        lines.append(" | ".join(cells))
    return "\n".join(lines)


def _cmd_trust_region(args) -> int:
    seed = _resolve_seed(args.seed)
    if (args.poly is None) == (args.random is None):
        raise ParseError("give exactly one of POLY or --random N")
    if args.random is not None:
        try:
            scales = tuple(float(x) for x in args.scales.split(","))
        except ValueError:
            raise ParseError(f"expected A,B,C numbers, got {args.scales!r}")
        if len(scales) != 3:
            raise ParseError(f"expected three scales, got {args.scales!r}")
        poly = random_cubic(args.random, seed, scales)
    else:
        poly = load_poly(args.poly)
    config = BoundaryConfig(**{k: getattr(args, k) for k in _BOUNDARY_FLAGS})
    deltas = _parse_sweep(args.delta_sweep) if args.delta_sweep \
        else [args.delta]
    rows = []
    all_converged = True
    last_result = None
    for delta in deltas:
        t0 = time.perf_counter()
        result = solve_boundary(poly, delta, config)
        elapsed = time.perf_counter() - t0
        _, proj_pd = check_second_order(poly, result.s, result.lambda_)
        all_converged &= result.converged
        last_result = result
        rows.append({
            "delta": float(delta),
            "n": poly.n,
            "iters": result.inner_iters,
            "lambda": result.lambda_,
            "value": result.value,
            "grad_norm": result.grad_lagrangian_norm,
            "proj_PD": int(proj_pd),
            "time_s": elapsed,
        })
    out = _tr_rows_to_text(rows, args.format,
                           sweep=args.delta_sweep is not None)
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    if args.history and last_result is not None:
        with open(args.history, "w", encoding="utf-8") as fh:
            fh.write("iter,value\n")
            for i, v in enumerate(last_result.history, start=1):
                fh.write(f"{i},{v:.17g}\n")
    return EXIT_OK if all_converged else EXIT_NO_CONVERGENCE


def _gaps(new, old, path: str = "$"):
    """(relative gap, path) of each leaf of two JSON trees: the relative
    difference of two floats; else 0 where the two are equal, and inf
    where a type, a key, a length or a value differs."""
    if type(new) is type(old) is dict and new.keys() == old.keys():
        for key in old:
            yield from _gaps(new[key], old[key], f"{path}.{key}")
    elif type(new) is type(old) is list and len(new) == len(old):
        for i, pair in enumerate(zip(new, old)):
            yield from _gaps(*pair, f"{path}[{i}]")
    elif type(new) is type(old) is float:
        yield abs(new - old) / (max(abs(new), abs(old)) or 1.0), path
    else:
        yield 0.0 if type(new) is type(old) and new == old else math.inf, path


def _compare(sidecar: str, record: str) -> tuple[bool, str]:
    """Whether a study's sidecar matches its record, and how closely."""
    if sidecar == record:
        return True, "bit-identical"
    gaps = list(_gaps(json.loads(sidecar), json.loads(record)))
    gap, path = next((g for g in gaps if not g[0] <= RECORD_RTOL), max(gaps))
    if gap <= RECORD_RTOL:
        return True, f"within {RECORD_RTOL:g}, largest relative gap " \
                     f"{gap:.1e} at {path}"
    return False, f"{path} differs from the record" if gap == math.inf \
        else f"relative gap {gap:.1e} at {path}, beyond {RECORD_RTOL:g}"


def _cmd_verify(args) -> int:
    failed = 0
    for tag, spec in EXAMPLE_SPECS.items():
        try:
            _, config, report = _run_example(spec, DEFAULT_SEED,
                                             data_dir=args.data)
            ok, detail = _compare(
                _sidecar(tag, spec, DEFAULT_SEED, config, report),
                (_DATA / f"examples_{tag}.json").read_text(encoding="utf-8"))
        except (SpecteigError, OSError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'} example {tag}: {detail}")
        failed += not ok
    print(f"{'OK' if failed == 0 else 'FAILED'}: "
          f"{failed} of {len(EXAMPLE_SPECS)} studies failing")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.verbose else logging.ERROR,
        stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "eigen":
            return _cmd_eigen(args)
        if args.command == "examples":
            return _cmd_examples(args)
        if args.command == "trust-region":
            return _cmd_trust_region(args)
        return _cmd_verify(args)
    except DenominatorError as exc:
        print(f"specteig: invalid denominator: {exc}", file=sys.stderr)
        return EXIT_BAD_DENOMINATOR
    except (ParseError, ConfigError, DomainError, ArityError, DimError,
            DuplicateEntryError, IndexError, FileNotFoundError,
            IsADirectoryError, PermissionError) as exc:
        print(f"specteig: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"specteig: solver failure: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
