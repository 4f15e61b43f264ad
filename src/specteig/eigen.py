"""Extremal generalized tensor eigenpairs by multistart fractional solves.

A pair (lambda, x) with A x^(m-1) = lambda * B x^(m-1) and |x| = 1 comes in
kinds distinguished by the denominator tensor B: the identity tensor
(unit-sphere normalization), the diagonal tensor (componentwise powers), or
any symmetric tensor positive on the sphere. The extremal eigenvalue is
the extremum of the ratio A x^m / B x^m on the sphere, found here by running
the fractional loop from many random starts and clustering the outcomes.

The trials of a multistart run (of each process, with jobs > 1) run side by
side in one lockstep pool: every tick sweeps the current PAM subproblem of
every live trial in stacked array calls, and a trial whose subproblem
stops takes its next fractional step at once. Trials therefore have no CPU
time of their own. The pool's process CPU time is measured and apportioned
to its trials in proportion to the sweeps their subproblems took.
"""

from __future__ import annotations

import json
import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Generator

import numpy as np

from .dinkelbach import (DinkelbachConfig, FractionalProblem,
                         dinkelbach_steps)
from .errors import ConfigError, DenominatorError, NumericalError
from .pam import PamStats, run_lockstep
from .tensor_core import (HDiagonal, SymTensor, ZIdentity, _check_count,
                          _check_point)

logger = logging.getLogger(__name__)

__all__ = [
    "KINDS",
    "GeneralizedEigenProblem",
    "EigenPair",
    "MultiStartReport",
    "build_problem",
    "rayleigh",
    "residual",
    "solve_multistart",
    "format_table",
    "report_to_json",
    "report_to_csv",
]

#: Each kind and the denominator class it requires.
_KIND_DENOMINATOR = {"Z": ZIdentity, "H": HDiagonal, "D": SymTensor}
KINDS = tuple(_KIND_DENOMINATOR)
EXTREMA = ("min", "max")

#: Components smaller than this are skipped when fixing the sign of a
#: reported eigenvector.
_SIGN_TOL = 1e-8


@dataclass(frozen=True)
class GeneralizedEigenProblem:
    """Eigenpair problem A x^(m-1) = lambda B x^(m-1) with a target
    extremum."""

    a: SymTensor
    b: SymTensor
    kind: str
    extremum: str = "min"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, "
                              f"got {self.kind!r}")
        if self.extremum not in EXTREMA:
            raise ConfigError(f"extremum must be one of {EXTREMA}, "
                              f"got {self.extremum!r}")
        if not isinstance(self.a, SymTensor):
            raise ConfigError(f"numerator must be a SymTensor, got "
                              f"{type(self.a).__name__}")
        required = _KIND_DENOMINATOR[self.kind]
        if not isinstance(self.b, required):
            raise ConfigError(f"kind {self.kind} requires a "
                              f"{required.__name__} denominator, got "
                              f"{type(self.b).__name__}")
        if self.a.order != self.b.order or self.a.dim != self.b.dim:
            raise ConfigError(
                f"operator shapes disagree: ({self.a.order},{self.a.dim}) "
                f"vs ({self.b.order},{self.b.dim})")

    @cached_property
    def fractional(self) -> FractionalProblem:
        """The ratio the trials minimize, built (and its denominator
        vetted) on first use only: A over B, or -A over B for a max
        problem."""
        a = self.a if self.extremum == "min" else self.a.scaled(-1.0)
        return FractionalProblem(a, self.b)


def build_problem(a: SymTensor, kind: str, b: SymTensor | None = None,
                  extremum: str = "min") -> GeneralizedEigenProblem:
    """Assemble the eigenproblem for a kind tag (case-insensitive).

    Z uses the unit-sphere normalizer, H the componentwise-power normalizer;
    D requires an explicit denominator tensor, used as it is.
    """
    kind = str(kind).upper()
    extremum = str(extremum).lower()
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")
    if kind == "D":
        if b is None:
            raise ConfigError("kind D requires a denominator tensor")
    elif b is not None:
        raise ConfigError(f"kind {kind} fixes its denominator; do not pass "
                          f"one")
    elif isinstance(a, SymTensor):  # else the problem rejects a
        b = _KIND_DENOMINATOR[kind](a.order, a.dim)
    return GeneralizedEigenProblem(a=a, b=b, kind=kind, extremum=extremum)


def rayleigh(problem: GeneralizedEigenProblem, x: np.ndarray) -> float:
    """Ratio A x^m / B x^m at x normalized to the unit sphere. A
    non-finite x raises DomainError."""
    x = _check_point(x, problem.a.dim)
    nx = math.sqrt(np.dot(x, x))
    if nx == 0.0:
        raise DenominatorError("cannot normalize the zero vector")
    x = x / nx
    g = problem.b.apply_full(x)
    if g == 0.0:
        raise DenominatorError("denominator form vanishes at x")
    return problem.a.apply_full(x) / g


def residual(problem: GeneralizedEigenProblem, lam: float,
             x: np.ndarray) -> float:
    """Euclidean norm of A x^(m-1) - lambda * B x^(m-1). A non-finite x
    raises DomainError."""
    x = _check_point(x, problem.a.dim)
    r = problem.a.apply_gradient(x) - lam * problem.b.apply_gradient(x)
    return math.sqrt(np.dot(r, r))


@dataclass(frozen=True)
class EigenPair:
    """Clustered eigenpair with occurrence and effort stats.

    mean_cpu_s is the mean over the cluster's trials of each trial's share
    of its pool's process CPU seconds, apportioned by sweeps.
    """

    lambda_: float
    x: np.ndarray
    residual: float
    trials_hit: int
    mean_inner_iters: float
    std_inner_iters: float
    mean_outer_iters: float
    mean_cpu_s: float


@dataclass(frozen=True)
class MultiStartReport:
    """Clustered multistart outcome; pairs are sorted by eigenvalue.

    total_cpu_s is the process CPU time of the pools that ran the trials,
    summed over processes.
    """

    pairs: tuple[EigenPair, ...]
    trials: int
    seed: int
    cluster_tol: float
    accepted: int
    total_cpu_s: float


@dataclass
class _Trial:
    lambda_: float
    x: np.ndarray
    residual: float
    accepted: bool
    inner_iters: int
    outer_iters: int
    cpu_s: float


def _trial(problem: GeneralizedEigenProblem, config: DinkelbachConfig,
           seed: int) -> Generator:
    """One trial as a lockstep-pool program: its fractional solve and the
    eigenpair it lands on (rejected when the solve raised DenominatorError
    or NumericalError), with its CPU share still 0."""
    try:
        res = yield from dinkelbach_steps(problem.fractional, config, seed)
    except (DenominatorError, NumericalError):
        return _Trial(lambda_=np.nan, x=np.zeros(problem.a.dim),
                      residual=np.inf, accepted=False, inner_iters=0,
                      outer_iters=0, cpu_s=0.0)
    lam = rayleigh(problem, res.x)
    resid = residual(problem, lam, res.x)
    accepted = bool(res.converged and resid <= config.tol)
    return _Trial(lambda_=lam, x=res.x, residual=resid, accepted=accepted,
                  inner_iters=res.inner_iters, outer_iters=res.outer_iters,
                  cpu_s=0.0)


def _run_chunk(problem: GeneralizedEigenProblem, config: DinkelbachConfig,
               seeds: list[int]) -> tuple[list[_Trial], float, PamStats]:
    """Run the trials of some seeds in one lockstep pool. Returns them, the
    pool's CPU time, which each trial shares in proportion to the sweeps
    its subproblems took, and the pool's warning aggregates."""
    stats = PamStats()
    t0 = time.process_time()
    outcomes, sweeps = run_lockstep(
        [_trial(problem, config, s) for s in seeds], stats)
    cpu = time.process_time() - t0
    total = sum(sweeps)
    for t, swept in zip(outcomes, sweeps):
        t.cpu_s = cpu * swept / total if total else cpu / len(seeds)
    return outcomes, cpu, stats


def _canonical_sign(x: np.ndarray) -> np.ndarray:
    for comp in x:
        if abs(comp) > _SIGN_TOL:
            return -x if comp < 0 else x.copy()
    return x.copy()


def solve_multistart(problem: GeneralizedEigenProblem, trials: int,
                     base_seed: int, config: DinkelbachConfig,
                     cluster_tol: float = 1e-4,
                     jobs: int = 1) -> MultiStartReport:
    """Run independent fractional solves and cluster the eigenvalues found.

    Trial t uses seed base_seed XOR t, so any jobs count reproduces the same
    report. A trial is accepted when the loop converged and its eigenpair
    residual is within config.tol; a trial whose solve raises
    DenominatorError or NumericalError counts as rejected. Accepted
    eigenvalues closer than cluster_tol chain into one cluster, represented
    by the member with the smallest residual, its eigenvector sign-fixed to
    a positive leading component. A max problem negates the numerator
    internally and reports the ratio of the original operators. The trials
    run in one lockstep pool per process (jobs > 1 splits them into jobs
    contiguous parts), and the pool warnings of the whole run are logged
    once. trials and jobs must be integers >= 1, base_seed one >= 0 and
    cluster_tol positive; anything else raises ConfigError before a run.
    """
    _check_count("trials", trials)
    _check_count("jobs", jobs)
    _check_count("base_seed", base_seed, least=0)
    # written so that NaN fails the test
    if not cluster_tol > 0:
        raise ConfigError(f"cluster_tol must be positive, got {cluster_tol}")
    # built here, so that a denominator that fails its vetting raises
    # before any trial runs, and pickled with the problem for jobs > 1
    problem.fractional
    seeds = [base_seed ^ t for t in range(trials)]
    parts = min(jobs, trials)
    chunks = [seeds[i * trials // parts:(i + 1) * trials // parts]
              for i in range(parts)]
    if parts > 1:
        with ProcessPoolExecutor(max_workers=parts) as pool:
            runs = list(pool.map(_run_chunk, [problem] * parts,
                                 [config] * parts, chunks))
    else:
        runs = [_run_chunk(problem, config, c) for c in chunks]
    outcomes = [t for chunk, _, _ in runs for t in chunk]
    stats = PamStats()
    for _, _, part in runs:
        stats.merge(part)
    stats.log()
    accepted = [t for t in outcomes if t.accepted]
    n_rejected = trials - len(accepted)
    if n_rejected:
        logger.info("%d of %d trials not accepted", n_rejected, trials)
    accepted.sort(key=lambda t: t.lambda_)
    clusters: list[list[_Trial]] = []
    for t in accepted:
        if clusters and t.lambda_ - clusters[-1][-1].lambda_ < cluster_tol:
            clusters[-1].append(t)
        else:
            clusters.append([t])
    pairs = []
    for cluster in clusters:
        rep = min(cluster, key=lambda t: t.residual)
        inner = np.array([t.inner_iters for t in cluster], dtype=float)
        outer = np.array([t.outer_iters for t in cluster], dtype=float)
        cpu = np.array([t.cpu_s for t in cluster], dtype=float)
        pairs.append(EigenPair(
            lambda_=rep.lambda_,
            x=_canonical_sign(rep.x),
            residual=rep.residual,
            trials_hit=len(cluster),
            mean_inner_iters=float(inner.mean()),
            std_inner_iters=float(inner.std()),
            mean_outer_iters=float(outer.mean()),
            mean_cpu_s=float(cpu.mean()),
        ))
    total_cpu = float(sum(cpu for _, cpu, _ in runs))
    return MultiStartReport(pairs=tuple(pairs), trials=trials,
                            seed=base_seed, cluster_tol=cluster_tol,
                            accepted=len(accepted), total_cpu_s=total_cpu)


def _occurrence_pct(hits: int, accepted: int) -> float:
    """Share of accepted trials landing in a cluster; rows sum to 100."""
    return 100.0 * hits / accepted if accepted > 0 else 0.0


def format_table(report: MultiStartReport) -> str:
    """Aligned text table, one row per clustered eigenpair. The cpu
    share column is the mean pool CPU seconds apportioned to the cluster's
    trials by sweeps."""
    header = (f"{'occ(%)':>7} | {'lambda':>10} | {'x':^34} | "
              f"{'inner its':>16} | {'outer its':>12} | "
              f"{'cpu share(s)':>12}")
    lines = [header, "-" * len(header)]
    for p in report.pairs:
        occ = _occurrence_pct(p.trials_hit, report.accepted)
        xs = ", ".join(f"{c:7.4f}" for c in p.x)
        inner = f"{p.mean_inner_iters:.2f} +- {p.std_inner_iters:.2f}"
        outer = f"{p.mean_outer_iters:.2f}"
        lines.append(f"{occ:7.2f} | {p.lambda_:10.4f} | ({xs:<30}) | "
                     f"{inner:>16} | {outer:>12} | {p.mean_cpu_s:12.4f}")
    lines.append(f"# trials={report.trials} accepted={report.accepted} "
                 f"seed={report.seed} cluster_tol={report.cluster_tol:g} "
                 f"total_cpu_s={report.total_cpu_s:.3f}")
    return "\n".join(lines)


def _pair_dict(p: EigenPair, accepted: int) -> dict:
    return {
        "occurrence_pct": round(_occurrence_pct(p.trials_hit, accepted), 10),
        "lambda": p.lambda_,
        "x": [float(c) for c in p.x],
        "residual": p.residual,
        "trials_hit": p.trials_hit,
        "mean_inner_iters": p.mean_inner_iters,
        "std_inner_iters": p.std_inner_iters,
        "mean_outer_iters": p.mean_outer_iters,
    }


def report_to_json(report: MultiStartReport) -> str:
    """Deterministic JSON rendering; wall-clock fields are left out."""
    doc = {
        "trials": report.trials,
        "seed": report.seed,
        "cluster_tol": report.cluster_tol,
        "accepted": report.accepted,
        "pairs": [_pair_dict(p, report.accepted) for p in report.pairs],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def report_to_csv(report: MultiStartReport) -> str:
    """Deterministic CSV rendering; wall-clock fields are left out."""
    lines = ["occ_pct,lambda,residual,trials_hit,mean_inner_iters,"
             "std_inner_iters,mean_outer_iters,x"]
    for p in report.pairs:
        occ = _occurrence_pct(p.trials_hit, report.accepted)
        xs = " ".join(f"{c:.10g}" for c in p.x)
        lines.append(f"{occ:.10g},{p.lambda_:.10g},{p.residual:.10g},"
                     f"{p.trials_hit},{p.mean_inner_iters:.10g},"
                     f"{p.std_inner_iters:.10g},{p.mean_outer_iters:.10g},"
                     f"{xs}")
    return "\n".join(lines) + "\n"
