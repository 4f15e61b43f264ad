"""Fractional programming loop for ratios of homogeneous sphere forms.

Minimizes f(x)/g(x) over the unit sphere, with f and g the homogeneous
forms of two symmetric tensors A and B, g positive on the sphere, by
repeatedly minimizing the parametric difference f - theta * g, the form of
the one tensor A - theta * B, with the PAM block solver and updating theta
to the ratio at the new iterate. The parametric optimal value F(theta) is
nondecreasing and nonpositive along the run while theta is nonincreasing,
and the loop stops when |F(theta)| falls below tolerance.

The loop is written once, as the generator :func:`dinkelbach_steps`, which
hands each PAM subproblem to a lockstep pool and waits for its result. A
multistart run puts the loops of all its trials in one pool;
:func:`dinkelbach_solve` runs one loop in a pool of its own. The
subproblem warnings of a solve are logged once, with their counts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Generator

import numpy as np

from .errors import (ArityError, DenominatorError, DimError, DomainError,
                     NumericalError)
from .pam import (Given, PamConfig, PamRequest, PamResult, Uniform,
                  _starts, run_alone)
from .tensor_core import (HDiagonal, SymTensor, ZIdentity, _check_count,
                          _check_real, _check_type, _per_shape, _unit_point)

__all__ = [
    "FractionalProblem",
    "DinkelbachConfig",
    "DinkelbachResult",
    "f_theta",
    "dinkelbach_steps",
    "dinkelbach_solve",
    "write_trace_csv",
]

#: Trace slack for the monotonicity checks on the returned trace.
MONOTONE_SLACK = 1e-9

#: Sphere samples and their seed that vet an unstructured denominator.
_POSITIVITY_SAMPLES, _POSITIVITY_SEED = 100, 12345


@_per_shape
def _positivity_samples(dim: int) -> np.ndarray:
    """The read-only (100, dim) unit vectors that vet a denominator on
    R^dim."""
    us = np.random.default_rng(_POSITIVITY_SEED).standard_normal(
        (_POSITIVITY_SAMPLES, dim))
    # a (1, n) @ (n, 1) product per row sums |u|^2 as np.linalg.norm does
    us /= np.sqrt(us[:, None, :] @ us[:, :, None])[:, 0]
    us.flags.writeable = False
    return us


@dataclass(frozen=True)
class FractionalProblem:
    """Ratio of a symmetric numerator form to a positive denominator form.

    The degree is even, so ZIdentity (1 on the sphere) and HDiagonal
    (sum_i x_i^m) are positive by their form. Any other denominator is
    vetted on 100 unit vectors from a fixed seed, evaluated in one gather;
    a nonpositive sample raises DenominatorError naming the first drawn.
    """

    numerator: SymTensor
    denominator: SymTensor

    def __post_init__(self):
        a, b = self.numerator, self.denominator
        _check_type("numerator", a, SymTensor)
        _check_type("denominator", b, SymTensor)
        if a.order != b.order:
            raise ArityError(f"numerator order {a.order} does not match "
                             f"denominator order {b.order}")
        if a.dim != b.dim:
            raise DimError(f"numerator dim {a.dim} does not match "
                           f"denominator dim {b.dim}")
        if a.order % 2 != 0:
            raise ArityError(f"degree must be even, got {a.order}")
        if isinstance(b, (ZIdentity, HDiagonal)):
            return
        vals = b.apply_full_many(_positivity_samples(a.dim))
        bad = np.flatnonzero(vals <= 0)
        if bad.size:
            raise DenominatorError(
                f"denominator form is not positive on the sphere "
                f"(sampled value {vals[bad[0]]:.6g})")

    @property
    def degree(self) -> int:
        return self.numerator.order

    @property
    def dim(self) -> int:
        return self.numerator.dim


@dataclass(frozen=True)
class DinkelbachConfig:
    """Outer-loop parameters; inner carries the PAM block-solver settings.

    The run starts from inner.init: the first given block, or a uniform
    draw from the run's generator.
    """

    inner: PamConfig
    tol: float = 1e-3
    k_max: int = 50

    def __post_init__(self):
        _check_type("inner", self.inner, PamConfig)
        _check_real("tol", self.tol, positive=True)
        _check_count("k_max", self.k_max)


@dataclass(frozen=True)
class DinkelbachResult:
    """theta is the parameter at the stopping test, x the unit minimizer
    that passed it, trace the per-iteration rows (k, theta, F(theta))."""

    theta: float
    x: np.ndarray
    outer_iters: int
    trace: tuple[tuple[int, float, float], ...]
    converged: bool
    inner_iters: int
    n_solves: int


def f_theta(problem: FractionalProblem, theta: float,
            x: np.ndarray) -> float:
    """Parametric objective f(x) - theta * g(x) at x normalized to the
    sphere. A non-finite x or theta raises DomainError."""
    _check_real("theta", theta, DomainError, signed=True)
    x = _unit_point(x, problem.dim)
    return (problem.numerator.apply_full(x)
            - theta * problem.denominator.apply_full(x))


def _initial_point(problem: FractionalProblem, config: DinkelbachConfig,
                   rng: np.random.Generator) -> np.ndarray:
    """The first start of inner.init by the pool's rule (_starts): the
    first of the given blocks, or one draw, divided by its norm."""
    init = config.inner.init
    d = len(config.inner.gammas) if isinstance(init, Given) else 1
    x0, nx = _starts(init, rng, d, problem.dim)[0]
    return x0 / nx


def dinkelbach_steps(problem: FractionalProblem, config: DinkelbachConfig,
                     seed: int | None = None
                     ) -> Generator[PamRequest, PamResult, DinkelbachResult]:
    """The parametric loop as a program for :func:`run_lockstep`: yields
    each PAM subproblem as a PamRequest of (A, B, theta) and its start, is
    sent its PamResult, and returns the DinkelbachResult once
    |F(theta)| < tol or k_max is reached.

    Random draws come from a generator seeded with seed (default
    config.inner.seed). The trial's initial point seeds both theta and the
    first PAM run (the start of every block); later runs warm-start from
    the previous minimizer. Two certification checks guard the loop. First,
    a PAM result that fails to certify descent (parametric value at or
    above tol) triggers one retry from a fresh random init, keeping the
    better candidate; if the retry cannot certify either, the run stops
    with converged=False rather than moving theta upward. Second, a parametric
    value strictly below the previous iteration's (beyond slack) proves the
    previous subproblem stopped short of its minimum, so the run likewise
    stops with converged=False before recording the offending row. Both
    guards keep the recorded trace monotone by construction; a returned
    trace that is not monotone anyway raises NumericalError. outer_iters
    counts the iterations that moved theta, i.e. one less than the number of
    parametric subproblems solved, with a floor of 1.
    """
    a, b = problem.numerator, problem.denominator
    rng = np.random.default_rng(config.inner.seed if seed is None else seed)
    x0 = _initial_point(problem, config, rng)
    g0 = b.apply_full(x0)
    if g0 <= 0:
        raise DenominatorError(f"denominator is {g0:.6g} at the initial "
                               f"point")
    theta = a.apply_full(x0) / g0
    fresh_init = config.inner.init if isinstance(config.inner.init, Uniform) \
        else Uniform()
    trace: list[tuple[int, float, float]] = []
    x = x0
    inner_total = 0
    solves = 0
    converged = False
    for k in range(1, config.k_max + 1):
        # the warm start, then the retry; the loop ends when neither
        # certifies descent
        for start in (x, fresh_init):
            res = yield PamRequest(a, config.inner, rng, b, theta, start)
            inner_total += res.iterations
            solves += 1
            u = res.v / math.sqrt(res.v.dot(res.v))
            f_u = f_theta(problem, theta, u)
            if start is x or f_u < big_f:
                v, big_f = u, f_u
            if big_f < config.tol:
                break
        else:
            break
        # the exact negation of the trace check below
        if trace and trace[-1][2] > big_f + MONOTONE_SLACK:
            break
        trace.append((k, theta, big_f))
        x = v
        if abs(big_f) < config.tol:
            converged = True
            break
        g = b.apply_full(v)
        if g <= 0:
            raise DenominatorError(f"denominator is {g:.6g} at iterate {k}")
        theta = a.apply_full(v) / g
    thetas = [t for _, t, _ in trace]
    fs = [f for _, _, f in trace]
    for i in range(len(trace) - 1):
        if thetas[i + 1] > thetas[i] + MONOTONE_SLACK:
            raise NumericalError(f"theta increased at iteration {i + 2}")
        if fs[i] > fs[i + 1] + MONOTONE_SLACK:
            raise NumericalError(f"parametric value decreased at iteration "
                                 f"{i + 2}")
    if any(f > config.tol + MONOTONE_SLACK for f in fs):
        raise NumericalError("parametric value exceeded the stopping "
                             "tolerance from above")
    return DinkelbachResult(theta=theta, x=x,
                            outer_iters=max(1, len(trace) - 1),
                            trace=tuple(trace), converged=converged,
                            inner_iters=inner_total, n_solves=solves)


def dinkelbach_solve(problem: FractionalProblem,
                     config: DinkelbachConfig) -> DinkelbachResult:
    """Run the parametric loop of :func:`dinkelbach_steps` from one start,
    in a lockstep pool of its own, and log its subproblems' warnings once.
    """
    _check_type("problem", problem, FractionalProblem)
    _check_type("config", config, DinkelbachConfig)
    return run_alone(dinkelbach_steps(problem, config))


def write_trace_csv(trace, path) -> None:
    """Write per-iteration rows as CSV with header k,theta,F_theta."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "theta", "F_theta"])
        for k, theta, big_f in trace:
            writer.writerow([k, f"{theta:.17g}", f"{big_f:.17g}"])
