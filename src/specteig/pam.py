"""Proximal alternating minimization (PAM) over products of spheres.

Minimizes the multilinear surrogate h(x_1, ..., x_d) = <H, x_1 o ... o x_d>
of the single symmetric tensor H = A - alpha * E, E the identity tensor of
order d, by cyclic closed-form block updates with proximal damping. On the
diagonal x_1 = ... = x_d the surrogate reduces to the homogeneous objective
<A, x^d> - alpha |x|^d. On the unit sphere its Hessian is at most
d((d - 1)|A|_F - alpha) I, so with alpha at least (d - 1) times the
Frobenius norm of A that homogeneous objective is concave, every block
update lands on the sphere boundary, and the best block's value bounds the
multilinear optimum from above. The default shift, the Frobenius norm
itself, does not guarantee concavity.

The blocks live in one (d, n) array. A sweep takes every slot's partial
from SymTensor.sweep_partials, which shares the suffix contractions across
slots as fast CP-ALS does; the last partial dotted with its block is the
multilinear value, and one gather evaluates every block's homogeneous value.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import ArityError, ConfigError, DomainError, NumericalError
from .tensor_core import SymTensor, ZIdentity, axpy

logger = logging.getLogger(__name__)

#: Directions or objective gaps below this are treated as exactly zero.
DEGENERATE_TOL = 1e-14

#: Warn when the best block value exceeds the multilinear value by more.
DIAGONAL_GAP_SLACK = 1e-9


@dataclass(frozen=True)
class Uniform:
    """Componentwise uniform random init on [lo, hi], then normalized."""

    lo: float = -1.0
    hi: float = 1.0


@dataclass(frozen=True)
class Given:
    """Explicit starting blocks, one vector per slot."""

    blocks: tuple[np.ndarray, ...]


InitSpec = Union[Uniform, Given]


@dataclass(frozen=True)
class PamConfig:
    """Solver parameters for one PAM run.

    alpha=None means: use the Frobenius norm of the operator, recomputed at
    solve time. gammas has one proximal weight per block and fixes the block
    count d. radii default to unit spheres.
    """

    gammas: tuple[float, ...]
    alpha: float | None = None
    eps: float = 1e-6
    max_iter: int = 10000
    radii: tuple[float, ...] | None = None
    seed: int = 0
    init: InitSpec = field(default_factory=Uniform)

    def __post_init__(self):
        if len(self.gammas) < 1:
            raise ConfigError("gammas must name at least one block")
        if any(g < 0 for g in self.gammas):
            raise ConfigError(f"gammas must be nonnegative, got {self.gammas}")
        if self.alpha is not None and self.alpha < 0:
            raise ConfigError(f"alpha must be nonnegative, got {self.alpha}")
        if self.eps <= 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.radii is not None:
            if len(self.radii) != len(self.gammas):
                raise ConfigError("radii and gammas must have equal length")
            if any(r <= 0 for r in self.radii):
                raise ConfigError(f"radii must be positive, got {self.radii}")


@dataclass(frozen=True)
class PamResult:
    """Outcome of a PAM run.

    v is the best block by homogeneous value, value its homogeneous
    objective, kkt_residual the norm of the stacked stationarity residuals
    at the final blocks, and history the per-sweep rows
    (iter, h_t, h_v, step_norm).
    """

    v: np.ndarray
    value: float
    blocks: tuple[np.ndarray, ...]
    iterations: int
    converged: bool
    kkt_residual: float
    history: tuple[tuple[int, float, float, float], ...]


def _prox_step(c: np.ndarray, gamma: float, radius: float,
               prev: np.ndarray) -> np.ndarray:
    """The step of :func:`block_update` from the slot's partial c."""
    w = c - gamma * prev
    nw = math.sqrt(float(np.dot(w, w)))
    if nw < DEGENERATE_TOL:
        logger.debug("degenerate direction, keeping block")
        return prev.copy()
    u = radius / nw * w
    # the candidates -u and u differ in objective by 2 * radius * |w|
    if 2.0 * radius * nw < DEGENERATE_TOL and float(np.dot(u, prev)) > 0.0:
        return u
    return -u


def block_update(surrogate: SymTensor, blocks: Sequence[np.ndarray],
                 slot: int, gamma: float, radius: float,
                 prev: np.ndarray) -> np.ndarray:
    """Exact minimizer of one proximal block subproblem on its sphere.

    With c the surrogate's partial at the slot, <c, x> + (gamma/2)|x - prev|^2
    equals <w, x> plus a constant on the radius sphere, w = c - gamma * prev,
    so it is minimized at -radius * w / |w|. A degenerate w (norm below
    1e-14) keeps prev; an objective tie picks the candidate nearer prev.
    """
    others = [blocks[i] for i in range(len(blocks)) if i != slot]
    return _prox_step(surrogate.multilinear_partial(others, slot), gamma,
                      radius, prev)


def _init_blocks(config: PamConfig, dim: int, d: int,
                 radii: Sequence[float],
                 rng: np.random.Generator) -> np.ndarray:
    blocks = np.empty((d, dim))
    if isinstance(config.init, Given):
        given = config.init.blocks
        if len(given) != d:
            raise ConfigError(f"init has {len(given)} blocks, expected {d}")
        for j, b in enumerate(given):
            b = np.asarray(b, dtype=float)
            if b.shape != (dim,):
                raise ConfigError(f"init block {j} has shape {b.shape}, "
                                  f"expected ({dim},)")
            nb = float(np.linalg.norm(b))
            if nb < DEGENERATE_TOL:
                raise ConfigError(f"init block {j} is numerically zero")
            blocks[j] = radii[j] / nb * b
        return blocks
    for j in range(d):
        while True:
            b = rng.uniform(config.init.lo, config.init.hi, size=dim)
            nb = float(np.linalg.norm(b))
            if nb >= DEGENERATE_TOL:
                break
        blocks[j] = radii[j] / nb * b
    return blocks


def pam_solve(a_theta: SymTensor, config: PamConfig,
              rng: np.random.Generator | None = None) -> PamResult:
    """Run cyclic PAM sweeps until the best-block value stalls.

    Forms the surrogate tensor a_theta - alpha * E once; the block count
    must be even, since E needs even order. Each sweep shares suffix
    contractions across its slots, takes h_t from the last slot's partial
    and every block value from one gather. Stops when the best block's
    homogeneous value changes by less than config.eps between sweeps, or
    after max_iter sweeps. rng, when given, overrides config.seed for
    random inits. Sweeps whose best block value exceeds the multilinear
    value by more than DIAGONAL_GAP_SLACK are counted in one warning.
    """
    d = len(config.gammas)
    if a_theta.order != d:
        raise ArityError(f"operator order {a_theta.order} does not match "
                         f"block count {d}")
    dim = a_theta.dim
    fro = a_theta.frobenius_norm()
    alpha = config.alpha if config.alpha is not None else fro
    if alpha < fro - 1e-12:
        logger.warning("alpha=%.6g is below the operator Frobenius norm "
                       "%.6g, the default shift; concavity is guaranteed "
                       "from (d - 1) times that norm, %.6g",
                       alpha, fro, (d - 1) * fro)
    surrogate = axpy(a_theta, ZIdentity(d, dim), alpha)
    radii = tuple(config.radii) if config.radii is not None else (1.0,) * d
    if rng is None:
        rng = np.random.default_rng(config.seed)
    blocks = _init_blocks(config, dim, d, radii, rng)
    value = float(np.min(surrogate.apply_full_many(blocks)))
    history: list[tuple[int, float, float, float]] = []
    gap_sweeps = 0
    max_gap = 0.0
    for k in range(1, config.max_iter + 1):
        prev = blocks.copy()
        for j, c in enumerate(surrogate.sweep_partials(blocks)):
            blocks[j] = _prox_step(c, config.gammas[j], radii[j], blocks[j])
        h_t = float(np.dot(c, blocks[-1]))
        if not math.isfinite(h_t):
            raise NumericalError(f"non-finite surrogate value at sweep {k}")
        step = float(np.linalg.norm(blocks - prev))
        block_vals = surrogate.apply_full_many(blocks)
        j_best = int(np.argmin(block_vals))
        h_v = float(block_vals[j_best])
        if h_v > h_t + DIAGONAL_GAP_SLACK:
            gap_sweeps += 1
            max_gap = max(max_gap, h_v - h_t)
        history.append((k, h_t, h_v, step))
        converged = abs(h_v - value) < config.eps
        v, value = blocks[j_best].copy(), h_v
        if converged:
            break
    if gap_sweeps:
        logger.warning("best block value exceeded the multilinear value by "
                       "more than %.0e in %d of %d sweeps (largest gap "
                       "%.3g)", DIAGONAL_GAP_SLACK, gap_sweeps, k, max_gap)
    return PamResult(v=v, value=value, blocks=tuple(blocks), iterations=k,
                     converged=converged, history=tuple(history),
                     kkt_residual=_kkt_residual(surrogate, blocks, h_t))


def _kkt_residual(surrogate: SymTensor, blocks: np.ndarray,
                  h_t: float) -> float:
    """Norm of the stacked first-order residuals c_j - h * x_j, which vanish
    exactly at a stationary point (every block multiplier equals h)."""
    total = 0.0
    for j in range(len(blocks)):
        others = [blocks[i] for i in range(len(blocks)) if i != j]
        r = surrogate.multilinear_partial(others, j) - h_t * blocks[j]
        total += float(np.dot(r, r))
    return math.sqrt(total)


def write_history_csv(history: Sequence[tuple[int, float, float, float]],
                      path) -> None:
    """Write per-sweep rows as CSV with header iter,h_t,h_v,step_norm."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "h_t", "h_v", "step_norm"])
        for k, h_t, h_v, step in history:
            writer.writerow([k, f"{h_t:.17g}", f"{h_v:.17g}",
                             f"{step:.17g}"])


def kl_exponent(d: int, n: int) -> tuple[float, float]:
    """Lojasiewicz exponent data for the d-block surrogate on R^n spheres.

    Returns (tau, rate) with tau = 1 / (d * (3d - 3)^(dn - 1)) and
    rate = tau / (1 - 2 tau), the power-law decay exponent of the iterate
    error. Requires d >= 2 and n >= 2; tau < 1/2 always holds there.
    """
    if not isinstance(d, int) or not isinstance(n, int):
        raise DomainError("d and n must be integers")
    if d < 2 or n < 2:
        raise DomainError(f"need d >= 2 and n >= 2, got d={d}, n={n}")
    tau = 1.0 / (d * (3 * d - 3) ** (d * n - 1))
    if not tau < 0.5:
        raise DomainError(f"exponent {tau} is not below 1/2 at d={d}, n={n}")
    return tau, tau / (1.0 - 2.0 * tau)
