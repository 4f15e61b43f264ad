"""Boundary trust-region steps for Taylor polynomial models.

A degree-p Taylor polynomial on R^n is lifted to a symmetric order-p tensor
on R^(n+1) by weighting each coefficient with the inverse multinomial count
of its index class, so that contracting the tensor with (1, s) on every slot
reproduces the polynomial exactly. The model is evaluated only through
this lift, built once per model on first use: its value, gradient and
Hessian at s are the lift contracted with (1, s) on p, p - 1 and p - 2
slots. Minimizing the polynomial on the sphere of radius Delta becomes a
homogeneous problem solved by PAM block sweeps whose updates are projected
back onto the slice with unit leading coordinate, and a multiplier
estimated from the boundary stationarity condition certifies the step.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg import null_space

from .errors import (ConfigError, DimError, DomainError, NumericalError,
                     ParseError)
from .tensor_core import SymTensor, _contract

logger = logging.getLogger(__name__)

__all__ = [
    "TaylorPoly",
    "BoundaryConfig",
    "BoundaryResult",
    "homogenize",
    "solve_boundary",
    "lagrangian_grad",
    "check_second_order",
    "random_cubic",
    "load_poly",
    "poly_to_dict",
]

#: Directions with tail norm below this keep their block.
_DEGENERATE_TOL = 1e-14


class TaylorPoly:
    """Polynomial sum over alpha of f_alpha * s^alpha, total degree <= p,
    evaluated through its lift :attr:`lifted`, built on first use."""

    __slots__ = ("n", "p", "_coeffs", "_expo", "_coef", "_lifted")

    def __init__(self, n: int, p: int,
                 coeffs: Mapping[tuple[int, ...], float]):
        if n < 1:
            raise DomainError(f"n must be >= 1, got {n}")
        if p < 1:
            raise DomainError(f"p must be >= 1, got {p}")
        self.n = int(n)
        self.p = int(p)
        clean: dict[tuple[int, ...], float] = {}
        for alpha, val in coeffs.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != n:
                raise DimError(f"exponent {alpha} has {len(alpha)} entries, "
                               f"expected {n}")
            if any(a < 0 for a in alpha) or sum(alpha) > p:
                raise DomainError(f"exponent {alpha} outside degree {p}")
            val = float(val)
            if not math.isfinite(val):
                raise DomainError(f"non-finite coefficient at {alpha}")
            if val != 0.0:
                clean[alpha] = clean.get(alpha, 0.0) + val
        self._coeffs = clean
        items = sorted(clean.items())
        self._expo = np.array([a for a, _ in items],
                              dtype=np.intp).reshape(-1, n)
        self._coef = np.array([v for _, v in items], dtype=float)
        self._lifted: SymTensor | None = None

    @classmethod
    def from_cubic(cls, f0: float, g: np.ndarray, h: np.ndarray,
                   t: np.ndarray) -> "TaylorPoly":
        """Degree-3 model f0 + g.s + (1/2) s.H s + (1/6) T[s]^3.

        H and T are symmetrized internally, so only their symmetric parts
        matter.
        """
        g = np.asarray(g, dtype=float)
        n = g.shape[0]
        h = np.asarray(h, dtype=float)
        t = np.asarray(t, dtype=float)
        if h.shape != (n, n) or t.shape != (n, n, n):
            raise DimError(f"blocks must have shapes ({n},), ({n},{n}), "
                           f"({n},{n},{n})")
        h = 0.5 * (h + h.T)
        t = sum(np.transpose(t, perm) for perm in
                ((0, 1, 2), (0, 2, 1), (1, 0, 2),
                 (1, 2, 0), (2, 0, 1), (2, 1, 0))) / 6.0
        coeffs: dict[tuple[int, ...], float] = {}

        def bump(alpha: tuple[int, ...], val: float) -> None:
            if val != 0.0:
                coeffs[alpha] = coeffs.get(alpha, 0.0) + val

        if f0 != 0.0:
            bump((0,) * n, float(f0))
        for i in range(n):
            e_i = tuple(1 if k == i else 0 for k in range(n))
            bump(e_i, float(g[i]))
        for i in range(n):
            for j in range(i, n):
                alpha = tuple((2 if k == i else 0) if i == j
                              else (1 if k in (i, j) else 0)
                              for k in range(n))
                val = 0.5 * h[i, i] if i == j else h[i, j]
                bump(alpha, float(val))
        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    counts = [0] * n
                    counts[i] += 1
                    counts[j] += 1
                    counts[k] += 1
                    mult = math.factorial(3) // math.prod(
                        math.factorial(c) for c in counts if c)
                    bump(tuple(counts), mult * float(t[i, j, k]) / 6.0)
        return cls(n, 3, coeffs)

    @property
    def coeffs(self) -> Mapping[tuple[int, ...], float]:
        return dict(self._coeffs)

    @property
    def lifted(self) -> SymTensor:
        """The symmetric tensor of :func:`homogenize`, built on first use."""
        if self._lifted is None:
            self._lifted = homogenize(self)
        return self._lifted

    def _lift_point(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if s.shape != (self.n,):
            raise DimError(f"expected a vector of length {self.n}, got "
                           f"shape {s.shape}")
        return np.concatenate(([1.0], s))

    def evaluate(self, s: np.ndarray) -> float:
        return self.lifted.apply_full(self._lift_point(s))

    def evaluate_many(self, mat: np.ndarray) -> np.ndarray:
        """Evaluate at every row of an (N, n) array."""
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[1] != self.n:
            raise DimError(f"expected an (N, {self.n}) array, got shape "
                           f"{mat.shape}")
        return self.lifted.apply_full_many(
            np.hstack((np.ones((mat.shape[0], 1)), mat)))

    def gradient(self, s: np.ndarray) -> np.ndarray:
        y = self._lift_point(s)
        return self.p * _contract(self.lifted.dense, [y] * (self.p - 1))[1:]

    def hessian(self, s: np.ndarray) -> np.ndarray:
        y = self._lift_point(s)
        if self.p == 1:
            return np.zeros((self.n, self.n))
        flat = _contract(self.lifted.dense, [y] * (self.p - 2))
        return (self.p * (self.p - 1)
                * flat.reshape(self.n + 1, self.n + 1)[1:, 1:])

    def __repr__(self) -> str:
        return (f"TaylorPoly(n={self.n}, p={self.p}, "
                f"terms={len(self._coeffs)})")


def homogenize(poly: TaylorPoly) -> SymTensor:
    """Symmetric order-p tensor on R^(n+1) whose homogeneous form at
    (1, s) equals the polynomial at s.

    Each coefficient is divided by the multinomial count of its lifted
    index class, with index 1 (file convention) reserved for the
    homogenizing coordinate. :attr:`TaylorPoly.lifted` keeps the result.
    """
    p, n = poly.p, poly.n
    # Weights divide exact integers: int64 holds 18! and float64 represents
    # it exactly; larger factorials stay Python ints.
    fact = np.array([math.factorial(k) for k in range(p + 1)],
                    dtype=np.int64 if p <= 18 else object)
    counts = np.hstack((p - poly._expo.sum(axis=1, keepdims=True),
                        poly._expo))
    weight = (fact[counts].prod(axis=1) / fact[p]).astype(float)
    classes = np.repeat(np.tile(np.arange(n + 1), counts.shape[0]),
                        counts.ravel()).reshape(-1, p)
    rank = np.lexsort(classes.T[::-1])
    return SymTensor._from_classes(p, n + 1, classes[rank],
                                   (poly._coef * weight)[rank])


@dataclass(frozen=True)
class BoundaryConfig:
    """Parameters of the boundary solver.

    lambda_update_sign selects the multiplier update
    lambda = sign * (s . grad) / Delta^2; the default -1 matches the
    stationarity condition grad + lambda s = 0 being driven to zero.
    """

    gamma: float = 8.0
    alpha: float = 1.0
    tol: float = 1e-5
    max_outer: int = 500
    inner_eps: float = 1e-9
    inner_max_iter: int = 10000
    lambda_update_sign: float = -1.0
    s0: np.ndarray | None = None

    def __post_init__(self):
        if self.gamma < 0:
            raise ConfigError(f"gamma must be nonnegative, got {self.gamma}")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be nonnegative, got {self.alpha}")
        if self.tol <= 0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if self.inner_eps <= 0:
            raise ConfigError(f"inner_eps must be positive, "
                              f"got {self.inner_eps}")
        if self.max_outer < 1 or self.inner_max_iter < 1:
            raise ConfigError("iteration limits must be >= 1")
        if self.lambda_update_sign not in (-1.0, 1.0):
            raise ConfigError(f"lambda_update_sign must be -1 or +1, "
                              f"got {self.lambda_update_sign}")


@dataclass(frozen=True)
class BoundaryResult:
    """Boundary step outcome.

    history holds the model value after each outer round and is
    nonincreasing by construction (a round that would raise it stops the
    solve instead); value_trace holds the best-block model value after
    every inner sweep.
    """

    s: np.ndarray
    lambda_: float
    value: float
    grad_lagrangian_norm: float
    inner_iters: int
    outer_iters: int
    history: tuple[float, ...]
    value_trace: tuple[float, ...]
    converged: bool


def lagrangian_grad(poly: TaylorPoly, s: np.ndarray,
                    lam: float) -> np.ndarray:
    """Gradient of the model plus lam times s."""
    return poly.gradient(s) + lam * np.asarray(s, dtype=float)


def _alpha_partial(blocks: Sequence[np.ndarray], slot: int) -> np.ndarray:
    """Partial of the consecutive-pair product of lifted blocks.

    With an odd block count the last block enters only through its leading
    coordinate, so its own partial lives in that coordinate and drops out
    after tail projection.
    """
    d = len(blocks)
    paired = d - (d % 2)
    dim = blocks[0].shape[0]
    if slot >= paired:
        out = np.zeros(dim)
        prod = 1.0
        for q in range(0, paired, 2):
            prod *= float(np.dot(blocks[q], blocks[q + 1]))
        out[0] = prod
        return out
    out = blocks[slot ^ 1].copy()
    for q in range(0, paired, 2):
        if q == (slot & ~1):
            continue
        out *= float(np.dot(blocks[q], blocks[q + 1]))
    if d % 2 == 1:
        out *= blocks[d - 1][0]
    return out


def _alpha_product(blocks: Sequence[np.ndarray]) -> float:
    """Consecutive-pair product of lifted blocks; with an odd block count
    the last block contributes its leading coordinate."""
    d = len(blocks)
    paired = d - (d % 2)
    prod = 1.0
    for q in range(0, paired, 2):
        prod *= float(np.dot(blocks[q], blocks[q + 1]))
    if d % 2 == 1:
        prod *= blocks[d - 1][0]
    return prod


def _boundary_sweeps(tensor: SymTensor, blocks: list[np.ndarray],
                     delta: float, config: BoundaryConfig,
                     trace: list[float]) -> int:
    """Run PAM sweeps on the lifted blocks until the surrogate value
    stalls; returns the sweep count."""
    d = len(blocks)
    h_prev = (tensor.multilinear_apply(blocks)
              - config.alpha * _alpha_product(blocks))
    for k in range(1, config.inner_max_iter + 1):
        for j in range(d):
            others = [blocks[i] for i in range(d) if i != j]
            c = tensor.multilinear_partial(others, j)
            if config.alpha != 0.0:
                c = c - config.alpha * _alpha_partial(blocks, j)
            if not np.all(np.isfinite(c)):
                raise NumericalError("non-finite block direction in "
                                     "boundary sweep")
            prev_tail = blocks[j][1:]
            w_tail = c[1:] - config.gamma * prev_tail
            nw = float(np.linalg.norm(w_tail))
            if nw < _DEGENERATE_TOL:
                logger.debug("degenerate tail at slot %d, keeping block", j)
                continue
            u = delta / nw * w_tail
            c_tail = c[1:]
            obj_lo = (float(np.dot(c_tail, -u))
                      + 0.5 * config.gamma * float(np.dot(-u - prev_tail,
                                                          -u - prev_tail)))
            obj_hi = (float(np.dot(c_tail, u))
                      + 0.5 * config.gamma * float(np.dot(u - prev_tail,
                                                          u - prev_tail)))
            if abs(obj_lo - obj_hi) < _DEGENERATE_TOL:
                tail = -u if float(np.dot(-u, prev_tail)) >= float(
                    np.dot(u, prev_tail)) else u
            else:
                tail = -u if obj_lo < obj_hi else u
            blocks[j] = np.concatenate(([1.0], tail))
        trace.append(min(tensor.apply_full(b) for b in blocks))
        h = (tensor.multilinear_apply(blocks)
             - config.alpha * _alpha_product(blocks))
        if abs(h - h_prev) < config.inner_eps:
            return k
        h_prev = h
    return config.inner_max_iter


def solve_boundary(poly: TaylorPoly, delta: float,
                   config: BoundaryConfig | None = None) -> BoundaryResult:
    """Minimize the model on the sphere of radius delta.

    Alternates PAM sweep rounds on poly.lifted, shared by every solve on
    the model, with multiplier updates until the boundary stationarity
    residual |grad + lambda s| falls below config.tol. The sweeps minimize
    the model itself; the multiplier only enters the stopping test, so the
    outer value history is nonincreasing.
    """
    if config is None:
        config = BoundaryConfig()
    if delta <= 0:
        raise DomainError(f"delta must be positive, got {delta}")
    n = poly.n
    if config.s0 is not None:
        s = np.asarray(config.s0, dtype=float).copy()
        if s.shape != (n,):
            raise ConfigError(f"s0 has shape {s.shape}, expected ({n},)")
    else:
        s = np.zeros(n)
    tensor = poly.lifted
    d = poly.p
    lam = 0.0
    history: list[float] = []
    trace: list[float] = []
    inner_total = 0
    outer = 0
    converged = False

    def on_boundary(vec: np.ndarray) -> bool:
        return abs(float(np.linalg.norm(vec)) - delta) <= 1e-10 * max(
            1.0, delta)

    while outer < config.max_outer:
        # grad is the model gradient at s, kept from the last lambda update
        if outer > 0 and on_boundary(s) and float(np.linalg.norm(
                grad + lam * s)) < config.tol:
            converged = True
            break
        # Each round restarts the sweeps from identical replicated blocks,
        # so a round that stalls with blocks on different critical points
        # gets pulled back together instead of stalling forever.
        blocks = [np.concatenate(([1.0], s)) for _ in range(d)]
        inner_total += _boundary_sweeps(tensor, blocks, delta, config, trace)
        outer += 1
        vals = [tensor.apply_full(b) for b in blocks]
        j = int(np.argmin(vals))
        s_new = blocks[j][1:].copy()
        new_val = poly.evaluate(s_new)
        if history and new_val > history[-1] + 1e-9 * max(
                1.0, abs(history[-1])):
            # A round that raises the model value means the sweeps are
            # hopping between basins; keep the better point and report the
            # run as not converged rather than record a non-descent step.
            logger.warning("round %d raised the model value from %.6g to "
                           "%.6g; stopping without convergence",
                           outer, history[-1], new_val)
            break
        s = s_new
        grad = poly.gradient(s)
        lam = config.lambda_update_sign * float(np.dot(s, grad)) / delta ** 2
        history.append(new_val)
    gl_norm = float(np.linalg.norm(grad + lam * s))
    if not converged and on_boundary(s) and gl_norm < config.tol:
        converged = True
    if not converged:
        logger.warning("boundary solve stopped at %d rounds with "
                       "stationarity residual %.3g", outer, gl_norm)
    return BoundaryResult(s=s, lambda_=lam, value=poly.evaluate(s),
                          grad_lagrangian_norm=gl_norm,
                          inner_iters=inner_total, outer_iters=outer,
                          history=tuple(history), value_trace=tuple(trace),
                          converged=converged)


def check_second_order(poly: TaylorPoly, s: np.ndarray,
                       lam: float) -> tuple[float, bool]:
    """Smallest eigenvalue of the Lagrangian Hessian projected onto the
    tangent space of s, and whether it clears 1e-10.

    For n = 1 the tangent space is trivial and the check passes vacuously.
    The inertia of the unprojected Hessian is logged for diagnosis only.
    """
    s = np.asarray(s, dtype=float)
    n = poly.n
    if s.shape != (n,):
        raise DimError(f"expected a vector of length {n}, got shape "
                       f"{s.shape}")
    if n == 1:
        return math.inf, True
    mat = poly.hessian(s) + lam * np.eye(n)
    if logger.isEnabledFor(logging.INFO):
        full = np.linalg.eigvalsh(mat)
        logger.info("unprojected Lagrangian Hessian has %d negative "
                    "eigenvalues (smallest %.6g)",
                    int((full < -1e-10).sum()), float(full[0]))
    basis = null_space(s.reshape(1, n))
    proj = basis.T @ mat @ basis
    w = np.linalg.eigvalsh(proj)
    min_eig = float(w[0])
    return min_eig, min_eig > 1e-10


def random_cubic(n: int, seed: int,
                 scales: tuple[float, float, float] = (80.0, 80.0, 80.0)
                 ) -> TaylorPoly:
    """Seeded cubic model with standard normal blocks scaled by
    (a, b, c): gradient a*g, Hessian b*sym(H), third term c*sym(T)."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    a, b, c = scales
    rng = np.random.default_rng(seed)
    g = a * rng.standard_normal(n)
    h = rng.standard_normal((n, n))
    h = b * 0.5 * (h + h.T)
    t = rng.standard_normal((n, n, n))
    t = c * sum(np.transpose(t, perm) for perm in
                ((0, 1, 2), (0, 2, 1), (1, 0, 2),
                 (1, 2, 0), (2, 0, 1), (2, 1, 0))) / 6.0
    return TaylorPoly.from_cubic(0.0, g, h, t)


def poly_to_dict(poly: TaylorPoly) -> dict:
    """JSON-ready form with explicit terms."""
    return {
        "n": poly.n,
        "p": poly.p,
        "terms": [{"alpha": list(alpha), "coeff": coeff}
                  for alpha, coeff in sorted(poly.coeffs.items())],
    }


def load_poly(source) -> TaylorPoly:
    """Read a polynomial from a JSON file path or a parsed dict.

    Accepts either an explicit term list [{alpha, coeff}, ...] or, for
    p = 3, dense g/H/T blocks with optional f0. Exactly one of the two
    forms must be present.
    """
    if isinstance(source, dict):
        data = source
        label = "<dict>"
    else:
        label = str(source)
        try:
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{label}: invalid JSON ({exc})") from exc
    try:
        n = int(data["n"])
        p = int(data["p"])
    except (KeyError, TypeError, ValueError):
        raise ParseError(f"{label}: need integer fields n and p")
    has_terms = "terms" in data
    has_dense = any(k in data for k in ("g", "H", "T"))
    if has_terms and has_dense:
        raise ParseError(f"{label}: give either terms or dense blocks, "
                         f"not both")
    if has_terms:
        coeffs: dict[tuple[int, ...], float] = {}
        for item in data["terms"]:
            try:
                alpha = tuple(int(a) for a in item["alpha"])
                coeff = float(item["coeff"])
            except (KeyError, TypeError, ValueError):
                raise ParseError(f"{label}: malformed term {item!r}")
            if alpha in coeffs:
                raise ParseError(f"{label}: repeated exponent {alpha}")
            coeffs[alpha] = coeff
        try:
            return TaylorPoly(n, p, coeffs)
        except (DomainError, DimError) as exc:
            raise ParseError(f"{label}: {exc}") from exc
    if has_dense:
        if p != 3:
            raise ParseError(f"{label}: dense blocks require p = 3")
        missing = [k for k in ("g", "H", "T") if k not in data]
        if missing:
            raise ParseError(f"{label}: missing dense blocks {missing}")
        try:
            return TaylorPoly.from_cubic(
                float(data.get("f0", 0.0)),
                np.array(data["g"], dtype=float),
                np.array(data["H"], dtype=float),
                np.array(data["T"], dtype=float))
        except (DimError, DomainError, TypeError, ValueError) as exc:
            raise ParseError(f"{label}: {exc}") from exc
    raise ParseError(f"{label}: need either terms or dense g/H/T blocks")
