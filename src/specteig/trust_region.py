"""Boundary trust-region steps for Taylor polynomial models.

A degree-p Taylor polynomial on R^n is stored as its lift, a symmetric
order-p tensor on R^(n+1) built at construction: each coefficient is
weighted with the inverse multinomial count of its index class, so that
contracting the tensor with (1, s) on every slot reproduces the polynomial
exactly. A cubic given by its blocks f0, g, H and T is lifted through a
plan cached per n, the positions in H and T that each lifted class reads:
its class values are written into one vector by a fixed handful of NumPy
calls, whatever n, and the lift is laid out from that vector, which also
gives its weights and norm. The model's value, gradient and Hessian at s
are the lift contracted with (1, s) on p, p - 1 and p - 2 slots. Minimizing
the polynomial on the sphere of radius Delta becomes a homogeneous problem
on the lifted blocks y = (1, s), solved by the block sweep of the eigen
solver, :class:`~specteig.pam._BlockSweep`, built with one row and one lead
column: its steps move only the tails, so every block keeps its unit
leading coordinate and a tail on the Delta-sphere. The sweeps minimize the
surrogate lift - alpha * S, where S has the form y_0 |y|^(p-1) (odd p) or
|y|^p (even p), constant on that slice as the identity tensor is on the
sphere. A round picks the block of least model value from the sweep's
block_values, the eigen pool's gather, and a multiplier estimated from the
boundary stationarity condition certifies the step. Each lift shape has one
such sweep, kept idle between solves in the shape store of
:mod:`specteig.tensor_core`, beside the shape's cubic plan and shift tensor.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (ConfigError, DimError, DomainError, NumericalError,
                     ParseError)
from .pam import DEGENERATE_TOL, _BlockSweep
from .tensor_core import (SymTensor, _check_count, _check_point,
                          _check_real, _check_shape, _check_type,
                          _check_vector, _class_table, _contract, _keep,
                          _multiplicities, _per_shape, _real_array, _take,
                          identity_tensor)

logger = logging.getLogger(__name__)

__all__ = [
    "TaylorPoly",
    "BoundaryConfig",
    "BoundaryResult",
    "solve_boundary",
    "lagrangian_grad",
    "check_second_order",
    "random_cubic",
    "load_poly",
    "poly_to_dict",
]


def _real_value(name: str, value) -> float:
    """float(value), but a complex value raises DomainError instead of
    losing its imaginary part, and so does a value float() rejects."""
    if type(value) is float:
        return value
    if isinstance(value, numbers.Complex) \
            and not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be real, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} is not a real number: {value!r}") from exc


@_per_shape
def _cubic_plan(n: int) -> tuple[np.ndarray, np.ndarray]:
    """What the lift of a cubic on R^n reads of its blocks, for n alone:
    the flat positions in H of H[j, k] and H[k, j] at the (0, j, k)
    classes, a (2, n(n+1)/2) array, and of T's six transposes at the tail
    classes (i, j, k), 1 <= i <= j <= k, a (6, C_tail) array whose row p
    holds T's position of each under the p-th permutation of its strides.
    Read-only; about the lift's own bytes (240 KiB at n = 30)."""
    classes = _class_table(3, n + 1)[0]
    head = (n + 1) * (n + 2) // 2
    j, k = classes[1:, n + 1:head] - 1
    strides = np.array(list(itertools.permutations((n * n, n, 1))))
    plan = (np.stack((j * n + k, k * n + j)),
            strides @ (classes[:, head:] - 1))
    for arr in plan:
        arr.flags.writeable = False
    return plan


class TaylorPoly:
    """Polynomial sum over alpha of f_alpha * s^alpha, total degree <= p,
    stored as its lift :attr:`lifted`.

    The lift holds each term at its lifted index class (index 0 is the
    homogenizing coordinate) as the coefficient times the inverse
    multinomial count of the class. A lift on more than MAX_DENSE_ENTRIES
    entries raises ConfigError here, before it is allocated.
    """

    __slots__ = ("n", "p", "lifted")

    def __init__(self, n: int, p: int,
                 terms: Mapping[tuple[int, ...], float]):
        _check_count("n", n, DomainError)
        _check_count("p", p, DomainError)
        _check_type("terms", terms, Mapping)
        self.n = int(n)
        self.p = int(p)
        clean: dict[tuple[int, ...], float] = {}
        for alpha, val in terms.items():
            try:  # integers, as operator.index takes them: 1.5 is refused
                alpha = tuple(map(operator.index, alpha))
            except TypeError:
                raise DomainError(f"exponent {alpha!r} is not a tuple of "
                                  f"integers") from None
            if len(alpha) != n:
                raise DimError(f"exponent {alpha} has {len(alpha)} entries, "
                               f"expected {n}")
            if any(a < 0 for a in alpha) or sum(alpha) > p:
                raise DomainError(f"exponent {alpha} outside degree {p}")
            val = _real_value(f"coefficient at {alpha}", val)
            if not math.isfinite(val):
                raise DomainError(f"non-finite coefficient at {alpha}")
            if val != 0.0:
                clean[alpha] = clean.get(alpha, 0.0) + val
        _check_shape(p, n + 1)
        expo = np.array(list(clean), dtype=np.intp).reshape(-1, n)
        coef = np.array(list(clean.values()), dtype=float)
        counts = np.hstack((p - expo.sum(axis=1, keepdims=True), expo))
        classes = np.repeat(np.tile(np.arange(n + 1), counts.shape[0]),
                            counts.ravel()).reshape(-1, p).T
        self.lifted = SymTensor._from_classes(
            p, n + 1, coef * (1.0 / _multiplicities(classes)), classes)

    @classmethod
    def from_cubic(cls, f0: float, g: np.ndarray, h: np.ndarray,
                   t: np.ndarray) -> "TaylorPoly":
        """Degree-3 model f0 + g.s + (1/2) s.H s + (1/6) T[s]^3.

        Only the symmetric parts of H and T matter; complex blocks raise
        DomainError. The lift's class values are written into one vector,
        in table order: f0, g / 3, (H[j, k] + H[k, j]) * 0.5 / 6 at the
        (0, j, k) classes and, at each tail class, T's six transposes
        summed from 0.0 in permutation order, then / 6 / 6. The positions
        each block is read at come from the per-n plan, built once per n.
        The vector is laid out by the shape's position index and gives the
        lift's weights and norm, so the lift equals its transposes exactly.
        """
        g = _real_array("g", g)
        if g.ndim != 1:
            raise DimError(f"g must be a vector, got shape {g.shape}")
        n = g.shape[0]
        _check_count("n", n, DomainError)
        h, t = _real_array("h", h), _real_array("t", t)
        if h.shape != (n, n) or t.shape != (n, n, n):
            raise DimError(f"blocks must have shapes ({n},), ({n},{n}), "
                           f"({n},{n},{n})")
        _check_shape(3, n + 1)
        h_pos, t_pos = _cubic_plan(n)
        head = n + 1 + h_pos.shape[1]
        v = np.empty(head + t_pos.shape[1])
        v[0] = _real_value("f0", f0)
        np.divide(g, 3.0, out=v[1:n + 1])
        # H's pair and T's six transposes are gathered whole, then reduced
        # row by row; the / 6.0 both blocks end with is one divide
        pair, tail, both = v[n + 1:head], v[head:], v[n + 1:]
        np.add.reduce(h.ravel().take(h_pos), axis=0, out=pair)
        np.multiply(pair, 0.5, out=pair)
        np.add.reduce(t.ravel().take(t_pos), axis=0, initial=0.0, out=tail)
        np.divide(tail, 6.0, out=tail)
        np.divide(both, 6.0, out=both)
        if not np.isfinite(v).all():
            raise DomainError("non-finite entry in the cubic blocks")
        self = cls.__new__(cls)
        self.n, self.p = n, 3
        self.lifted = SymTensor._from_classes(3, n + 1, v)
        return self

    @property
    def coeffs(self) -> Mapping[tuple[int, ...], float]:
        """The terms read back from the lift: each class value divided by
        the weight it was stored with. For a model built from terms they
        may differ from the input by 1 ulp on classes whose multinomial
        count is 3 or 6. Dividing by the weight, rather than multiplying by
        the class count, lets a model rebuilt from these terms read back
        the same ones, so poly_to_dict and load_poly round-trip."""
        lift = self.lifted
        classes = lift._classes[:, lift._weights != 0.0]
        counts = np.zeros((classes.shape[1], self.n + 1), dtype=np.intp)
        rows = np.arange(classes.shape[1])
        for slot in classes:
            counts[rows, slot] += 1
        coef = lift.dense[tuple(classes)] / (1.0 / _multiplicities(classes))
        return dict(zip(map(tuple, counts[:, 1:].tolist()), coef.tolist()))

    def _lift_point(self, s: np.ndarray) -> np.ndarray:
        y = np.empty(self.n + 1)
        y[0], y[1:] = 1.0, _check_vector(s, self.n)
        return y

    def evaluate(self, s: np.ndarray) -> float:
        return self.lifted.apply_full(self._lift_point(s))

    def evaluate_many(self, mat: np.ndarray) -> np.ndarray:
        """Evaluate at every row of an (N, n) array."""
        mat = _real_array("mat", mat)
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
                f"terms={np.count_nonzero(self.lifted._weights)})")


@_per_shape
def _shift_tensor(p: int, dim: int) -> np.ndarray:
    """Read-only dense symmetric order-p array on R^dim of the form y_0
    |y|^(p-1) for odd p and |y|^p for even p: on the slice y_0 = 1,
    |y_tail| = Delta it is (1 + Delta^2)^((p-1)/2) or (1 + Delta^2)^(p/2).

    For odd p it is the symmetrization of e_0 times the identity tensor of
    order p - 1.
    """
    if p % 2 == 0:
        return identity_tensor(p, dim).dense
    rest = identity_tensor(p - 1, dim).dense if p > 1 else np.ones(())
    dense = np.zeros((dim,) * p)
    for k in range(p):
        slot = [slice(None)] * p
        slot[k] = 0
        dense[tuple(slot)] += rest
    dense /= p
    dense.flags.writeable = False
    return dense


@dataclass(frozen=True)
class BoundaryConfig:
    """Parameters of the boundary solver.

    gamma is the proximal weight of every block step, alpha the weight of
    the shift tensor S, tol the stationarity tolerance, inner_eps and
    inner_max_iter stop each round of sweeps, and s0, a real finite vector
    (default the origin), starts the first round.
    """

    gamma: float = 8.0
    alpha: float = 1.0
    tol: float = 1e-5
    max_outer: int = 500
    inner_eps: float = 1e-9
    inner_max_iter: int = 10000
    s0: np.ndarray | None = None

    def __post_init__(self):
        _check_real("gamma", self.gamma)
        _check_real("alpha", self.alpha)
        _check_real("tol", self.tol, positive=True)
        _check_real("inner_eps", self.inner_eps, positive=True)
        _check_count("max_outer", self.max_outer)
        _check_count("inner_max_iter", self.inner_max_iter)
        if self.s0 is not None:
            s0 = _real_array("s0", self.s0, ConfigError)
            if s0.ndim != 1 or not np.isfinite(s0).all():
                raise ConfigError(f"s0 must be finite and 1-D, got {s0!r}")


@dataclass(frozen=True)
class BoundaryResult:
    """Boundary step outcome.

    history holds the model value after each outer round and is
    nonincreasing by construction (a round that would raise it stops the
    solve instead).
    """

    s: np.ndarray
    lambda_: float
    value: float
    grad_lagrangian_norm: float
    inner_iters: int
    outer_iters: int
    history: tuple[float, ...]
    converged: bool


def lagrangian_grad(poly: TaylorPoly, s: np.ndarray,
                    lam: float) -> np.ndarray:
    """Gradient of the model plus lam times s; lam must be real and
    finite."""
    _check_real("lam", lam, DomainError, signed=True)
    return poly.gradient(s) + lam * np.asarray(s, dtype=float)


def _boundary_sweeps(sweep: _BlockSweep, config: BoundaryConfig) -> int:
    """Run PAM sweeps of the one-row lifted sweep from its blocks as they
    are until the surrogate value stalls; return the sweep count. The
    caller turns off NumPy's divide and invalid warnings for the sweeps.

    The value before the first sweep is slot 0's partial times block 0,
    the matrix-vector products of _contract on every block; that partial
    serves the first sweep, which skips its own. The value after a sweep
    is the last partial dotted with the last block. A non-finite partial
    tail makes its block and the value non-finite, which raises
    NumericalError.
    """
    h_prev = float((sweep.partial(0) @ sweep.blocks[0, 0])[0])
    c_last, b_last = sweep.last_partial[0], sweep.last_block[0]
    for k in range(1, config.inner_max_iter + 1):
        sweep.sweep(k == 1)
        h = float(c_last.dot(b_last))
        if not math.isfinite(h):
            raise NumericalError("non-finite surrogate value in boundary "
                                 "sweep")
        if abs(h - h_prev) < config.inner_eps:
            return k
        h_prev = h
    return config.inner_max_iter


def _norm(v: np.ndarray) -> float:
    """|v| of a 1-D float vector, as np.linalg.norm takes it."""
    return math.sqrt(v.dot(v))


def solve_boundary(poly: TaylorPoly, delta: float,
                   config: BoundaryConfig | None = None) -> BoundaryResult:
    """Minimize the model on the sphere of radius delta.

    Alternates PAM sweep rounds on the surrogate poly.lifted - alpha * S
    with multiplier updates lambda = -(s . grad) / delta^2 until the
    boundary stationarity residual |grad + lambda s| falls below
    config.tol. The one-row sweep of the lift's shape, with the
    surrogate, the lifted blocks and their buffers, is taken idle or
    built once per call and serves every round; the rounds run in
    one NumPy error state that ignores division and invalid values. A
    round takes the model value of every block from the sweep's one
    gather, block_values under the lift's weights: the block of least
    value is picked, and its class products give its value as apply_full
    does. S is constant on the lifted slice, so the sweeps minimize the
    model itself; the multiplier only enters the stopping test, taken at
    the end of each round, so the outer value history is nonincreasing.
    A start off the sphere whose first step direction is degenerate (the
    origin of a model with zero gradient) would stay where it is, so the
    first round starts instead from delta times the eigenvector of the
    smallest eigenvalue of the model Hessian at the start.
    """
    if config is None:
        config = BoundaryConfig()
    _check_type("config", config, BoundaryConfig)
    _check_type("poly", poly, TaylorPoly)
    _check_real("delta", delta, DomainError, positive=True)
    n, p = poly.n, poly.p
    s = np.zeros(n) if config.s0 is None \
        else np.array(config.s0, dtype=float)
    if s.shape != (n,):
        raise ConfigError(f"s0 must have shape ({n},), got {s!r}")
    lift = poly.lifted
    key = ("boundary", p, n + 1)
    sweep = _take(key) or _BlockSweep(p, n + 1, 1, lead=1)
    stack, blocks = sweep.stack, sweep.blocks
    # lift - alpha * S, written in place
    np.multiply(_shift_tensor(p, n + 1).reshape(-1), config.alpha,
                out=stack[0])
    np.subtract(lift.dense.reshape(-1), stack[0], out=stack[0])
    sweep.gamma_rows[:] = config.gamma
    sweep.weights[0] = weights = lift._weights
    sweep.set_radius(delta)

    def on_boundary(vec: np.ndarray) -> bool:
        return abs(_norm(vec) - delta) <= 1e-10 * max(1.0, delta)

    if not on_boundary(s):
        # the first step's direction, from slot 0's partial at blocks (1, s)
        blocks[0, :, 1:] = s
        w = sweep.partial(0)[0, 1:] - config.gamma * s
        if _norm(w) < DEGENERATE_TOL:
            s = delta * np.linalg.eigh(poly.hessian(s))[1][:, 0]
    lam = 0.0
    history: list[float] = []
    inner_total = 0
    outer = 0
    converged = False

    # the sweeps divide by |w| and may meet NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        while outer < config.max_outer and not converged:
            # Each round restarts the sweeps from identical copies of s, so
            # a round that stalls with blocks on different critical points
            # is pulled back together instead of stalling forever.
            blocks[0, :, 1:] = s
            inner_total += _boundary_sweeps(sweep, config)
            outer += 1
            j = int(sweep.block_values()[0].argmin())
            new_val = float(weights.dot(sweep.prods[0, :, j].copy()))
            if history and new_val > history[-1] + 1e-9 * max(
                    1.0, abs(history[-1])):
                # A round that raises the model value means the sweeps hop
                # between basins; keep the better point and report the run
                # as not converged rather than record a non-descent step.
                logger.warning("round %d raised the model value from %.6g "
                               "to %.6g; stopping without convergence",
                               outer, history[-1], new_val)
                break
            s = blocks[0, j, 1:].copy()
            grad = poly.gradient(s)
            lam = -float(s.dot(grad)) / delta ** 2
            history.append(new_val)
            gl_norm = _norm(grad + lam * s)
            converged = on_boundary(s) and gl_norm < config.tol
    _keep(key, sweep)
    if not converged:
        logger.warning("boundary solve stopped at %d rounds with "
                       "stationarity residual %.3g", outer, gl_norm)
    # s is the point whose value was recorded last
    return BoundaryResult(s=s, lambda_=lam, value=history[-1],
                          grad_lagrangian_norm=gl_norm,
                          inner_iters=inner_total, outer_iters=outer,
                          history=tuple(history), converged=converged)


def check_second_order(poly: TaylorPoly, s: np.ndarray,
                       lam: float) -> tuple[float, bool]:
    """Smallest eigenvalue of the Lagrangian Hessian projected onto the
    tangent space of s, and whether it clears 1e-10.

    It passes vacuously for n = 1, raises DomainError on a non-finite s or
    lam and on s = 0 (no tangent space), and logs the Hessian's inertia.
    """
    s = _check_point(s, poly.n)
    if not math.isfinite(lam):
        raise DomainError("second-order check needs a finite lam")
    if s.size == 1:
        return math.inf, True
    eye = np.eye(s.size)
    mat = poly.hessian(s) + lam * eye
    if logger.isEnabledFor(logging.INFO):
        full = np.linalg.eigvalsh(mat)
        logger.info("unprojected Lagrangian Hessian has %d negative "
                    "eigenvalues (smallest %.6g)",
                    int((full < -1e-10).sum()), float(full[0]))
    basis = _tangent_basis(s, eye)
    min_eig = float(np.linalg.eigvalsh(basis.T @ mat @ basis)[0])
    return min_eig, min_eig > 1e-10


def _tangent_basis(s: np.ndarray, eye=None) -> np.ndarray:
    """Orthonormal basis of the complement of s != 0: the last n - 1
    columns of the Householder reflector of u = s / |s| (Golub & Van Loan,
    5.1), s scaled by its largest entry first so that no norm overflows.
    eye, when given, is the caller's np.eye(s.size)."""
    if not s.any():
        raise DomainError("s = 0 has no tangent space")
    u = s / np.abs(s).max()
    u /= math.sqrt(u.dot(u))
    eye = np.eye(s.size) if eye is None else eye
    v = u + math.copysign(1.0, u[0]) * eye[0]
    return eye[:, 1:] - np.multiply.outer(v, u[1:] / (1.0 + abs(u[0])))


def random_cubic(n: int, seed: int,
                 scales: tuple[float, float, float] = (80.0, 80.0, 80.0)
                 ) -> TaylorPoly:
    """Seeded cubic model with standard normal blocks g, H, T: gradient
    a*g, Hessian b*sym(H), third term c*sym(T) for (a, b, c) = scales."""
    _check_count("n", n, DomainError)
    _check_count("seed", seed, DomainError, 0)
    try:
        a, b, c = scales
    except (TypeError, ValueError):
        raise DomainError(f"scales must be three reals, got {scales!r}") \
            from None
    for scale in (a, b, c):
        _check_real("each scale", scale, DomainError, signed=True)
    rng = np.random.default_rng(seed)
    g = a * rng.standard_normal(n)
    h = b * rng.standard_normal((n, n))
    t = c * rng.standard_normal((n, n, n))
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
    try:  # an integer, as operator.index takes it: 2.7 is not truncated
        n, p = operator.index(data["n"]), operator.index(data["p"])
    except (KeyError, TypeError):
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
                alpha = tuple(map(operator.index, item["alpha"]))
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
            poly = TaylorPoly.from_cubic(data.get("f0", 0.0), data["g"],
                                         data["H"], data["T"])
        except (DimError, DomainError, TypeError, ValueError) as exc:
            raise ParseError(f"{label}: {exc}") from exc
        if poly.n != n:
            raise ParseError(f"{label}: n is {n}, but the dense blocks are "
                             f"on R^{poly.n}")
        return poly
    raise ParseError(f"{label}: need either terms or dense g/H/T blocks")
