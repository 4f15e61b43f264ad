"""Shared fixtures and oracle helpers for the test suite.

The dense helpers materialize full numpy arrays from canonical entry maps
so that every structural contraction in the package can be checked against
an independent einsum-style route.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from importlib import resources
from scipy.optimize import minimize

from dataclasses import dataclass, replace

from specteig import (BoundaryConfig, BoundaryResult, DenominatorError,
                      DinkelbachResult, Given, NumericalError,
                      PamConfig, SymTensor, Uniform,
                      ZIdentity, axpy, f_theta, load_tensor)
from specteig.dinkelbach import MONOTONE_SLACK, _initial_point
from specteig.pam import DEGENERATE_TOL, _BlockSweep, _init_blocks
from specteig.tensor_core import _contract
from specteig.trust_region import _shift_tensor

_ACCEPTANCE_LINES: list[str] = []


def record_criterion(num: int, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"CRITERION {num}: {status}" + (f" -- {detail}" if detail else "")
    _ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def criterion_log():
    """Callable recording one pass/fail line per acceptance criterion."""
    return record_criterion


def to_dense(t) -> np.ndarray:
    """Full dense array of a symmetric tensor, built from its canonical
    map."""
    arr = np.zeros((t.dim,) * t.order)
    for idx, val in t.canonical.items():
        for perm in set(itertools.permutations(idx)):
            arr[perm] = val
    return arr


def permutation_count(idx) -> float:
    """The number of distinct orderings of an index tuple, as a float."""
    return math.factorial(len(idx)) / math.prod(
        math.factorial(k) for k in Counter(idx).values())


def whole_table(t: SymTensor) -> tuple[np.ndarray, np.ndarray]:
    """Every class of t's shape as (C, m) rows, and its count times its
    value in t's canonical map (0.0 where t has none)."""
    canon = t.canonical
    rows = list(itertools.combinations_with_replacement(range(t.dim),
                                                        t.order))
    weights = [permutation_count(idx) * canon.get(idx, 0.0) for idx in rows]
    return np.array(rows, dtype=np.intp).reshape(-1, t.order), \
        np.array(weights)


def reference_apply_full_many(t: SymTensor, xs) -> np.ndarray:
    """The homogeneous form at every row by the last-axis gather over the
    shape's whole class table: an (N, C, m) array of class components,
    multiplied along its last axis, then the matrix-vector product with
    the class weights."""
    rows, weights = whole_table(t)
    xs = np.asarray(xs, dtype=float)
    return np.prod(xs[:, rows], axis=2) @ weights


def reference_apply_full(t: SymTensor, x) -> float:
    """The homogeneous form at one point by the last-axis gather over the
    shape's whole class table."""
    rows, weights = whole_table(t)
    x = np.asarray(x, dtype=float)
    return float(np.dot(weights, np.prod(x[rows], axis=1)))


def dense_multilinear(arr: np.ndarray, blocks) -> float:
    out = arr
    for b in blocks:
        out = np.tensordot(out, np.asarray(b, dtype=float), axes=([0], [0]))
    return float(out)


def dense_partial(arr: np.ndarray, blocks) -> np.ndarray:
    """Contract all axes but the first with the given vectors."""
    out = arr
    for b in blocks:
        out = np.tensordot(out, np.asarray(b, dtype=float),
                           axes=([out.ndim - 1], [0]))
    return np.asarray(out, dtype=float)


def reference_block_update(surrogate, blocks, slot, gamma, radius, prev):
    """Proximal block step by comparing the objective at both sphere
    candidates +-radius * w / |w|, w = c - gamma * prev, with the partial c
    from the kernel's free-slot contraction."""
    others = [blocks[i] for i in range(len(blocks)) if i != slot]
    c = surrogate.multilinear_partial(others, slot)
    w = c - gamma * prev
    nw = float(np.linalg.norm(w))
    if nw < DEGENERATE_TOL:
        return prev.copy()
    u = radius / nw * w
    lo, hi = -u, u
    obj_lo = float(np.dot(c, lo)) + 0.5 * gamma * float(
        np.dot(lo - prev, lo - prev))
    obj_hi = float(np.dot(c, hi)) + 0.5 * gamma * float(
        np.dot(hi - prev, hi - prev))
    if abs(obj_lo - obj_hi) < DEGENERATE_TOL:
        return lo if float(np.dot(lo, prev)) >= float(np.dot(hi, prev)) else hi
    return lo if obj_lo < obj_hi else hi


@dataclass(frozen=True)
class ReferencePamResult:
    """The fields of a PamResult, with the residual computed up front."""

    v: np.ndarray
    value: float
    blocks: tuple[np.ndarray, ...]
    iterations: int
    converged: bool
    kkt_residual: float
    history: tuple[tuple[int, float, float, float], ...]


def reference_pam_solve(a_theta, config: PamConfig,
                        rng=None) -> ReferencePamResult:
    """PAM by the plain loop: one block update per slot, each with its own
    full partial, the multilinear value from the kernel, and one
    homogeneous-form call per block value. Same stopping rule as
    `pam_solve`, without its warnings; the residual comes from its own
    loop, not from the package's."""
    d = len(config.gammas)
    alpha = config.alpha if config.alpha is not None \
        else a_theta.frobenius_norm()
    surrogate = axpy(a_theta, ZIdentity(d, a_theta.dim), alpha)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    start = np.empty((d, a_theta.dim))
    _init_blocks(config.init, rng, start)
    blocks = [b.copy() for b in start]
    block_vals = [surrogate.apply_full(b) for b in blocks]
    j0 = int(np.argmin(block_vals))
    v, value = blocks[j0].copy(), block_vals[j0]
    history = []
    converged = False
    for k in range(1, config.max_iter + 1):
        prev = [b.copy() for b in blocks]
        for j in range(d):
            blocks[j] = reference_block_update(surrogate, blocks, j,
                                               config.gammas[j], 1.0,
                                               blocks[j])
        h_t = surrogate.multilinear_apply(blocks)
        step = math.sqrt(sum(float(np.dot(b - p, b - p))
                             for b, p in zip(blocks, prev)))
        block_vals = [surrogate.apply_full(b) for b in blocks]
        j_best = int(np.argmin(block_vals))
        h_v = block_vals[j_best]
        history.append((k, h_t, h_v, step))
        stalled = abs(h_v - value) < config.eps
        v, value = blocks[j_best].copy(), h_v
        if stalled:
            converged = True
            break
    total = 0.0
    for j in range(d):
        others = [blocks[i] for i in range(d) if i != j]
        r = surrogate.multilinear_partial(others, j) - h_t * blocks[j]
        total += float(np.dot(r, r))
    return ReferencePamResult(v=v, value=value, blocks=tuple(blocks),
                              iterations=k, converged=converged,
                              kkt_residual=math.sqrt(total),
                              history=tuple(history))


def reference_dinkelbach_solve(problem, config) -> DinkelbachResult:
    """The parametric loop run one subproblem after another, each by
    `reference_pam_solve`, with the same retry, monotone guard and trace
    checks as `dinkelbach_solve`."""
    a, b = problem.numerator, problem.denominator
    d = problem.degree
    rng = np.random.default_rng(config.inner.seed)
    x0 = _initial_point(problem, config, rng)
    g0 = b.apply_full(x0)
    if g0 <= 0:
        raise DenominatorError(f"denominator is {g0:.6g} at the initial "
                               f"point")
    theta = a.apply_full(x0) / g0
    fresh_init = config.inner.init if isinstance(config.inner.init, Uniform) \
        else Uniform()
    init = Given(tuple(x0.copy() for _ in range(d)))
    trace = []
    x = x0
    inner_total = 0
    solves = 0
    converged = False
    for k in range(1, config.k_max + 1):
        a_theta = axpy(a, b, theta)
        res = reference_pam_solve(a_theta, replace(config.inner, init=init),
                                  rng=rng)
        inner_total += res.iterations
        solves += 1
        v = res.v / float(np.linalg.norm(res.v))
        big_f = f_theta(problem, theta, v)
        if big_f >= config.tol:
            res2 = reference_pam_solve(
                a_theta, replace(config.inner, init=fresh_init), rng=rng)
            inner_total += res2.iterations
            solves += 1
            v2 = res2.v / float(np.linalg.norm(res2.v))
            big_f2 = f_theta(problem, theta, v2)
            if big_f2 < big_f:
                v, big_f = v2, big_f2
            if big_f >= config.tol:
                break
        if trace and big_f < trace[-1][2] - MONOTONE_SLACK:
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
        init = Given(tuple(v.copy() for _ in range(d)))
    for (_, t0, f0), (_, t1, f1) in zip(trace, trace[1:]):
        if t1 > t0 + MONOTONE_SLACK or f0 > f1 + MONOTONE_SLACK:
            raise NumericalError("trace is not monotone")
    if any(f > config.tol + MONOTONE_SLACK for _, _, f in trace):
        raise NumericalError("parametric value exceeded the stopping "
                             "tolerance from above")
    return DinkelbachResult(theta=theta, x=x,
                            outer_iters=max(1, len(trace) - 1),
                            trace=tuple(trace), converged=converged,
                            inner_iters=inner_total, n_solves=solves)


def _exponent_arrays(terms, n: int) -> tuple[np.ndarray, np.ndarray]:
    items = sorted(terms.items())
    expo = np.array([a for a, _ in items], dtype=np.intp).reshape(-1, n)
    return expo, np.array([v for _, v in items], dtype=float)


def reference_evaluate(terms, s: np.ndarray) -> float:
    """The model with the given {exponent: coefficient} terms at s, by its
    exponent rows: sum of f_alpha prod s^alpha."""
    expo, coef = _exponent_arrays(terms, s.shape[0])
    if coef.size == 0:
        return 0.0
    return float(np.dot(coef, np.prod(s[None, :] ** expo, axis=1)))


def reference_gradient(terms, s: np.ndarray) -> np.ndarray:
    """The model's gradient by differentiating each exponent row."""
    n = s.shape[0]
    expo_all, coef_all = _exponent_arrays(terms, n)
    grad = np.zeros(n)
    for i in range(n):
        rows = expo_all[:, i] > 0
        if not rows.any():
            continue
        expo = expo_all[rows].copy()
        coef = coef_all[rows] * expo[:, i]
        expo[:, i] -= 1
        grad[i] = float(np.dot(coef, np.prod(s[None, :] ** expo, axis=1)))
    return grad


def reference_hessian(terms, s: np.ndarray) -> np.ndarray:
    """The model's Hessian by differentiating each exponent row twice."""
    n = s.shape[0]
    expo_all, coef_all = _exponent_arrays(terms, n)
    hess = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            expo, coef = expo_all.copy(), coef_all.copy()
            for axis in (i, j):
                rows = expo[:, axis] > 0
                expo = expo[rows]
                coef = coef[rows] * expo[:, axis]
                expo[:, axis] = expo[:, axis] - 1
            if coef.size == 0:
                continue
            val = float(np.dot(coef, np.prod(s[None, :] ** expo, axis=1)))
            hess[i, j] = val
            hess[j, i] = val
    return hess


def reference_solve_boundary(poly, delta: float,
                             config: BoundaryConfig | None = None
                             ) -> BoundaryResult:
    """The boundary round loop written out without shared work: a new
    sweep plan, block sweep and step per call, the surrogate value before
    each round's sweeps from a full kernel contraction, the best block by
    apply_full_many and its value by a second evaluate, the gradient by
    poly.gradient and every norm by np.linalg.norm. The same stopping
    rules as `solve_boundary`, without its warnings."""
    config = config or BoundaryConfig()
    n, p = poly.n, poly.p
    s = np.zeros(n) if config.s0 is None \
        else np.asarray(config.s0, dtype=float).copy()
    stack = (poly.lifted.dense - config.alpha
             * _shift_tensor(p, n + 1).dense).reshape(1, -1)

    def on_boundary(vec):
        return abs(float(np.linalg.norm(vec)) - delta) <= 1e-10 * max(
            1.0, delta)

    if not on_boundary(s):
        y = np.concatenate(([1.0], s))
        w = _contract(stack[0], [y] * (p - 1))[1:] - config.gamma * s
        if float(np.linalg.norm(w)) < DEGENERATE_TOL:
            s = delta * np.linalg.eigh(poly.hessian(s))[1][:, 0]
    steps = _BlockSweep(p, n + 1, 1, lead=1)
    steps.stack[:] = stack
    steps.gamma_rows[:] = config.gamma
    steps.set_radius(delta)
    blocks = steps.blocks
    c_last, b_last = steps.last_partial[0], blocks[0, -1]
    lam, history, inner, outer, converged = 0.0, [], 0, 0, False
    while outer < config.max_outer:
        if outer > 0 and on_boundary(s) and float(np.linalg.norm(
                grad + lam * s)) < config.tol:
            converged = True
            break
        blocks[0] = np.concatenate(([1.0], s))
        h_prev = float(_contract(stack[0], list(blocks[0]))[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            for k in range(1, config.inner_max_iter + 1):
                steps.sweep()
                h = float(np.dot(c_last, b_last))
                if not math.isfinite(h):
                    raise NumericalError("non-finite surrogate value")
                if abs(h - h_prev) < config.inner_eps:
                    break
                h_prev = h
        inner += k
        outer += 1
        j = int(np.argmin(poly.lifted.apply_full_many(blocks[0])))
        s_new = blocks[0, j, 1:].copy()
        new_val = poly.evaluate(s_new)
        if history and new_val > history[-1] + 1e-9 * max(
                1.0, abs(history[-1])):
            break
        s = s_new
        grad = poly.gradient(s)
        lam = -float(np.dot(s, grad)) / delta ** 2
        history.append(new_val)
    gl_norm = float(np.linalg.norm(grad + lam * s))
    if not converged and on_boundary(s) and gl_norm < config.tol:
        converged = True
    return BoundaryResult(s=s, lambda_=lam, value=history[-1],
                          grad_lagrangian_norm=gl_norm, inner_iters=inner,
                          outer_iters=outer, history=tuple(history),
                          converged=converged)


def boundary_fields(res: BoundaryResult) -> tuple:
    """Every field of a boundary result, floats as float.hex."""
    return (tuple(float(x).hex() for x in res.s), float(res.lambda_).hex(),
            float(res.value).hex(), float(res.grad_lagrangian_norm).hex(),
            res.inner_iters, res.outer_iters,
            tuple(float(v).hex() for v in res.history), res.converged)


def reference_homogenize(terms, n: int, p: int) -> SymTensor:
    """The lift of the degree-p terms on R^n built entry by entry: each
    coefficient times its exact integer factorial product over p!, at its
    lifted index class, through the validating `SymTensor` constructor."""
    fact_p = math.factorial(p)
    canon: dict[tuple[int, ...], float] = {}
    for alpha, coeff in terms.items():
        k = p - sum(alpha)
        idx = (0,) * k + tuple(i + 1 for i, a in enumerate(alpha)
                               for _ in range(a))
        weight = (math.factorial(k)
                  * math.prod(math.factorial(a) for a in alpha)) / fact_p
        canon[idx] = coeff * weight
    return SymTensor(p, n + 1, canon)


def _outer_powers(x: np.ndarray, k: int) -> np.ndarray:
    """Row-wise k-fold outer powers of the rows of x, flattened."""
    out = np.ones((x.shape[0], 1))
    for _ in range(k):
        out = (out[:, :, None] * x[:, None, :]).reshape(x.shape[0], -1)
    return out


def _slot_matrices(arr: np.ndarray, x: np.ndarray) -> np.ndarray:
    """arr contracted with each row of x on all but two slots: (T, n, n)."""
    n = arr.shape[0]
    flat = arr.reshape(n * n, -1)
    return (_outer_powers(x, arr.ndim - 2) @ flat.T).reshape(-1, n, n)


def ratio_local_minima(a_arr: np.ndarray, b_arr: np.ndarray,
                       starts: int = 1000, seed: int = 0) -> list[float]:
    """Distinct values of A x^m / B x^m at its strict local minimizers on
    the unit sphere, ascending, for a positive denominator form.

    Newton's method on A x^(m-1) = lambda B x^(m-1), |x|^2 = 1 runs from
    `starts` seeded sphere points at once. Every start that converges is a
    critical point of the ratio; there the ratio's Hessian on the tangent
    space x^perp is a positive multiple of P (A x^(m-2) - lambda B x^(m-2)) P
    with P = I - x x^T, so the point is a strict local minimizer when that
    matrix plus x x^T (which moves the zero on x to one) is positive
    definite. Independent of the package's solvers: dense arrays
    (as from `to_dense`) and NumPy only.
    """
    m, n = a_arr.ndim, a_arr.shape[0]

    def contract(x):
        a2, b2 = _slot_matrices(a_arr, x), _slot_matrices(b_arr, x)
        return (a2, b2, np.einsum("tij,tj->ti", a2, x),
                np.einsum("tij,tj->ti", b2, x))

    x = np.random.default_rng(seed).standard_normal((starts, n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    a2, b2, ax, bx = contract(x)
    lam = np.einsum("ti,ti->t", ax, x) / np.einsum("ti,ti->t", bx, x)
    alive = np.ones(starts, dtype=bool)
    for _ in range(40):
        jac = np.zeros((starts, n + 1, n + 1))
        jac[:, :n, :n] = (m - 1) * (a2 - lam[:, None, None] * b2)
        jac[:, :n, n] = -bx
        jac[:, n, :n] = x
        rhs = np.concatenate(
            [ax - lam[:, None] * bx,
             0.5 * (np.einsum("ti,ti->t", x, x) - 1.0)[:, None]], axis=1)
        step = np.einsum("tij,tj->ti", np.linalg.pinv(jac), rhs)
        x = x - step[:, :n]
        lam = lam - step[:, n]
        # a diverging start is parked on a finite point and discarded
        lost = ~((np.abs(lam) < 1e12) & (np.abs(x) < 1e6).all(axis=1))
        alive &= ~lost
        x[lost], lam[lost] = 1.0 / np.sqrt(n), 0.0
        a2, b2, ax, bx = contract(x)
    resid = np.linalg.norm(ax - lam[:, None] * bx, axis=1)
    alive &= (resid < 1e-9) & (np.abs(np.linalg.norm(x, axis=1) - 1) < 1e-9)
    xx = np.einsum("ti,tj->tij", x, x)
    proj = np.eye(n) - xx
    tangent = proj @ (a2 - lam[:, None, None] * b2) @ proj + xx
    minimal = alive & (np.linalg.eigvalsh(tangent)[:, 0] > 1e-8)
    values: list[float] = []
    for v in np.sort(lam[minimal]):
        if not values or v - values[-1] > 1e-7:
            values.append(float(v))
    return values


def ratio_global_minimum(a_arr: np.ndarray, b_arr: np.ndarray,
                         starts: int = 100, seed: int = 0) -> float:
    """Smallest value of A x^m / B x^m found by BFGS on the ratio itself
    (a degree-0 homogeneous function on R^n minus the origin) from
    `starts` seeded points; SciPy and the dense arrays only."""
    m = a_arr.ndim

    def ratio_and_gradient(x):
        ax = _slot_matrices(a_arr, x[None])[0] @ x
        bx = _slot_matrices(b_arr, x[None])[0] @ x
        g = float(bx @ x)
        r = float(ax @ x) / g
        return r, m * (ax - r * bx) / g

    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(starts):
        x0 = rng.standard_normal(a_arr.shape[0])
        out = minimize(ratio_and_gradient, x0, jac=True, method="BFGS",
                       options={"gtol": 1e-10})
        best = min(best, float(out.fun))
    return best


def random_symtensor(m: int, n: int, rng: np.random.Generator,
                     scale: float = 1.0) -> SymTensor:
    canon = {idx: float(scale * rng.uniform(-1.0, 1.0))
             for idx in itertools.combinations_with_replacement(range(n), m)}
    return SymTensor(m, n, canon)


def fd_gradient(fun, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    out = np.zeros_like(np.asarray(x, dtype=float))
    for i in range(out.shape[0]):
        e = np.zeros_like(out)
        e[i] = step
        out[i] = (fun(x + e) - fun(x - e)) / (2 * step)
    return out


@pytest.fixture(scope="session")
def data_dir(tmp_path_factory):
    """Bundled tensor files copied to a real directory."""
    target = tmp_path_factory.mktemp("data")
    root = resources.files("specteig.data")
    for name in ("example2.tns", "example3.tns", "example4_A.tns",
                 "example4_B.tns"):
        (target / name).write_text(
            (root / name).read_text(encoding="utf-8"), encoding="utf-8")
    return target


@pytest.fixture(scope="session")
def example2(data_dir):
    return load_tensor(data_dir / "example2.tns")


@pytest.fixture(scope="session")
def example3(data_dir):
    return load_tensor(data_dir / "example3.tns")


@pytest.fixture(scope="session")
def example4(data_dir):
    return (load_tensor(data_dir / "example4_A.tns"),
            load_tensor(data_dir / "example4_B.tns"))
