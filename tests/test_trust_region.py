"""Boundary-step solver tests.

Linear and quadratic models have closed-form sphere minima, which pins the
multiplier and the step exactly; cubic instances are checked against dense
sampling and second-order certificates.
"""

import itertools
import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from specteig import (BoundaryConfig, ConfigError, DimError, DomainError,
                      TaylorPoly, check_second_order, lagrangian_grad,
                      load_poly, poly_to_dict, random_cubic, solve_boundary)
from specteig.errors import NumericalError, ParseError
from specteig.pam import _BlockSweep, _ProxStep
from specteig.tensor_core import _contract, _SweepPlan
from specteig.trust_region import (_boundary_sweeps, _shift_tensor,
                                   _tangent_basis)

from conftest import (fd_gradient, reference_evaluate, reference_gradient,
                      reference_hessian, reference_homogenize)


def cubic_blocks(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n)
    h = rng.standard_normal((n, n))
    h = 0.5 * (h + h.T)
    t = rng.standard_normal((n, n, n))
    t = sum(np.transpose(t, perm) for perm in
            ((0, 1, 2), (0, 2, 1), (1, 0, 2),
             (1, 2, 0), (2, 0, 1), (2, 1, 0))) / 6.0
    return g, h, t


class TestTaylorPoly:
    def test_evaluate_simple(self):
        p = TaylorPoly(2, 2, {(0, 0): 2.0, (1, 0): 3.0, (1, 1): 1.0})
        assert p.evaluate(np.array([1.0, 2.0])) == pytest.approx(7.0)
        assert p.evaluate(np.zeros(2)) == pytest.approx(2.0)

    def test_evaluate_many_matches_loop(self):
        p = random_cubic(3, 17)
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((20, 3))
        many = p.evaluate_many(mat)
        for row, val in zip(mat, many):
            assert val == pytest.approx(p.evaluate(row), rel=1e-12)

    def test_gradient_hessian_match_finite_differences(self):
        p = random_cubic(4, 23, scales=(1.0, 1.0, 1.0))
        rng = np.random.default_rng(1)
        for _ in range(5):
            s = rng.standard_normal(4)
            g = p.gradient(s)
            fd = fd_gradient(p.evaluate, s)
            assert np.linalg.norm(g - fd) <= 1e-6 * max(
                1.0, np.linalg.norm(g))
            h = p.hessian(s)
            fd_h = np.stack([fd_gradient(
                lambda v, i=i: p.gradient(v)[i], s) for i in range(4)])
            assert np.linalg.norm(h - fd_h) <= 1e-5 * max(
                1.0, np.linalg.norm(h))

    def test_from_cubic_is_exact(self):
        g, h, t = cubic_blocks(3, 11)
        p = TaylorPoly.from_cubic(1.5, g, h, t)
        rng = np.random.default_rng(2)
        for _ in range(10):
            s = rng.standard_normal(3)
            expect = (1.5 + float(g @ s) + 0.5 * float(s @ h @ s)
                      + float(np.einsum("ijk,i,j,k->", t, s, s, s)) / 6.0)
            assert p.evaluate(s) == pytest.approx(expect, rel=1e-10,
                                                  abs=1e-12)
            grad = (g + h @ s
                    + 0.5 * np.einsum("ijk,j,k->i", t, s, s))
            assert np.allclose(p.gradient(s), grad, rtol=1e-10, atol=1e-12)

    def test_from_cubic_symmetrizes(self):
        g = np.zeros(2)
        h_asym = np.array([[1.0, 4.0], [0.0, 2.0]])
        h_sym = 0.5 * (h_asym + h_asym.T)
        t = np.zeros((2, 2, 2))
        pa = TaylorPoly.from_cubic(0.0, g, h_asym, t)
        ps = TaylorPoly.from_cubic(0.0, g, h_sym, t)
        assert pa.coeffs == ps.coeffs

    @pytest.mark.parametrize("block", ["f0", "g", "H", "T"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_from_cubic_rejects_non_finite_blocks(self, block, bad):
        g, h, t = cubic_blocks(2, 3)
        parts = {"f0": 0.5, "g": g, "H": h, "T": t}
        if block == "f0":
            parts[block] = bad
        else:
            parts[block] = parts[block].copy()
            parts[block].flat[1] = bad
        with pytest.raises(DomainError):
            TaylorPoly.from_cubic(parts["f0"], parts["g"], parts["H"],
                                  parts["T"])

    def test_validation(self):
        with pytest.raises(DomainError):
            TaylorPoly(0, 2, {})
        with pytest.raises(DomainError):
            TaylorPoly(2, 0, {})
        with pytest.raises(DimError):
            TaylorPoly(2, 2, {(1,): 1.0})
        with pytest.raises(DomainError):
            TaylorPoly(2, 2, {(2, 1): 1.0})
        with pytest.raises(DomainError):
            TaylorPoly(2, 2, {(1, 0): math.nan})
        for method in ("evaluate", "gradient", "hessian"):
            with pytest.raises(DimError):
                getattr(TaylorPoly(2, 2, {}), method)(np.zeros(3))
        with pytest.raises(DimError):
            TaylorPoly(2, 2, {}).evaluate_many(np.zeros((2, 3)))


def block_sum(f0, g, h, t, s):
    """f0 + g.s + s.H s / 2 + T[s]^3 / 6 from the blocks themselves."""
    return (f0 + float(g @ s) + 0.5 * float(s @ h @ s)
            + float(np.einsum("ijk,i,j,k->", t, s, s, s)) / 6.0)


def block_magnitude(f0, g, h, t, s):
    """The same sum with every block and point entry made nonnegative,
    which bounds the rounding of either side."""
    return block_sum(abs(f0), abs(g), abs(h), abs(t), abs(s))


def cubic_terms(f0, g, h, t):
    """The {exponent: coefficient} terms of a cubic model, enumerated one
    monomial at a time from the symmetric blocks."""
    n = g.shape[0]
    terms = {(0,) * n: f0}
    for k, block in ((1, g), (2, h), (3, t)):
        for idx in itertools.combinations_with_replacement(range(n), k):
            alpha = tuple(idx.count(i) for i in range(n))
            mult = math.factorial(k) // math.prod(
                math.factorial(a) for a in alpha)
            terms[alpha] = mult * float(block[idx]) / math.factorial(k)
    return terms


class TestHomogenize:
    def test_quadratic_entry(self):
        p = TaylorPoly(2, 2, {(2, 0): 1.0})
        t = p.lifted
        assert (t.order, t.dim) == (2, 3)
        assert t.entry(2, 2) == pytest.approx(1.0)

    def test_linear_entry_in_cubic(self):
        p = TaylorPoly(2, 3, {(1, 0): 5.0})
        t = p.lifted
        assert (t.order, t.dim) == (3, 3)
        # the class mixes two lifted coordinates and one variable slot, so
        # the stored entry carries a multinomial weight of one third
        assert t.entry(1, 1, 2) == pytest.approx(5.0 / 3.0)

    def test_lifted_form_reproduces_polynomial(self):
        g, h, t = cubic_blocks(4, 31)
        lift = TaylorPoly.from_cubic(0.7, g, h, t).lifted
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = rng.standard_normal(4)
            lifted = np.concatenate(([1.0], s))
            # the model stores only the lift, so compare with the blocks
            assert lift.apply_full(lifted) == pytest.approx(
                block_sum(0.7, g, h, t, s), rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("n,seed", [(1, 5), (3, 6), (6, 7)])
    def test_from_cubic_lift_matches_blocks_and_terms(self, n, seed):
        g, h, t = cubic_blocks(n, seed)
        lift = TaylorPoly.from_cubic(-1.3, g, h, t).lifted
        ulps = 8 * np.finfo(float).eps
        rng = np.random.default_rng(seed)
        for _ in range(20):
            s = 2.0 * rng.standard_normal(n)
            got = lift.apply_full(np.concatenate(([1.0], s)))
            assert abs(got - block_sum(-1.3, g, h, t, s)) <= (
                ulps * block_magnitude(-1.3, g, h, t, s))
        from_terms = TaylorPoly(n, 3, cubic_terms(-1.3, g, h, t)).lifted
        scale = float(np.abs(from_terms.dense).max())
        assert float(np.abs(lift.dense - from_terms.dense).max()) <= (
            ulps * scale)


def _model(p, n, density, at_zero, seed):
    """Seeded degree-p model keeping each exponent of degree <= p with
    probability `density` (0 gives the empty model), and a point s that is
    zero when `at_zero`."""
    rng = np.random.default_rng(seed)
    coeffs = {}
    for k in range(p + 1):
        for combo in itertools.combinations_with_replacement(range(n), k):
            if rng.uniform() < density:
                alpha = [0] * n
                for j in combo:
                    alpha[j] += 1
                coeffs[tuple(alpha)] = float(rng.uniform(-1.0, 1.0))
    s = np.zeros(n) if at_zero else rng.uniform(-2.0, 2.0, n)
    return TaylorPoly(n, p, coeffs), coeffs, s


MODELS = st.tuples(st.integers(1, 5), st.integers(1, 6),
                   st.sampled_from([0.0, 0.3, 1.0]), st.booleans(),
                   st.integers(0, 10 ** 6))


class TestLiftedEvaluation:
    """The model is evaluated through its lift; the exponent loops and the
    entry-by-entry lift in conftest, run on the input terms, are the
    references."""

    @staticmethod
    def _same_lift(poly, terms):
        got, ref = poly.lifted, reference_homogenize(terms, poly.n, poly.p)
        assert (got.order, got.dim) == (ref.order, ref.dim)
        assert got.dense.tobytes() == ref.dense.tobytes()
        assert list(got.canonical.items()) == list(ref.canonical.items())

    @given(MODELS)
    @settings(max_examples=100, deadline=None)
    def test_lift_is_bit_identical(self, case):
        poly, terms, _ = _model(*case)
        self._same_lift(poly, terms)
        assert poly.lifted is poly.lifted

    def test_lift_is_bit_identical_beyond_int64_factorials(self):
        # 21! overflows int64, so the weights need exact integers
        terms = {(k,): 1.0 + k for k in range(22)}
        self._same_lift(TaylorPoly(1, 21, terms), terms)

    @given(MODELS)
    @settings(max_examples=100, deadline=None)
    def test_value_gradient_hessian_match_loops(self, case):
        poly, terms, s = _model(*case)
        # the same sums with |coefficients| at |s| bound the rounding
        mag = {a: abs(c) for a, c in terms.items()}
        tol = 1e-12
        assert abs(poly.evaluate(s) - reference_evaluate(terms, s)) <= (
            tol * reference_evaluate(mag, abs(s)))
        rows = np.stack([s, -s, np.ones(poly.n)])
        expect = [reference_evaluate(terms, r) for r in rows]
        bound = [reference_evaluate(mag, abs(r)) for r in rows]
        assert np.all(np.abs(poly.evaluate_many(rows) - expect)
                      <= tol * np.array(bound))
        assert np.all(np.abs(poly.gradient(s) - reference_gradient(terms, s))
                      <= tol * reference_gradient(mag, abs(s)))
        assert np.all(np.abs(poly.hessian(s) - reference_hessian(terms, s))
                      <= tol * reference_hessian(mag, abs(s)))

    @pytest.mark.parametrize("n", [1, 3])
    def test_degree_one_hessian_is_zero(self, n):
        poly = TaylorPoly(n, 1, {(0,) * n: 2.0, (1,) + (0,) * (n - 1): -3.0})
        assert poly.hessian(np.full(n, 0.7)).tobytes() == np.zeros(
            (n, n)).tobytes()
        assert poly.gradient(np.zeros(n))[0] == -3.0

    def test_oversized_lift_raises_config_error(self):
        # 257**3 entries exceed MAX_DENSE_ENTRIES; the lift is built at
        # construction, which raises before allocating it
        with pytest.raises(ConfigError):
            TaylorPoly(256, 3, {(1,) + (0,) * 255: 1.0})


class TestBoundaryEngine:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_shift_tensor_form(self, p):
        dim = 4
        shift = _shift_tensor(p, dim)
        for perm in itertools.permutations(range(p)):
            assert np.array_equal(shift.dense, np.transpose(shift.dense,
                                                            perm))
        rng = np.random.default_rng(p)
        for _ in range(10):
            y = rng.standard_normal(dim)
            norm = float(np.linalg.norm(y))
            want = y[0] * norm ** (p - 1) if p % 2 else norm ** p
            assert shift.apply_full(y) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("p,n,delta", [(3, 4, 2.0), (4, 3, 0.5),
                                           (1, 3, 1.5)])
    def test_every_sweep_keeps_blocks_on_the_slice(self, p, n, delta):
        poly, _, _ = _model(p, n, 1.0, False, 11)
        stack = (poly.lifted.dense
                 - _shift_tensor(p, n + 1).dense).reshape(1, -1)
        blocks = np.empty((1, p, n + 1))
        blocks[0] = np.concatenate(([1.0], np.full(n, 0.1)))
        sweep = _boundary_sweeps(stack, blocks, delta,
                                 BoundaryConfig(inner_max_iter=1))
        for _ in range(30):
            assert sweep() == 1
            assert np.all(blocks[0, :, 0] == 1.0)
            assert np.all(np.abs(np.linalg.norm(blocks[0, :, 1:], axis=1)
                                 - delta) <= 1e-12)

    @pytest.mark.parametrize("p", [1, 3, 4])
    def test_one_row_sweeps_match_a_two_row_sweep(self, p):
        # the one-row step of every boundary sweep against the batched step
        # of a two-row sweep on the stack and blocks duplicated
        n, delta = 4, 1.5
        poly, _, _ = _model(p, n, 1.0, False, 7)
        stack = (poly.lifted.dense
                 - _shift_tensor(p, n + 1).dense).reshape(1, -1)
        config = BoundaryConfig(inner_max_iter=1)
        blocks = np.empty((1, p, n + 1))
        blocks[0] = np.concatenate(([1.0], np.full(n, 0.3)))
        sweep = _boundary_sweeps(stack, blocks, delta, config)
        stack2, blocks2 = np.repeat(stack, 2, axis=0), np.repeat(blocks, 2,
                                                                axis=0)
        plan = _SweepPlan(stack2, blocks2)
        sweep2 = _BlockSweep(plan, _ProxStep(2, n, delta), blocks2[:, :, 1:],
                             config.gamma, lead=1)
        for _ in range(30):
            assert sweep() == 1
            with np.errstate(divide="ignore", invalid="ignore"):
                sweep2.sweep()
            assert blocks2[0].tobytes() == blocks[0].tobytes()
            assert blocks2[1].tobytes() == blocks[0].tobytes()
            # h as the boundary sweep takes it, from the last partial
            h = float(np.dot(_contract(stack[0], list(blocks[0, :-1])),
                             blocks[0, -1]))
            h2 = np.vecdot(plan.partial_buffer(p - 1), blocks2[:, -1])
            assert h2.tolist() == [h, h]

    def test_non_finite_direction_raises(self):
        # finite model, but its partial at |s| = 1e200 overflows
        poly = TaylorPoly(2, 3, {(3, 0): 1e150, (0, 3): 1e150})
        stack = poly.lifted.dense.reshape(1, -1)
        blocks = np.empty((1, 3, 3))
        blocks[0] = np.array([1.0, 1e200, 0.0])
        with pytest.raises(NumericalError), np.errstate(over="ignore"):
            _boundary_sweeps(stack, blocks, 1e200, BoundaryConfig())()


class TestLagrangianGrad:
    def test_matches_parts(self):
        p = random_cubic(3, 7)
        s = np.array([0.5, -1.0, 2.0])
        out = lagrangian_grad(p, s, 1.5)
        assert np.allclose(out, p.gradient(s) + 1.5 * s, rtol=1e-14)


class TestSolveBoundary:
    def test_value_is_the_model_at_the_step(self, caplog):
        # value is the last recorded round's, which is the model at s, on
        # converged solves and on ones that a round raising the value
        # stops, random_cubic(2, 0) at delta 2 among them
        cases = [(n, seed, delta) for n in range(1, 7) for seed in range(5)
                 for delta in (0.5, 2.0)]
        stopped = 0
        with caplog.at_level(logging.ERROR, logger="specteig"):
            for n, seed, delta in cases + [(2, 0, 2.0)]:
                poly = random_cubic(n, seed)
                res = solve_boundary(poly, delta)
                assert res.value == poly.evaluate(res.s), (n, seed, delta)
                assert res.value == res.history[-1]
                stopped += not res.converged
        assert not res.converged
        assert stopped > 1

    def test_linear_oracle(self):
        # minimizing s_1 over |s| = 2 lands at -2 e_1 with multiplier 1/2
        p = TaylorPoly.from_cubic(0.0, np.array([1.0, 0.0, 0.0]),
                                  np.zeros((3, 3)), np.zeros((3, 3, 3)))
        res = solve_boundary(p, 2.0)
        assert res.converged
        assert np.allclose(res.s, [-2.0, 0.0, 0.0], atol=1e-8)
        assert res.lambda_ == pytest.approx(0.5, abs=1e-8)
        assert res.value == pytest.approx(-2.0, abs=1e-8)
        assert res.grad_lagrangian_norm <= 1e-5

    def test_quadratic_oracle(self):
        # smallest eigenvalue -3 of the Hessian fixes step, value, and
        # multiplier on the unit sphere
        h = np.diag([-3.0, 1.0, 2.0])
        p = TaylorPoly.from_cubic(0.0, np.zeros(3), h, np.zeros((3, 3, 3)))
        config = BoundaryConfig(s0=np.array([0.3, 0.2, 0.1]))
        res = solve_boundary(p, 1.0, config)
        assert res.converged
        assert abs(res.s[0]) == pytest.approx(1.0, abs=1e-6)
        assert res.lambda_ == pytest.approx(3.0, abs=1e-6)
        assert res.value == pytest.approx(-1.5, abs=1e-8)
        min_eig, ok = check_second_order(p, res.s, res.lambda_)
        assert ok
        assert min_eig == pytest.approx(4.0, abs=1e-5)

    def test_zero_gradient_quadratic_starts_on_sphere(self):
        # with no gradient every step direction at the origin vanishes, so
        # the solve starts from the Hessian's lowest eigenvector instead:
        # the minimizer +-e_1 with multiplier -2
        h = np.diag([2.0, 3.0])
        p = TaylorPoly.from_cubic(0.0, np.zeros(2), h, np.zeros((2, 2, 2)))
        res = solve_boundary(p, 1.0, BoundaryConfig(max_outer=20))
        assert res.converged
        assert np.allclose(np.abs(res.s), [1.0, 0.0], atol=1e-12)
        assert res.lambda_ == pytest.approx(-2.0, abs=1e-12)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        min_eig, ok = check_second_order(p, res.s, res.lambda_)
        assert ok
        assert min_eig == pytest.approx(1.0, abs=1e-10)

    def test_zero_gradient_cubic_is_certified(self):
        # a stationary point of a seeded cubic: the step must reach the
        # sphere and pass both the first- and second-order checks
        p = random_cubic(3, 0, (0.0, 80.0, 80.0))
        assert not p.gradient(np.zeros(3)).any()
        res = solve_boundary(p, 2.0)
        assert res.converged
        assert abs(np.linalg.norm(res.s) - 2.0) <= 1e-9
        assert res.grad_lagrangian_norm <= 1e-5
        _, ok = check_second_order(p, res.s, res.lambda_)
        assert ok

    def test_delta_validated(self):
        p = random_cubic(3, 1)
        with pytest.raises(DomainError):
            solve_boundary(p, 0.0)
        with pytest.raises(DomainError):
            solve_boundary(p, -1.0)

    def test_s0_shape_checked(self):
        p = random_cubic(3, 1)
        with pytest.raises(ConfigError):
            solve_boundary(p, 1.0, BoundaryConfig(s0=np.zeros(4)))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            BoundaryConfig(gamma=-1.0)
        with pytest.raises(ConfigError):
            BoundaryConfig(tol=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["gamma", "alpha", "tol", "inner_eps"])
    def test_config_rejects_non_finite_fields(self, field, value):
        with pytest.raises(ConfigError):
            BoundaryConfig(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_delta_must_be_finite(self, value):
        with pytest.raises(DomainError):
            solve_boundary(random_cubic(3, 1), value)

    @pytest.mark.parametrize("seed,n", [(1000, 3), (1002, 5)])
    def test_cubic_battery_member(self, seed, n):
        p = random_cubic(n, seed)
        res = solve_boundary(p, 2.0)
        assert res.converged
        assert res.grad_lagrangian_norm <= 1e-5
        assert abs(np.linalg.norm(res.s) - 2.0) <= 1e-9
        assert res.lambda_ > 0.0
        for a, b in zip(res.history, res.history[1:]):
            assert b <= a + 1e-9 * max(1.0, abs(a))
        _, ok = check_second_order(p, res.s, res.lambda_)
        assert ok

    def test_near_global_on_samples(self):
        p = random_cubic(3, 1000)
        res = solve_boundary(p, 2.0)
        rng = np.random.default_rng(99)
        dirs = rng.standard_normal((20000, 3))
        dirs *= 2.0 / np.linalg.norm(dirs, axis=1, keepdims=True)
        assert res.value <= float(p.evaluate_many(dirs).min()) + 1e-2


class TestCheckSecondOrder:
    def test_zero_polynomial_with_shift(self):
        p = TaylorPoly(2, 2, {})
        min_eig, ok = check_second_order(p, np.array([1.0, 0.0]), 1.0)
        assert min_eig == pytest.approx(1.0, rel=1e-12)
        assert ok

    def test_univariate_is_vacuous(self):
        p = TaylorPoly(1, 2, {(2,): 1.0})
        min_eig, ok = check_second_order(p, np.array([1.0]), 0.0)
        assert min_eig == math.inf
        assert ok

    def test_detects_saddle(self):
        h = np.diag([-3.0, 1.0, 2.0])
        p = TaylorPoly.from_cubic(0.0, np.zeros(3), h, np.zeros((3, 3, 3)))
        # e_2 is stationary with multiplier -1 but not a minimizer
        min_eig, ok = check_second_order(p, np.array([0.0, 1.0, 0.0]), -1.0)
        assert not ok
        assert min_eig == pytest.approx(-4.0, abs=1e-10)

    def test_shape_checked(self):
        p = TaylorPoly(2, 2, {})
        with pytest.raises(DimError):
            check_second_order(p, np.zeros(3), 0.0)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_raises_domain_error(self, n, bad):
        # a typed error, and still a ValueError for callers that catch one
        p = random_cubic(n, 1)
        s = np.ones(n)
        s[-1] = bad
        for args in ((s, 1.0), (np.ones(n), bad)):
            with pytest.raises(DomainError):
                check_second_order(p, *args)
        assert issubclass(DomainError, ValueError)

    def test_tangent_basis_is_scipys_null_space(self):
        # values and memory layout alike: the layout picks the BLAS kernel
        # of the projection, so either could change the certificate's bits
        rng = np.random.default_rng(2184)
        for n in range(2, 41):
            eye = np.eye(n)
            cases = [np.zeros(n), eye[0], eye[n - 1], -eye[n // 2],
                     1e-300 * eye[1]]
            cases += [scale * rng.standard_normal(n)
                      for scale in (1e-300, 1e-150, 1.0, 1e150, 1e300)]
            for s in cases:
                got, want = _tangent_basis(s), null_space(s.reshape(1, n))
                assert got.shape == want.shape
                assert got.strides == want.strides
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [2, 3, 7, 15, 30])
    def test_min_eig_matches_the_scipy_projection(self, n):
        p = random_cubic(n, 60 + n)
        rng = np.random.default_rng(n)
        for _ in range(5):
            s = rng.standard_normal(n)
            s *= 2.0 / np.linalg.norm(s)
            lam = float(rng.uniform(-50.0, 50.0))
            basis = null_space(s.reshape(1, n))
            mat = p.hessian(s) + lam * np.eye(n)
            want = float(np.linalg.eigvalsh(basis.T @ mat @ basis)[0])
            assert check_second_order(p, s, lam) == (want, want > 1e-10)


class TestRandomCubic:
    def test_reproducible(self):
        assert random_cubic(4, 9).coeffs == random_cubic(4, 9).coeffs
        assert random_cubic(4, 9).coeffs != random_cubic(4, 10).coeffs

    def test_scales_act_linearly(self):
        base = random_cubic(3, 5, scales=(1.0, 0.0, 0.0))
        doubled = random_cubic(3, 5, scales=(2.0, 0.0, 0.0))
        for alpha, coeff in base.coeffs.items():
            assert doubled.coeffs[alpha] == pytest.approx(2.0 * coeff,
                                                          rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            random_cubic(0, 1)


class TestSerialization:
    def test_dict_round_trip(self):
        p = random_cubic(3, 13)
        q = load_poly(poly_to_dict(p))
        assert q.coeffs == p.coeffs
        assert (q.n, q.p) == (p.n, p.p)

    def test_file_round_trip(self, tmp_path):
        p = random_cubic(2, 21)
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(poly_to_dict(p)))
        q = load_poly(path)
        assert q.coeffs == p.coeffs

    def test_dense_blocks_form(self):
        g, h, t = cubic_blocks(3, 41)
        doc = {"n": 3, "p": 3, "f0": 0.5, "g": g.tolist(),
               "H": h.tolist(), "T": t.tolist()}
        q = load_poly(doc)
        expect = TaylorPoly.from_cubic(0.5, g, h, t)
        s = np.array([0.2, -0.7, 1.1])
        assert q.evaluate(s) == pytest.approx(expect.evaluate(s), rel=1e-12)

    @pytest.mark.parametrize("block", ["f0", "g", "H", "T"])
    def test_non_finite_dense_blocks_raise_parse_error(self, block):
        g, h, t = cubic_blocks(2, 43)
        doc = {"n": 2, "p": 3, "f0": 0.5, "g": g.tolist(), "H": h.tolist(),
               "T": t.tolist()}
        if block == "f0":
            doc[block] = math.nan
        else:
            doc[block] = np.array(doc[block])
            doc[block].flat[0] = math.inf
            doc[block] = doc[block].tolist()
        with pytest.raises(ParseError):
            load_poly(doc)

    def test_parse_errors(self, tmp_path):
        with pytest.raises(ParseError):
            load_poly({"n": 2})
        with pytest.raises(ParseError):
            load_poly({"n": 2, "p": 2})
        with pytest.raises(ParseError):
            load_poly({"n": 2, "p": 3, "terms": [], "g": [0.0, 0.0]})
        with pytest.raises(ParseError):
            load_poly({"n": 2, "p": 2,
                       "terms": [{"alpha": [1, 0]}]})
        with pytest.raises(ParseError):
            load_poly({"n": 2, "p": 2,
                       "terms": [{"alpha": [1, 0], "coeff": 1.0},
                                 {"alpha": [1, 0], "coeff": 2.0}]})
        with pytest.raises(ParseError):
            load_poly({"n": 2, "p": 2, "g": [1.0, 0.0],
                       "H": [[0.0] * 2] * 2, "T": [[[0.0] * 2] * 2] * 2})
        with pytest.raises(ParseError):
            load_poly({"n": 2, "p": 3, "g": [1.0, 0.0]})
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            load_poly(bad)
        with pytest.raises(ParseError):
            load_poly({"n": 2, "p": 2,
                       "terms": [{"alpha": [1, 0, 0], "coeff": 1.0}]})
