"""Boundary-step solver tests.

Linear and quadratic models have closed-form sphere minima, which pins the
multiplier and the step exactly; cubic instances are checked against dense
sampling and second-order certificates.
"""

import hashlib
import itertools
import json
import logging
import math
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from specteig import (BoundaryConfig, ConfigError, DimError, DomainError,
                      TaylorPoly, check_second_order, lagrangian_grad,
                      load_poly, poly_to_dict, random_cubic, solve_boundary)
import specteig.pam as pam
import specteig.tensor_core as tensor_core
import specteig.trust_region as trust_region
from specteig.errors import NumericalError, ParseError
from specteig.pam import _BlockSweep
from specteig.tensor_core import SymTensor, _contract
from specteig.trust_region import (_boundary_sweeps, _shift_tensor,
                                   _tangent_basis)

from conftest import (boundary_fields, fd_gradient, reference_evaluate,
                      reference_gradient, reference_solve_boundary,
                      reference_hessian, reference_homogenize,
                      same_as_wrapped)


def seated_sweep(stack, start, p, delta, gamma=8.0):
    """A new boundary sweep of the (1, (n + 1)**p) stack's lift shape,
    seated as solve_boundary seats it: the stack, gamma, the radius, and
    every lifted block (1, start)."""
    n = len(start)
    sweep = _BlockSweep(p, n + 1, 1, lead=1)
    sweep.stack[:] = stack
    sweep.gamma_rows[:] = gamma
    sweep.set_radius(delta)
    sweep.blocks[0, :, 1:] = start
    return sweep


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

    @staticmethod
    def _equals_its_transposes(dense):
        for perm in itertools.permutations(range(3)):
            assert np.array_equal(np.transpose(dense, perm), dense), perm

    def test_from_cubic_lift_is_exactly_symmetric(self):
        # asymmetric blocks: every entry of the lift, the six sums of the
        # T block included, equals the entry at each permutation bit for bit
        rng = np.random.default_rng(4310)
        for n in (1, 2, 5, 9, 17):
            g, h = rng.standard_normal(n), rng.standard_normal((n, n))
            t = 1e3 * rng.standard_normal((n, n, n))
            self._equals_its_transposes(
                TaylorPoly.from_cubic(0.25, g, h, t).lifted.dense)

    @pytest.mark.parametrize("n", [*range(1, 11), 15, 30])
    def test_from_cubic_lift_matches_full_cube_formula(self, n):
        # the lift's class values against the lift assembled on the full
        # cube: the six transposes of T summed in permutations order, each
        # T entry then read at its sorted index
        rng = np.random.default_rng(4320 + n)
        f0, g = rng.standard_normal(), rng.standard_normal(n)
        h, t = rng.standard_normal((n, n)), rng.standard_normal((n, n, n))
        t[rng.uniform(size=t.shape) < 0.1] = -0.0
        want = np.empty((n + 1,) * 3)
        want[0, 0, 0] = f0
        want[0, 0, 1:] = want[0, 1:, 0] = want[1:, 0, 0] = g / 3.0
        want[0, 1:, 1:] = want[1:, 0, 1:] = want[1:, 1:, 0] = \
            0.5 * (h + h.T) / 6.0
        tsym = sum(map(t.transpose, itertools.permutations(range(3)))) / 6.0
        i, j, k = np.ogrid[:n, :n, :n]
        lo = np.minimum(np.minimum(i, j), k)
        hi = np.maximum(np.maximum(i, j), k)
        sorted_flat = (lo * (n - 1) + i + j + k - hi) * n + hi
        want[1:, 1:, 1:] = tsym.take(sorted_flat) / 6.0
        got = TaylorPoly.from_cubic(f0, g, h, t).lifted.dense
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(1, 31))
    def test_random_cubic_lift_is_exactly_symmetric(self, n):
        self._equals_its_transposes(random_cubic(n, 70 + n).lifted.dense)

    def test_from_cubic_checks_block_shapes(self):
        g, h, t = cubic_blocks(3, 2)
        with pytest.raises(DimError, match="g must be a vector"):
            TaylorPoly.from_cubic(0.0, h, h, t)
        with pytest.raises(DomainError, match="n must be an integer >= 1"):
            TaylorPoly.from_cubic(0.0, g[:0], h[:0, :0], t[:0, :0, :0])
        for blocks in ((h[:2], t), (h, t[:2]), (h[:, :, None], t),
                       (h, t[:, :, 0])):
            with pytest.raises(DimError, match="blocks must have shapes"):
                TaylorPoly.from_cubic(0.0, g, *blocks)

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


#: SHA-256 of lifted.dense.tobytes() then lifted._weights.tobytes(), its
#: first 32 hex digits, for the 21 models of the boundary workload's
#: set-up: (seed, n) of the battery at scales 80, and (42, 15), the radius
#: sweep's model at scales (200, 8, 2). Recorded before from_cubic took
#: its per-n plan; the lifts must not change by a bit.
LIFT_DIGESTS = {
    (1000, 2): "6f67d018ba0551f96b200e982375b4a6",
    (1000, 3): "06a5b1d127ccba72831bc2419c1d4ff0",
    (1000, 4): "ae6eaac629a63ba34751d6f647264a7c",
    (1000, 5): "f7e358c1b8ceed3caf5a99c7b6a44610",
    (1000, 6): "38df09a2eb0501ea3cc24b402920f6a8",
    (1000, 7): "f1059dabc7c6fd1a24c2c9184b0abf98",
    (1000, 8): "2ef5ea86e0de17e8d9604947b4448079",
    (1000, 9): "c0e0b73c0ef6ecfb301abc10c6008220",
    (1000, 10): "eae991349857ab23a892081f028339f5",
    (1002, 2): "6876034661e2f891a089ed0f2126e4be",
    (1002, 3): "0ad5df8ca3afe85dfd463527c63126e8",
    (1002, 4): "00608aec991a94eed5f047034ed25ef4",
    (1002, 5): "ba791ceaabe0036721547f2575297ef5",
    (1002, 6): "df02026e96770c92c5850222638a8647",
    (1002, 7): "44ae72f2049fdb9517d2f72ec826362d",
    (1002, 8): "26cf8ca35101ee9d59649e49c3e2c264",
    (1002, 9): "558c59b9e7eb55a045780581ca4f160d",
    (1002, 10): "1ad6ee60e00a2f0039e050dc79d55a64",
    (1000, 15): "25042c40544eef916efee8a57fcd9483",
    (1000, 30): "a3d0cd0cca74260bba174ae9b757ab96",
    (42, 15): "6e2a01b9e95898c619fdfbf1a515cdf6",
}


class TestCubicPlan:
    """from_cubic's lift from the per-n plan, laid out from its class
    values by SymTensor._from_classes."""

    @pytest.mark.parametrize("key", LIFT_DIGESTS)
    def test_set_up_lifts_are_pinned(self, key):
        seed, n = key
        scales = (200.0, 8.0, 2.0) if seed == 42 else (80.0, 80.0, 80.0)
        lift = random_cubic(n, seed, scales).lifted
        digest = hashlib.sha256(lift.dense.tobytes())
        digest.update(lift._weights.tobytes())
        assert digest.hexdigest()[:32] == LIFT_DIGESTS[key]

    @pytest.mark.parametrize("n", [1, 2, 30])
    def test_from_cubic_equals_the_wrapped_array(self, n):
        # weights and norm from the class values equal those read back
        # from the array
        same_as_wrapped(random_cubic(n, 7).lifted)

    def test_terms_equal_the_wrapped_array(self):
        poly = TaylorPoly(3, 4, {(0, 0, 0): 1.5, (1, 2, 0): -0.25,
                                 (0, 0, 4): 3.0, (2, 1, 1): 1e-3})
        same_as_wrapped(poly.lifted)

    @pytest.mark.parametrize("n", [1, 2, 5, 30])
    def test_plan_is_read_only_and_cached(self, n):
        h_pos, t_pos = trust_region._cubic_plan(n)
        assert trust_region._cubic_plan(n)[0] is h_pos
        assert h_pos.shape == (2, n * (n + 1) // 2)
        assert t_pos.shape == (6, math.comb(n + 2, 3))
        for arr in (h_pos, t_pos):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0
        # the flat positions of H[j, k] and H[k, j], and those of T[i, j, k]
        # under each permutation of T's strides, in the order of the sums
        pairs = itertools.combinations_with_replacement(range(n), 2)
        assert h_pos.T.tolist() == [[j * n + k, k * n + j] for j, k in pairs]
        strides = list(itertools.permutations((n * n, n, 1)))
        tails = itertools.combinations_with_replacement(range(n), 3)
        assert t_pos.T.tolist() == [
            [sum(w * i for w, i in zip(perm, idx)) for perm in strides]
            for idx in tails]


class TestBoundaryEngine:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_shift_tensor_form(self, p):
        dim = 4
        dense = _shift_tensor(p, dim)
        assert not dense.flags.writeable
        assert _shift_tensor(p, dim) is dense
        shift = SymTensor._from_dense(dense)
        for perm in itertools.permutations(range(p)):
            assert np.array_equal(dense, np.transpose(dense, perm))
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
                 - _shift_tensor(p, n + 1)).reshape(1, -1)
        sweep = seated_sweep(stack, np.full(n, 0.1), p, delta)
        blocks = sweep.blocks
        config = BoundaryConfig(inner_max_iter=1)
        for _ in range(30):
            with np.errstate(divide="ignore", invalid="ignore"):
                assert _boundary_sweeps(sweep, config) == 1
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
                 - _shift_tensor(p, n + 1)).reshape(1, -1)
        config = BoundaryConfig(inner_max_iter=1)
        sweep = seated_sweep(stack, np.full(n, 0.3), p, delta, config.gamma)
        blocks = sweep.blocks
        sweep2 = _BlockSweep(p, n + 1, 2, lead=1)
        sweep2.stack[:] = stack
        sweep2.blocks[:] = blocks
        sweep2.gamma_rows[:] = config.gamma
        sweep2.set_radius(delta)
        blocks2 = sweep2.blocks
        for _ in range(30):
            with np.errstate(divide="ignore", invalid="ignore"):
                assert _boundary_sweeps(sweep, config) == 1
                sweep2.sweep()
            assert blocks2[0].tobytes() == blocks[0].tobytes()
            assert blocks2[1].tobytes() == blocks[0].tobytes()
            # h as the boundary sweep takes it, from the last partial
            h = float(np.dot(_contract(stack[0], list(blocks[0, :-1])),
                             blocks[0, -1]))
            h2 = np.vecdot(sweep2.last_partial, blocks2[:, -1])
            assert h2.tolist() == [h, h]

    def test_non_finite_direction_raises(self):
        # finite model, but its partial at |s| = 1e200 overflows
        poly = TaylorPoly(2, 3, {(3, 0): 1e150, (0, 3): 1e150})
        stack = poly.lifted.dense.reshape(1, -1)
        sweep = seated_sweep(stack, np.array([1e200, 0.0]), 3, 1e200)
        with pytest.raises(NumericalError), np.errstate(
                over="ignore", divide="ignore", invalid="ignore"):
            _boundary_sweeps(sweep, BoundaryConfig())


class TestLagrangianGrad:
    def test_matches_parts(self):
        p = random_cubic(3, 7)
        s = np.array([0.5, -1.0, 2.0])
        out = lagrangian_grad(p, s, 1.5)
        assert np.allclose(out, p.gradient(s) + 1.5 * s, rtol=1e-14)


class TestSolveBoundary:
    def test_one_errstate_per_solve(self, monkeypatch, caplog):
        # the rounds of a solve share one error state, entered once around
        # them and not once per round
        caplog.set_level(logging.ERROR, logger="specteig")
        entered = Counter()
        errstate = np.errstate

        def counted_errstate(**kwargs):
            entered[tuple(sorted(kwargs))] += 1
            return errstate(**kwargs)

        monkeypatch.setattr(trust_region.np, "errstate", counted_errstate)
        cases = [(random_cubic(n, seed), 2.0) for n in (2, 5, 9)
                 for seed in range(3)]
        rounds = sum(solve_boundary(poly, delta).outer_iters
                     for poly, delta in cases)
        assert rounds > len(cases)
        assert entered == {("divide", "invalid"): len(cases)}

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


def battery_cases(seeds=range(30)):
    """(poly, delta) of the boundary battery's cubics at n = 2..10 for the
    seeds, then of its n = 15 radius sweep, as
    scripts/run_boundary_battery.py builds them."""
    sweep = random_cubic(15, 42, (200.0, 8.0, 2.0))
    return ([(random_cubic(n, seed), 2.0) for seed in seeds
             for n in range(2, 11)]
            + [(sweep, float(d)) for d in range(1, 11)])


def order_cases():
    """(poly, delta, config) for models of degree 1, 2 and 4, from the
    origin and from a given start, and for cubics with zero gradient,
    whose first round starts from a Hessian eigenvector."""
    cases = []
    for p, n in ((1, 1), (1, 4), (2, 2), (2, 5), (4, 2), (4, 4)):
        for seed in range(3):
            poly, _, s = _model(p, n, 1.0, False, seed)
            cases.append((poly, 0.5 + seed, None))
            cases.append((poly, 1.5, BoundaryConfig(s0=s, gamma=3.0)))
    cases += [(random_cubic(n, seed, (0.0, 80.0, 80.0)), 2.0, None)
              for n in (2, 5) for seed in range(3)]
    return cases


def counted_sweeps(monkeypatch) -> list:
    """Record every sweep solve_boundary builds, in order."""
    built = []

    def recording_sweep(*args, **kwargs):
        built.append(_BlockSweep(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(trust_region, "_BlockSweep", recording_sweep)
    return built


class TestRoundsMatchTheReference:
    """A round gathers its class products once, reuses slot 0's chain and
    runs on the idle sweep of its shape; every field of every result
    equals, by float.hex, the round loop written out without any of that
    (conftest.reference_solve_boundary)."""

    @pytest.fixture(autouse=True)
    def quiet(self, caplog):
        caplog.set_level(logging.ERROR, logger="specteig")

    @staticmethod
    def _solve_both(poly, delta, config=None):
        return (boundary_fields(solve_boundary(poly, delta, config)),
                boundary_fields(reference_solve_boundary(poly, delta,
                                                         config)))

    @pytest.mark.parametrize("seeds", [range(0, 15), range(15, 30)])
    def test_battery_and_radius_sweep(self, seeds):
        for poly, delta in battery_cases(seeds):
            got, want = self._solve_both(poly, delta)
            assert got == want, (poly, delta)

    def test_degrees_one_two_and_four(self):
        for poly, delta, config in order_cases():
            got, want = self._solve_both(poly, delta, config)
            assert got == want, (poly, delta, config)

    def test_idle_sweeps_answer_as_new_ones(self, monkeypatch):
        monkeypatch.setattr(tensor_core, "_STORE", {})
        built = counted_sweeps(monkeypatch)
        cases = [(poly, delta, None) for poly, delta in battery_cases(
            range(3))] + order_cases()
        want = [boundary_fields(reference_solve_boundary(*c)) for c in cases]
        assert [boundary_fields(solve_boundary(*c)) for c in cases] == want
        shapes = {(c[0].p, c[0].n) for c in cases}
        assert sorted((b.blocks.shape[1], b.blocks.shape[2] - 1)
                      for b in built) == sorted(shapes)
        # the same shapes at other radii, gammas and alphas, and two more
        # shapes, leave their sweeps idle with other contents
        for poly, delta, _ in cases:
            solve_boundary(poly, 0.5 * delta + 0.3,
                           BoundaryConfig(gamma=3.0, alpha=0.25))
        for n in (12, 20):
            solve_boundary(random_cubic(n, 5), 1.0)
        assert len(built) == len(shapes) + 2
        assert [boundary_fields(solve_boundary(*c)) for c in cases] == want
        assert len(built) == len(shapes) + 2

    def test_a_nested_solve_takes_its_own_sweep(self, monkeypatch, caplog):
        # random_cubic(2, 0) at delta 2 stops on a round that raises its
        # value; the warning's handler runs a solve of the same shape while
        # the outer solve holds its sweep
        caplog.set_level(logging.WARNING, logger="specteig.trust_region")
        poly, other = random_cubic(2, 0), random_cubic(2, 7)
        inner_config = BoundaryConfig(gamma=3.0, alpha=0.5)
        solve_boundary(other, 1.0)  # the shape's sweep is idle
        used, nested = [], []
        sweeps = trust_region._boundary_sweeps

        def recording_sweeps(sweep, config):
            used.append((bool(nested), sweep))
            return sweeps(sweep, config)

        monkeypatch.setattr(trust_region, "_boundary_sweeps",
                            recording_sweeps)

        class Nest(logging.Handler):
            def emit(self, record):
                if not nested and "raised" in record.getMessage():
                    nested.append(None)
                    nested[0] = solve_boundary(other, 1.5, inner_config)

        handler = Nest(level=logging.WARNING)
        log = logging.getLogger("specteig.trust_region")
        log.addHandler(handler)
        try:
            res = solve_boundary(poly, 2.0)
        finally:
            log.removeHandler(handler)
        assert nested and not res.converged
        outer = {id(sw) for inside, sw in used if not inside}
        inner = {sw for inside, sw in used if inside}
        assert len(outer) == 1 and len(inner) == 1
        assert outer.isdisjoint(map(id, inner))
        outer_sweep = next(sw for inside, sw in used if not inside)
        assert not np.shares_memory(outer_sweep.stack,
                                    inner.pop().stack)
        assert boundary_fields(res) == boundary_fields(
            reference_solve_boundary(poly, 2.0))
        assert boundary_fields(nested[0]) == boundary_fields(
            reference_solve_boundary(other, 1.5, inner_config))

    def test_threads_of_one_shape_keep_their_answers(self):
        # more threads than cores, switching often: a sweep two solves
        # shared would mix their rounds
        cases = [(random_cubic(6, seed), delta, BoundaryConfig(gamma=gamma))
                 for seed, delta, gamma in ((0, 2.0, 8.0), (1, 0.5, 3.0),
                                            (2, 1.0, 8.0), (3, 3.0, 5.0))]
        want = [boundary_fields(reference_solve_boundary(*c)) for c in cases]
        got = [[None] * 10 for _ in cases]

        def solve(i):
            for k in range(10):
                got[i][k] = boundary_fields(solve_boundary(*cases[i]))

        threads = [threading.Thread(target=solve, args=(i,))
                   for i in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for w, runs in zip(want, got):
            assert runs == [w] * 10

    def test_a_round_gathers_once(self, monkeypatch):
        # one class-product gather per round, no homogeneous-form call,
        # and no contraction over all p blocks (the value before a round's
        # sweeps, and the start test, are slot 0's plan partial)
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def counted_contract(dense, blocks):
            counts["contract", len(blocks)] += 1
            return _contract(dense, blocks)

        monkeypatch.setattr(pam._BlockSweep, "block_values", counted(
            "gather", pam._BlockSweep.block_values))
        monkeypatch.setattr(trust_region, "_contract", counted_contract)
        for name in ("apply_full", "apply_full_many"):
            monkeypatch.setattr(SymTensor, name, counted(
                name, getattr(SymTensor, name)))
        cases = [(poly, delta, None) for poly, delta in battery_cases(
            range(2))] + order_cases()
        for poly, delta, config in cases:
            counts.clear()
            res = solve_boundary(poly, delta, config)
            p = poly.p
            assert counts["gather"] == res.outer_iters
            assert counts["apply_full"] == counts["apply_full_many"] == 0
            assert counts["contract", p] == 0
            # one gradient per recorded round
            assert counts["contract", p - 1] == len(res.history)


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

    def test_tangent_basis_is_orthonormal_and_tangent(self):
        rng = np.random.default_rng(2184)
        for n in range(2, 41):
            eye = np.eye(n)
            cases = [eye[0], -eye[0], eye[n - 1], -eye[n // 2],
                     eye[0] - eye[1]]
            cases += [scale * v
                      for scale in (1e-300, 1e-150, 1.0, 1e150, 1e300)
                      for v in (rng.standard_normal(n), eye[1])]
            for s in cases:
                basis = _tangent_basis(s)
                assert basis.shape == (n, n - 1)
                assert np.abs(basis.T @ basis - np.eye(n - 1)).max() <= 1e-14
                u = s / np.abs(s).max()
                u /= np.linalg.norm(u)
                assert np.abs(u @ basis).max() <= 1e-15

    @pytest.mark.parametrize("n", [2, 5])
    def test_zero_step_has_no_tangent_space(self, n):
        with pytest.raises(DomainError):
            _tangent_basis(np.zeros(n))
        with pytest.raises(DomainError):
            check_second_order(random_cubic(n, 3), np.zeros(n), 1.0)

    @pytest.mark.parametrize("n", [2, 3, 7, 15, 30])
    def test_min_eig_matches_the_scipy_projection(self, n):
        # SciPy's null space is an independent basis of the same tangent
        # space, so the projected spectra agree up to rounding
        p = random_cubic(n, 60 + n)
        rng = np.random.default_rng(n)
        for _ in range(5):
            s = rng.standard_normal(n)
            s *= 2.0 / np.linalg.norm(s)
            lam = float(rng.uniform(-50.0, 50.0))
            basis = null_space(s.reshape(1, n))
            mat = p.hessian(s) + lam * np.eye(n)
            want = float(np.linalg.eigvalsh(basis.T @ mat @ basis)[0])
            got, ok = check_second_order(p, s, lam)
            assert abs(got - want) <= 1e-12 * np.linalg.norm(mat, 2)
            assert ok == (got > 1e-10)


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
        for seed in (-1, 2.5, math.nan, None):
            with pytest.raises(DomainError, match="seed must be an integer"):
                random_cubic(4, seed)


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
