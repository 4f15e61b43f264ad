"""Block-sweep solver tests: exact subproblem oracles plus small instances
with known closed-form optima.
"""

import csv
import dataclasses
import functools
import itertools
import json
import logging
import math
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specteig import (ArityError, ConfigError, DimError, DinkelbachConfig,
                      DomainError, FractionalProblem, Given, HDiagonal,
                      PamConfig, SymTensor, Uniform, ZIdentity, axpy,
                      build_problem, diagonal_tensor, dinkelbach_solve,
                      identity_tensor, kkt_residual, kl_exponent,
                      load_tensor, pam_solve, report_to_json,
                      solve_multistart)
import specteig.dinkelbach
import specteig.eigen
from specteig import pam, tensor_core
from specteig.pam import (DIAGONAL_GAP_SLACK, PamRequest, PamResult,
                          PamStats, _BlockSweep, run_lockstep,
                          write_history_csv)

from conftest import (dense_multilinear, dense_partial, random_symtensor,
                      reference_apply_full_many, reference_pam_solve,
                      to_dense, whole_table)

A1 = SymTensor.from_entries(2, 2, [((1, 1), 1.0), ((2, 2), -2.0)])
SQRT5 = math.sqrt(5.0)


def surrogate(a, alpha):
    """The PAM surrogate tensor A - alpha * E."""
    return axpy(a, ZIdentity(a.order, a.dim), alpha)


class TestPairProduct:
    """The shift's pairing product is the identity tensor's multilinear
    form."""

    def test_two_blocks_is_inner_product(self):
        x = np.array([1.0, 2.0, -1.0])
        y = np.array([0.5, -1.0, 3.0])
        assert identity_tensor(2, 3).multilinear_apply([x, y]) == \
            pytest.approx(float(np.dot(x, y)), rel=1e-14)

    @pytest.mark.parametrize("d,n", [(4, 2), (4, 3), (6, 2)])
    def test_matches_dense_identity_form(self, d, n):
        e = identity_tensor(d, n)
        arr = to_dense(e)
        rng = np.random.default_rng(d * 100 + n)
        for _ in range(5):
            blocks = [rng.standard_normal(n) for _ in range(d)]
            assert e.multilinear_apply(blocks) == pytest.approx(
                dense_multilinear(arr, blocks), rel=1e-10, abs=1e-12)

    def test_diagonal_is_norm_power(self):
        w = np.array([0.6, -0.8, 1.0])
        for d in (2, 4, 6):
            assert identity_tensor(d, 3).multilinear_apply([w] * d) == \
                pytest.approx(float(np.dot(w, w)) ** (d // 2), rel=1e-12)

    def test_odd_count_rejected(self):
        with pytest.raises(ArityError):
            identity_tensor(3, 2)
        cubic = SymTensor.from_entries(3, 2, [((1, 1, 2), 1.0)])
        with pytest.raises(ArityError):
            pam_solve(cubic, PamConfig(gammas=(1.0,) * 3, alpha=1.0))


class TestPairPartial:
    def test_two_blocks(self):
        e = identity_tensor(2, 2)
        x = np.array([1.0, 2.0])
        y = np.array([-3.0, 0.5])
        assert np.allclose(e.multilinear_partial([y], 0), y, rtol=1e-14)
        assert np.allclose(e.multilinear_partial([x], 1), x, rtol=1e-14)

    def test_dot_recovers_value(self):
        e = identity_tensor(4, 3)
        arr = to_dense(e)
        rng = np.random.default_rng(7)
        blocks = [rng.standard_normal(3) for _ in range(4)]
        for slot in range(4):
            g = e.multilinear_partial(blocks[:slot] + blocks[slot + 1:], slot)
            assert float(np.dot(g, blocks[slot])) == pytest.approx(
                dense_multilinear(arr, blocks), rel=1e-12)

    def test_matches_dense_identity_partial(self):
        e = identity_tensor(4, 3)
        arr = to_dense(e)
        rng = np.random.default_rng(9)
        blocks = [rng.standard_normal(3) for _ in range(4)]
        expect = dense_partial(arr, blocks[1:])
        assert np.allclose(e.multilinear_partial(blocks[1:], 0), expect,
                           rtol=1e-10)


class TestSurrogateValues:
    def test_matrix_example(self):
        e2 = np.array([0.0, 1.0])
        h = surrogate(A1, SQRT5)
        assert h.multilinear_apply([e2, e2]) == pytest.approx(
            -2.0 - SQRT5, rel=1e-14)
        assert h.apply_full(e2) == pytest.approx(-2.0 - SQRT5, rel=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_diagonal_consistency(self, seed):
        rng = np.random.default_rng(seed)
        a = random_symtensor(4, 3, rng)
        w = rng.standard_normal(3)
        alpha = a.frobenius_norm()
        expect = a.apply_full(w) - alpha * float(np.dot(w, w)) ** 2
        h = surrogate(a, alpha)
        assert h.multilinear_apply([w] * 4) == pytest.approx(
            expect, rel=1e-10, abs=1e-12)
        assert h.apply_full(w) == pytest.approx(expect, rel=1e-10,
                                                abs=1e-12)


class TestMemberValues:
    """A seated member's start value and apply_full_many are the form over
    the shape's whole class table, zero weights included. Each must equal
    the last-axis gather of its reference bit for bit, on a full and on a
    sparse class set, and on the rows the pool passes."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_reference_gather(self, m):
        rng = np.random.default_rng(900 + m)
        for n in range(1, 5):
            full = random_symtensor(m, n, rng)
            sparse = SymTensor(m, n, {k: v for k, v in full.canonical.items()
                                      if rng.uniform() < 0.5})
            classes = tensor_core._class_table(m, n)[0]
            for a in (full, sparse):
                rows, weights = whole_table(a)
                pool_blocks = rng.standard_normal((3, m, n))
                cases = [rng.standard_normal((k, n)) for k in range(8)]
                # the pool passes one slot's (d, n) blocks, and strided rows
                cases += [pool_blocks[1], pool_blocks[:, 0]]
                for xs in cases:
                    assert np.array_equal(a.apply_full_many(xs),
                                          reference_apply_full_many(a, xs))
                    assert np.array_equal(
                        tensor_core._form_values(xs, classes, weights),
                        np.prod(xs[:, rows], axis=2) @ weights)


@functools.lru_cache(maxsize=None)
def _sweep_of(t, n):
    return _BlockSweep(1, n, t)


def prox_sweep(t, n, radius):
    """A t-row sweep of order 1 on R^n whose prox steps onto the sphere of
    the given radius, one per (t, n), reused."""
    sweep = _sweep_of(t, n)
    sweep.set_radius(radius)
    return sweep


def block_update(surrogate, blocks, slot, gamma, radius, prev):
    """One proximal block step through a one-row `_BlockSweep.prox` on the
    sphere of the given radius, with the partial from the kernel's
    free-slot contraction."""
    others = [blocks[i] for i in range(len(blocks)) if i != slot]
    c = surrogate.multilinear_partial(others, slot)[None]
    prev = np.asarray(prev, dtype=float)[None]
    out = np.empty_like(c)
    with np.errstate(divide="ignore", invalid="ignore"):
        prox_sweep(*c.shape, radius).prox(c, gamma * prev, prev, out)
    return out[0]


class TestBlockUpdate:
    @staticmethod
    def _prox_obj(h, blocks, slot, gamma, prev, x):
        trial = list(blocks)
        trial[slot] = x
        return (h.multilinear_apply(trial)
                + 0.5 * gamma * float(np.dot(x - prev, x - prev)))

    def test_beats_fine_circle_grid(self):
        rng = np.random.default_rng(31)
        a = random_symtensor(4, 2, rng)
        h = surrogate(a, a.frobenius_norm())
        blocks = [rng.standard_normal(2) for _ in range(4)]
        blocks = [b / np.linalg.norm(b) for b in blocks]
        gamma = 1.0
        for slot in range(4):
            prev = blocks[slot].copy()
            out = block_update(h, blocks, slot, gamma, 1.0, prev)
            assert np.linalg.norm(out) == pytest.approx(1.0, rel=1e-12)
            angles = np.linspace(0.0, 2.0 * math.pi, 400001)
            obj_out = self._prox_obj(h, blocks, slot, gamma, prev, out)
            # the subproblem restricted to this block is linear plus the
            # proximal quadratic, so evaluate the grid through the same form
            others = [blocks[i] for i in range(4) if i != slot]
            c = dense_partial(np.moveaxis(to_dense(h), slot, 0), others)
            grid = np.stack([np.cos(angles), np.sin(angles)], axis=1)
            vals = grid @ c + 0.5 * gamma * ((grid - prev) ** 2).sum(axis=1)
            const = obj_out - (float(np.dot(c, out))
                               + 0.5 * gamma * float(
                                   np.dot(out - prev, out - prev)))
            assert obj_out <= float(vals.min()) + const + 1e-9
            blocks[slot] = out

    def test_degenerate_direction_keeps_block(self):
        prev = np.array([1.0, 0.0])
        y = np.array([1.0, 0.0])
        # c = A1 y = gamma * prev exactly, so the direction vanishes
        out = block_update(A1, [prev, y], 0, 1.0, 1.0, prev)
        assert np.array_equal(out, prev)
        assert out is not prev

    def test_tiny_direction_tie_prefers_alignment(self):
        prev = np.array([1.0, 0.0])
        y = np.array([1.0 + 2e-14, 0.0])
        # direction norm 2e-14 with radius 0.1 puts the two candidate
        # objectives within the degeneracy tolerance of each other
        out = block_update(A1, [prev, y], 0, 1.0, 0.1, prev)
        assert np.allclose(out, [0.1, 0.0])

    def test_moves_downhill(self):
        rng = np.random.default_rng(41)
        a = random_symtensor(4, 3, rng)
        h = surrogate(a, a.frobenius_norm())
        blocks = [rng.standard_normal(3) for _ in range(4)]
        blocks = [b / np.linalg.norm(b) for b in blocks]
        prev = blocks[2].copy()
        before = self._prox_obj(h, blocks, 2, 2.0, prev, prev)
        out = block_update(h, blocks, 2, 2.0, 1.0, prev)
        after = self._prox_obj(h, blocks, 2, 2.0, prev, out)
        assert after <= before + 1e-12


class TestProxStepRows:
    """`_BlockSweep.prox` takes every row's |w| from np.vecdot and tests
    its tie and degeneracy guard row by row in Python; a one-row step takes
    |w|, the guard and the scale on Python floats and must round the
    same."""

    @staticmethod
    def _alone_and_doubled(c, damped, prev, r):
        """One row's step through a one-row sweep, and row 0 of a two-row
        one on the row duplicated."""
        n = len(c)
        alone, doubled = np.empty((1, n)), np.empty((2, n))
        prox_sweep(1, n, r).prox(c[None], damped[None], prev[None], alone)
        prox_sweep(2, n, r).prox(
            *(np.stack((x, x)) for x in (c, damped, prev)), doubled)
        return alone[0], doubled[0]

    @pytest.mark.parametrize("t", [1, 3, 8])
    def test_norms_and_steps_match_per_row_dot(self, t):
        # lengths 32 and up reach the SIMD path of OpenBLAS's ddot
        rng = np.random.default_rng(50 + t)
        for n in range(1, 65):
            for scale in 10.0 ** np.arange(-6, 7):
                c = scale * rng.standard_normal((t, n))
                prev = rng.standard_normal((t, n))
                damped = 2.0 * prev
                out = np.empty((t, n))
                sweep = prox_sweep(t, n, 0.5)
                sweep.prox(c, damped, prev, out)
                for i in range(t):
                    w = c[i] - damped[i]
                    norm = math.sqrt(float(np.dot(w, w)))
                    if t > 1:
                        assert sweep.nw[i, 0] == norm
                    assert np.array_equal(out[i], (-0.5 / norm) * w)
                    for r in (0.1, 1.0, 10.0):
                        alone, doubled = self._alone_and_doubled(
                            c[i], damped[i], prev[i], r)
                        assert alone.tobytes() == doubled.tobytes()
            # the pool's h_t and step norm: rows of a (t, d, n) block array
            # and of a (t, d * n) one
            blocks = rng.standard_normal((t, 3, n))
            for x, y in ((c, blocks[:, 2]), (blocks.reshape(t, -1),) * 2):
                got = np.vecdot(x, y)
                assert all(got[i] == np.dot(x[i], y[i]) for i in range(t))

    def test_head_of_one_row_takes_the_one_row_form(self):
        # a pool's one-row tail is the head of its whole sweep: row 0 must
        # step as it does among four rows, and its block values must round
        # as they do there
        rng = np.random.default_rng(3)
        whole = pam._BlockSweep(3, 5, 4)
        whole.stack[:] = rng.standard_normal((4, 5 ** 3))
        blocks = whole.blocks
        blocks[:] = rng.standard_normal((4, 3, 5))
        blocks /= np.linalg.norm(blocks, axis=2, keepdims=True)
        start = blocks.copy()
        whole.gamma_rows[:] = rng.uniform(0.5, 2.0, (4, 3))
        whole.weights[:] = rng.standard_normal(whole.weights.shape)
        assert whole.row is None and whole.head_of(2).row is None
        head = whole.head_of(1)
        assert head.row is not None and whole.head_of(1) is head
        for _ in range(5):
            whole.sweep()
        want = blocks[0].copy()
        want_vals = whole.block_values()[0].copy()
        blocks[:] = start
        for _ in range(5):
            head.sweep()
        assert blocks[0].tobytes() == want.tobytes()
        vals = head.block_values()
        assert vals.shape == (1, 3)
        assert np.shares_memory(vals, whole.vals)
        assert vals[0].tobytes() == want_vals.tobytes()

    def test_rules_change_exactly_the_tied_and_degenerate_rows(self):
        # at radius 0.1 a row ties below |w| = DEGENERATE_TOL / (2 r) =
        # 5e-14 and is degenerate below 1e-14; the guard is 1e-13. One call
        # in every row order: a NaN row must not hide the others, and the
        # rules must leave the ordinary, NaN and inf rows as the formula
        # has them. Every row alone takes the one-row form, which must
        # give the same
        r = 0.1
        u = np.array([0.6, 0.0, -0.8])
        rows = {
            "nan": (np.array([math.nan, 1.0, 0.0]), r * u),
            "inf": (np.array([math.inf, 1.0, 0.0]), r * u),
            "tied": (4.9e-14 * u, r * u),
            "tied, formula nearer": (4.9e-14 * u, -r * u),
            "degenerate": (5e-15 * u, r * np.array([0.0, 1.0, 0.0])),
            "zero": (np.zeros(3), r * u),
            "ordinary": (np.array([0.3, -1.2, 0.5]), r * u),
        }
        with np.errstate(divide="ignore", invalid="ignore"):
            formula = {k: (-r / np.sqrt(np.dot(w, w))) * w
                       for k, (w, _) in rows.items()}
        want = dict(formula, tied=-formula["tied"],
                    degenerate=rows["degenerate"][1], zero=rows["zero"][1])
        with np.errstate(divide="ignore", invalid="ignore"):
            for order in itertools.permutations(rows):
                w = np.array([rows[k][0] for k in order])
                prev = np.array([rows[k][1] for k in order])
                out = np.empty_like(w)
                prox_sweep(len(order), 3, r).prox(w, np.zeros_like(w), prev,
                                                  out)
                for i, k in enumerate(order):
                    assert np.array_equal(out[i], want[k], equal_nan=True), k
            for k, (w, prev) in rows.items():
                alone, doubled = self._alone_and_doubled(
                    w, np.zeros_like(w), prev, r)
                assert np.array_equal(alone, want[k], equal_nan=True), k
                assert alone.tobytes() == doubled.tobytes(), k


class TestPamSolve:
    def test_matrix_global_minimum(self):
        # spectral oracle: the sphere minimum of the quadratic form is the
        # smallest eigenvalue, attained at the matching unit eigenvector
        eigval, eigvec = np.linalg.eigh(np.diag([1.0, -2.0]))[0][0], \
            np.array([0.0, 1.0])
        config = PamConfig(gammas=(1.0, 1.0), alpha=SQRT5, eps=1e-12,
                           seed=5)
        res = pam_solve(A1, config)
        assert res.converged
        assert res.value == pytest.approx(eigval - SQRT5, abs=1e-9)
        assert np.linalg.norm(np.abs(res.v) - np.abs(eigvec)) <= 1e-5
        assert kkt_residual(A1, config, res) <= 1e-4

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_matrix_minimum_from_many_starts(self, seed):
        config = PamConfig(gammas=(1.0, 1.0), alpha=SQRT5, seed=seed)
        res = pam_solve(A1, config)
        assert res.converged
        assert res.value == pytest.approx(-2.0 - SQRT5, abs=1e-6)

    def test_alpha_zero_multilinear_matrix(self):
        # without the diagonal tie the blocks split into the +/- pair of the
        # dominant eigendirection, reaching -|lambda|_max
        a2 = SymTensor.from_entries(2, 2, [((1, 1), 2.0), ((2, 2), 4.0)])
        config = PamConfig(gammas=(1.0, 1.0), alpha=0.0, eps=1e-10, seed=3)
        res = pam_solve(a2, config)
        assert a2.multilinear_apply(list(res.blocks)) == \
            pytest.approx(-4.0, abs=1e-6)

    def test_diagonal_gap_warns_once_per_solve(self, caplog):
        # split blocks keep every block value above the multilinear value
        a2 = SymTensor.from_entries(2, 2, [((1, 1), 2.0), ((2, 2), 4.0)])
        config = PamConfig(gammas=(1.0, 1.0), alpha=0.0, eps=1e-10, seed=3)
        with caplog.at_level(logging.WARNING, logger="specteig.pam"):
            res = pam_solve(a2, config)
        gaps = [h_v - h_t for _, h_t, h_v, _ in res.history
                if h_v > h_t + DIAGONAL_GAP_SLACK]
        assert len(gaps) >= 2
        records = [r for r in caplog.records
                   if "exceeded the multilinear value" in r.getMessage()]
        assert len(records) == 1
        message = records[0].getMessage()
        assert f"in {len(gaps)} of {res.iterations} sweeps" in message
        assert f"largest gap {max(gaps):.3g}" in message

    def test_surrogate_monotone(self):
        rng = np.random.default_rng(55)
        a = random_symtensor(4, 3, rng)
        config = PamConfig(gammas=(1.0,) * 4, seed=11)
        res = pam_solve(a, config)
        h_ts = [row[1] for row in res.history]
        for prev, cur in zip(h_ts, h_ts[1:]):
            assert cur <= prev + 1e-10

    def test_given_init_reaches_nearby_optimum(self):
        e2 = np.array([0.0, 1.0])
        config = PamConfig(gammas=(1.0, 1.0), alpha=SQRT5,
                           init=Given((e2, e2)))
        res = pam_solve(A1, config)
        assert res.converged
        assert res.iterations <= 2
        assert res.value == pytest.approx(-2.0 - SQRT5, abs=1e-9)

    def test_given_init_validation(self):
        e2 = np.array([0.0, 1.0])
        with pytest.raises(ConfigError):
            pam_solve(A1, PamConfig(gammas=(1.0, 1.0), init=Given((e2,))))
        with pytest.raises(ConfigError):
            pam_solve(A1, PamConfig(gammas=(1.0, 1.0),
                                    init=Given((e2, np.zeros(2)))))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_raises_config_error(self, bad):
        # a Given block or a start vector, for pam_solve, a request and the
        # fractional loop; such a start used to fail its first sweep with
        # NumericalError
        e2, x = np.array([0.0, 1.0]), np.array([bad, 1.0])
        with pytest.raises(ConfigError, match="finite norm"):
            pam_solve(A1, PamConfig(gammas=(1.0, 1.0), init=Given((e2, x))))
        with pytest.raises(ConfigError, match="finite norm"):
            pam.run_alone(pam._await(PamRequest(
                A1, PamConfig(gammas=(1.0, 1.0)), start=x)))
        with pytest.raises(ConfigError, match="finite norm"):
            dinkelbach_solve(build_problem(A1, "Z").fractional,
                             DinkelbachConfig(inner=PamConfig(
                                 gammas=(1.0, 1.0), init=Given((x, x)))))

    def test_a_range_without_usable_draws_raises(self):
        # every draw from [0, 1e-300] is below DEGENERATE_TOL: the redraw
        # loop is bounded, so the solve raises instead of spinning; in a
        # process of its own, under a timeout
        src = Path(pam.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "from specteig import ConfigError, PamConfig, Uniform, "
             "identity_tensor, pam_solve\n"
             "try:\n"
             "    pam_solve(identity_tensor(2, 2), PamConfig(gammas=(1.0, "
             "1.0), init=Uniform(0.0, 1e-300)))\n"
             "except ConfigError as exc:\n"
             "    print(exc)\n"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        assert "100 draws" in proc.stdout

    @pytest.mark.filterwarnings("error")
    def test_overflowing_norms_raise_config_error_without_a_warning(self):
        # every draw from [-1e300, 1e300] and every block holding 1e300
        # have b . b = inf: the norm used to leak NumPy's overflow warning,
        # which warnings-as-errors raised in place of ConfigError
        with pytest.raises(ConfigError, match="100 draws"):
            pam_solve(identity_tensor(2, 2), PamConfig(
                gammas=(1.0, 1.0), init=Uniform(-1e300, 1e300)))
        e2, huge = np.array([0.0, 1.0]), np.array([1e300, 1.0])
        with pytest.raises(ConfigError, match="finite norm"):
            pam_solve(A1, PamConfig(gammas=(1.0, 1.0),
                                    init=Given((e2, huge))))
        # the fractional loop's first point, given or drawn, by the same
        # rule: a draw is redrawn
        for init, match in ((Given((huge, huge)), "finite norm"),
                            (Uniform(-1e300, 1e300), "100 draws")):
            with pytest.raises(ConfigError, match=match):
                dinkelbach_solve(build_problem(A1, "Z").fractional,
                                 DinkelbachConfig(inner=PamConfig(
                                     gammas=(1.0, 1.0), init=init)))

    def test_order_mismatch(self):
        with pytest.raises(ArityError):
            pam_solve(A1, PamConfig(gammas=(1.0,) * 4))

    def test_an_odd_order_request_leaves_the_pool_usable(self):
        # the identity shift needs even order: the first request fails
        # before the pool builds its sweep, and the program's next request
        # is seated as in a pool of its own (the pool used to be left
        # sized but without a sweep, and raised AttributeError)
        odd = SymTensor.from_entries(3, 2, {(1, 1, 1): 1.0})
        config = PamConfig(gammas=(1.0, 1.0), seed=3)

        def program():
            with pytest.raises(ArityError, match="even order"):
                yield PamRequest(odd, PamConfig(gammas=(1.0,) * 3))
            return (yield PamRequest(A1, config))

        (res,), _ = run_lockstep([program()], PamStats())
        alone = pam_solve(A1, config)
        assert (res.value, res.history) == (alone.value, alone.history)

    def test_the_pool_seats_one_shape(self):
        # a request whose B differs from A in shape, and one of another
        # shape than the pool's, are each thrown into their program, and
        # the program's next request is seated as in a pool of its own
        config = PamConfig(gammas=(1.0, 1.0), seed=3)

        def program():
            with pytest.raises(DimError, match=r"shape mismatch: \(2,2\) "
                                               r"vs \(2,3\)"):
                yield PamRequest(A1, config, b=identity_tensor(2, 3))
            first = yield PamRequest(A1, config)
            with pytest.raises(DimError, match=r"a pool of order-2 "
                                               r"operators on R\^2 cannot "
                                               r"seat order 2 on R\^3"):
                yield PamRequest(identity_tensor(2, 3), config)
            return first, (yield PamRequest(A1, config))

        ((first, second),), _ = run_lockstep([program()], PamStats())
        alone = pam_solve(A1, config)
        for res in (first, second):
            assert (res.value, res.history) == (alone.value, alone.history)

    @pytest.mark.parametrize("operand", [np.eye(2), None, [[1.0, 0.0]],
                                         A1.dense])
    def test_non_tensor_operand_raises_config_error(self, operand):
        with pytest.raises(ConfigError):
            pam_solve(operand, PamConfig(gammas=(1.0, 1.0)))

    def test_low_alpha_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="specteig.pam"):
            pam_solve(A1, PamConfig(gammas=(1.0, 1.0), alpha=0.1, seed=1))
        assert any("Frobenius" in r.message for r in caplog.records)

    def test_default_alpha_silent(self, caplog):
        with caplog.at_level(logging.WARNING, logger="specteig.pam"):
            pam_solve(A1, PamConfig(gammas=(1.0, 1.0), seed=1))
        assert not [r for r in caplog.records
                    if "Frobenius" in r.message]


class TestSweepEquivalence:
    """pam_solve's shared-suffix sweep against the plain loop kept in
    conftest, one full partial per block update."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_matches_reference_loop(self, m, n):
        rng = np.random.default_rng(100 * m + n)
        a = random_symtensor(m, n, rng)
        fro = a.frobenius_norm()
        for k, alpha in enumerate((None, 0.0, 0.5 * fro, 3.0 * fro)):
            gammas = tuple(float(g) for g in rng.choice([0.0, 1.0, 3.0], m))
            config = PamConfig(gammas=gammas, alpha=alpha, eps=1e-8,
                               max_iter=300, seed=10 * m + n + k)
            got = pam_solve(a, config)
            want = reference_pam_solve(a, config)
            assert len(got.blocks) == len(want.blocks) == m
            for b_got, b_want in zip(got.blocks, want.blocks):
                assert np.array_equal(b_got, b_want)
            assert np.array_equal(got.v, want.v)
            assert (got.iterations, got.converged) == \
                (want.iterations, want.converged)
            assert got.value == pytest.approx(want.value, rel=1e-12)
            assert len(got.history) == len(want.history)
            for row_got, row_want in zip(got.history, want.history):
                assert row_got[0] == row_want[0]
                assert row_got[1:] == pytest.approx(row_want[1:], rel=1e-12)
            # the residual cancels terms of size |h_t| per block, so its
            # rounding is relative to that size, not to the residual
            h_t = want.history[-1][1]
            scale = max(want.kkt_residual, abs(h_t) * math.sqrt(m))
            assert abs(kkt_residual(a, config, got) - want.kkt_residual) \
                <= 1e-12 * scale


class TestPoolMembers:
    """Subproblems that share a lockstep pool against the plain loop, one
    at a time, where the pool must leave its shared fast paths."""

    @staticmethod
    def _run_together(requests):
        def program(request):
            return (yield request)

        outcomes, sweeps = run_lockstep([program(r) for r in requests],
                                        PamStats())
        for got, swept, request in zip(outcomes, sweeps, requests):
            # the plain loop's blocks bit for bit, and the whole result of
            # the same subproblem in a pool of its own
            plain = reference_pam_solve(request.a, request.config)
            alone = pam_solve(request.a, request.config)
            for b_got, b_plain, b_alone in zip(got.blocks, plain.blocks,
                                               alone.blocks):
                assert np.array_equal(b_got, b_plain)
                assert np.array_equal(b_got, b_alone)
            assert np.array_equal(got.v, plain.v)
            assert (got.iterations, got.converged) == \
                (plain.iterations, plain.converged)
            assert (got.value, got.history) == (alone.value, alone.history)
            assert kkt_residual(request.a, request.config, got) == \
                kkt_residual(request.a, request.config, alone)
            assert swept == got.iterations

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_weights_rows_and_block_values(self, m):
        # every seated surrogate writes its weights row over the shape's
        # whole class table, zeros included, and one stacked gather gives
        # the values of every block, on a full and on a sparse class set;
        # the identity shift needs even order to be seated
        def program(a, seed):
            config = PamConfig(gammas=(1.0,) * m, alpha=1.0, seed=seed)
            return (yield PamRequest(a, config))

        rng = np.random.default_rng(900 + m)
        for n in range(1, 5):
            full = random_symtensor(m, n, rng)
            sparse = SymTensor(m, n, {k: v for k, v in full.canonical.items()
                                      if rng.uniform() < 0.5})
            tensors = (full, sparse)
            pool = pam._Pool([program(a, seed) for seed, a in
                              enumerate(tensors)], PamStats())
            for slot in range(len(tensors)):
                pool._advance(slot, slot, None, None)
            vals = pool.whole.block_values()
            for slot, a in enumerate(tensors):
                rows, weights = whole_table(surrogate(a, 1.0))
                assert np.array_equal(pool.whole.weights[slot], weights)
                blocks = pool.whole.blocks[slot]
                products = np.prod(blocks[:, rows], axis=2)
                # prods keeps each block's class products, (C, d)
                assert np.array_equal(pool.whole.prods[slot], products.T)
                assert np.array_equal(vals[slot], products @ weights)

    @pytest.mark.parametrize("m,n", [(2, 3), (4, 3), (6, 2)])
    def test_members_sharing_index_classes(self, m, n):
        # one gather over the shape's classes serves every member, zero
        # weights included, on a full class set and on a sparse one that
        # keeps the diagonal and about half of the other classes
        rng = np.random.default_rng(70 + 10 * m + n)
        full = random_symtensor(m, n, rng)
        sparse = SymTensor(m, n, {idx: v for idx, v in full.canonical.items()
                                  if len(set(idx)) == 1 or rng.random() < 0.5})
        for a in (full, sparse):
            self._run_together([
                PamRequest(a, PamConfig(gammas=(1.0,) * m, eps=1e-10,
                                        seed=seed, max_iter=200))
                for seed in range(5)])

    @pytest.mark.parametrize("m,n", [(2, 3), (4, 3), (6, 2)])
    def test_only_sparse_members_of_one_pattern(self, m, n):
        # the diagonal tensor minus alpha E has a zero at every class with
        # an index of odd count, in every member
        a = diagonal_tensor(m, n)
        assert (surrogate(a, 1.0).dense == 0.0).any()
        self._run_together([
            PamRequest(a.scaled(scale), PamConfig(
                gammas=(1.0,) * m, eps=1e-10, seed=seed, max_iter=200))
            for seed, scale in enumerate((1.0, -2.0, 0.5, -1.0))])

    def test_members_with_different_index_classes(self):
        # A1 - alpha E has no off-diagonal class; a dense 2x2 form does, so
        # the shared gather meets a zero weight in some rows only
        dense = SymTensor.from_entries(2, 2, [((1, 1), 1.0), ((1, 2), 0.5),
                                              ((2, 2), -2.0)])
        self._run_together([
            PamRequest(a, PamConfig(gammas=(1.0, 1.0), alpha=SQRT5, eps=1e-10,
                                    seed=seed))
            for seed, a in enumerate((A1, dense, A1, dense))])

    def test_degenerate_direction_beside_a_regular_member(self):
        # from (e1, e1) with alpha = 0 and gamma = 1 the partial of A1 equals
        # gamma * prev, so that member's direction vanishes; the sweep is
        # redone by the exact rules without disturbing the other member
        e1 = np.array([1.0, 0.0])
        self._run_together([
            PamRequest(A1, PamConfig(gammas=(1.0, 1.0), alpha=0.0,
                                     init=Given((e1, e1)))),
            PamRequest(A1, PamConfig(gammas=(1.0, 1.0), alpha=0.0, eps=1e-10,
                                     seed=4))])


class TestSeatedFromParameters:
    """A request seated from (A, B, theta) and a start vector against the
    path through tensors and configs: pam_solve of axpy(A, B, theta) from d
    given copies of the start. A sparse A and a full one share each pool;
    the sparse one's surrogate often has zero index classes, which the
    pool's one gather weights with zeros."""

    @staticmethod
    def _denominator(kind, m, n, rng):
        if kind == "Z":
            return ZIdentity(m, n)
        if kind == "H":
            return HDiagonal(m, n)
        # |x|^m plus a perturbation of at most 0.1 on the unit sphere
        r = random_symtensor(m, n, rng)
        return axpy(identity_tensor(m, n), r, -0.1 / r.frobenius_norm())

    @staticmethod
    def _with_rows(call):
        """call()'s value, and the stack row each subproblem it finished
        was seated in, by program, as the pool held it."""
        rows = {}
        result = pam._Pool._result

        def result_and_row(pool, slot, *args):
            rows[pool.members[slot].program] = \
                pool.whole.stack[slot].tobytes()
            return result(pool, slot, *args)

        with mock.patch.object(pam._Pool, "_result", result_and_row):
            return call(), rows

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["Z", "H", "D"]),
           m=st.sampled_from([2, 4, 6]), n=st.integers(1, 4),
           shift=st.sampled_from([None, 0.0, 0.5, 3.0]),
           seed=st.integers(0, 2 ** 20))
    def test_matches_axpy_and_given_blocks(self, kind, m, n, shift, seed):
        rng = np.random.default_rng(seed)
        full = random_symtensor(m, n, rng)
        # the diagonal and about half of the other classes
        sparse = SymTensor(m, n, {
            idx: v for idx, v in full.canonical.items()
            if len(set(idx)) == 1 or rng.random() < 0.5})
        b = self._denominator(kind, m, n, rng)
        thetas = rng.uniform(-2.0, 2.0, size=2)
        starts = rng.standard_normal((2, n))
        requests = []
        for a, theta, x in zip((sparse, full), thetas, starts):
            alpha = None if shift is None \
                else shift * axpy(a, b, theta).frobenius_norm()
            config = PamConfig(gammas=tuple(rng.choice([0.0, 1.0, 3.0], m)),
                               alpha=alpha, eps=1e-8, max_iter=200)
            requests.append(PamRequest(a, config, None, b, theta, x))

        def program(request):
            return (yield request)

        (outcomes, sweeps), rows = self._with_rows(lambda: run_lockstep(
            [program(r) for r in requests], PamStats()))
        for p, (got, swept, r) in enumerate(zip(outcomes, sweeps, requests)):
            a_theta = axpy(r.a, r.b, r.theta)
            want, alone = self._with_rows(lambda: pam_solve(
                a_theta, dataclasses.replace(r.config, init=Given(
                    tuple(r.start.copy() for _ in range(m))))))
            assert np.array_equal(got.v, want.v)
            assert got.value == want.value
            assert len(got.blocks) == len(want.blocks) == m
            for b_got, b_want in zip(got.blocks, want.blocks):
                assert np.array_equal(b_got, b_want)
            assert (got.iterations, got.converged, got.history) == \
                (want.iterations, want.converged, want.history)
            assert swept == got.iterations
            alpha = r.config.alpha if r.config.alpha is not None \
                else a_theta.frobenius_norm()
            surrogate = axpy(a_theta, ZIdentity(m, n), alpha)
            assert rows[p] == alone[0] == surrogate.dense.tobytes()
            assert kkt_residual(a_theta, r.config, got) == \
                kkt_residual(a_theta, r.config, want)


class TestSubproblemCosts:
    """A subproblem of a multistart run costs its sweeps: its program
    hands the pool (A, B, theta) and a start vector, and the pool seats it
    in buffers allocated once, without building a tensor, a config or
    Given blocks for it."""

    def test_study_51_builds_nothing_per_subproblem(self, monkeypatch,
                                                     example2):
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        replace = dataclasses.replace

        def counted_replace(obj, **changes):
            if isinstance(obj, (PamConfig, DinkelbachConfig)):
                counts["config replace"] += 1
            return replace(obj, **changes)

        for module in (dataclasses, pam, specteig.dinkelbach, specteig.eigen):
            if hasattr(module, "replace"):
                monkeypatch.setattr(module, "replace", counted_replace)
        monkeypatch.setattr(SymTensor, "_from_dense", classmethod(
            counted("SymTensor._from_dense", SymTensor._from_dense.__func__)))
        monkeypatch.setattr(PamConfig, "__post_init__", counted(
            "PamConfig built", PamConfig.__post_init__))
        monkeypatch.setattr(Given, "__init__", counted(
            "Given built", Given.__init__))
        monkeypatch.setattr(pam._Pool, "_seat", counted(
            "subproblems", pam._Pool._seat))
        monkeypatch.setattr(pam._BlockSweep, "__init__", counted(
            "sweeps built", pam._BlockSweep.__init__))
        # a sweep binds its steps once when built and once per head
        monkeypatch.setattr(pam._BlockSweep, "_bind", counted(
            "binds", pam._BlockSweep._bind))
        monkeypatch.setattr(pam._BlockSweep, "block_values", counted(
            "block values", pam._BlockSweep.block_values))
        monkeypatch.setattr(pam._Pool, "_tick", counted(
            "ticks", pam._Pool._tick))
        # no idle frame yet, as in a fresh process
        monkeypatch.setattr(tensor_core, "_STORE", {})
        # study 5.1's settings, built before counting starts
        config = DinkelbachConfig(inner=PamConfig(
            gammas=(1.0,) * 4, eps=1e-6, init=Uniform(-1.0, 1.0)), tol=1e-3)
        problem = build_problem(example2, "Z")
        counts.clear()
        report = solve_multistart(problem, 20, 1729, config)
        assert report.accepted == 20
        assert counts["subproblems"] >= 40
        # one pool, so one sweep with its buffers, and one gather of block
        # values per tick
        assert counts["sweeps built"] == 1
        assert counts["block values"] == counts["ticks"] >= 1
        for name in ("SymTensor._from_dense", "config replace",
                     "PamConfig built", "Given built"):
            assert counts[name] == 0, name
        # the next call of the shape takes that frame and its heads
        heads = counts["binds"] - 1
        assert heads >= 1
        again = solve_multistart(problem, 20, 1729, config)
        assert report_to_json(again) == report_to_json(report)
        assert counts["sweeps built"] == 1
        assert counts["binds"] == heads + 1


def _eigen_order4_reports(data_dir) -> list:
    """float.hex of every report field of the 50 calls of the benchmark's
    eigen-order4 fingerprint rounds: four trials of studies 5.1 and 5.3
    per round, trials 1729 ^ t for t = 0..99."""
    a, b = (load_tensor(Path(data_dir) / f"example4_{k}.tns")
            for k in "AB")
    studies = [(build_problem(load_tensor(Path(data_dir) / "example2.tns"),
                              "Z"), None),
               (build_problem(a, "D", b=b), 10.0)]
    out = []
    for r in range(25):
        for problem, alpha in studies:
            inner = PamConfig(gammas=(1.0,) * 4, alpha=alpha, eps=1e-6,
                              init=Uniform(-1.0, 1.0))
            report = solve_multistart(
                problem, 4, 1729 ^ (4 * r),
                DinkelbachConfig(inner=inner, tol=1e-3), cluster_tol=1e-4)
            out.append([report.accepted] + [
                [p.lambda_.hex(), [float(c).hex() for c in p.x],
                 p.residual.hex(), p.trials_hit, p.mean_inner_iters.hex(),
                 p.std_inner_iters.hex(), p.mean_outer_iters.hex()]
                for p in report.pairs])
    return out


class TestErrorState:
    """A pool turns off NumPy's divide and invalid warnings once for its
    run, for the sweeps; its programs run in their caller's error state."""

    @staticmethod
    def _program(states):
        config = PamConfig(gammas=(1.0, 1.0), seed=1, max_iter=5)
        states.append(np.geterr())
        yield PamRequest(A1, config)
        # the pool is between ticks: the first subproblem has stopped
        states.append(np.geterr())
        np.divide(1.0, np.zeros(1))
        yield PamRequest(A1, config)
        states.append(np.geterr())

    def test_a_warning_raised_in_a_program_surfaces(self):
        states = []
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            run_lockstep([self._program(states)], PamStats())
        assert states == [np.geterr()] * 3

    def test_programs_run_in_the_callers_state(self):
        states = []
        with np.errstate(divide="raise", over="ignore"):
            want = np.geterr()
            with pytest.raises(FloatingPointError):
                run_lockstep([self._program(states)], PamStats())
        assert states == [want] * 2

    def test_one_errstate_per_run(self, monkeypatch):
        # entered once for the run and once per subproblem handed on or
        # started, not once per tick
        entered = Counter()
        errstate = np.errstate

        def counted_errstate(**kwargs):
            entered[tuple(sorted(kwargs))] += 1
            return errstate(**kwargs)

        monkeypatch.setattr(pam.np, "errstate", counted_errstate)
        (res,), sweeps = run_lockstep(
            [pam._await(PamRequest(A1, PamConfig(gammas=(1.0, 1.0),
                                                 eps=1e-12, seed=2)))],
            PamStats())
        assert sweeps[0] == res.iterations > 3
        assert entered[("divide", "invalid")] == 1
        # the start's norms, which may overflow
        assert entered[("invalid", "over")] == 1
        # and the caller's state for the first request, then the result
        # handed back
        assert sum(entered.values()) == 4


def idle(key):
    """The frame the shape store keeps idle under key."""
    return tensor_core._STORE[key][0]


class TestIdleFrames:
    """A pool that returns leaves its frame idle in the shape store for the
    next pool of its shape and capacity, which rewrites every row it seats:
    answers do not depend on what ran before, and pools that run at once
    never share a frame."""

    @staticmethod
    def _record_frames(monkeypatch) -> list:
        frames = []
        run = pam._Pool.run

        def recording_run(pool):
            out = run(pool)
            frames.append(pool.whole)
            return out

        monkeypatch.setattr(pam._Pool, "run", recording_run)
        return frames

    def test_fingerprint_calls_match_a_fresh_process(self, data_dir,
                                                     example2, example3):
        tests = Path(__file__).resolve().parent
        src = Path(pam.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import json, sys; sys.path.insert(0, sys.argv[1]); "
             "import test_pam; print(json.dumps("
             "test_pam._eigen_order4_reports(sys.argv[2])))",
             str(tests), str(data_dir)],
            env=env, capture_output=True, text=True, timeout=300,
            check=True)
        fresh = json.loads(proc.stdout)
        # idle frames of other shapes
        pam_solve(A1, PamConfig(gammas=(1.0, 1.0), seed=1))
        inner6 = PamConfig(gammas=(3.0,) * 6, alpha=3.0, max_iter=20,
                           init=Uniform(0.0, 1.0))
        solve_multistart(build_problem(example3, "H"), 4, 5,
                         DinkelbachConfig(inner=inner6, tol=1e-3))

        # a pool of the calls' own shape with other gammas, shifts,
        # surrogates and starts in every row, and one program that runs a
        # pam_solve and a multistart call of that shape inside it
        def program(seed):
            config = PamConfig(gammas=(3.0, 0.5, 2.0, 0.0), alpha=0.3,
                               seed=seed, max_iter=3 + 4 * seed)
            res = yield PamRequest(example2.scaled(seed - 1.5), config)
            if seed == 0:
                pam_solve(example2, config)
                solve_multistart(build_problem(example2, "Z"), 4, 9,
                                 DinkelbachConfig(inner=config, tol=0.5))
                res = yield PamRequest(example2, config)
            return res

        run_lockstep([program(s) for s in range(4)], PamStats())
        frame = idle(("pool", 4, 3, 4))
        assert set(frame.gamma_rows.ravel()) == {3.0, 0.5, 2.0, 0.0}
        assert _eigen_order4_reports(data_dir) == fresh

    def test_a_nested_pool_of_one_shape_gets_its_own_frame(self,
                                                           monkeypatch):
        frames = self._record_frames(monkeypatch)
        config = PamConfig(gammas=(1.0, 1.0), eps=1e-10, seed=4)
        alone = pam_solve(A1, config)
        kept = frames[-1]
        assert idle(("pool", 2, 2, 1)) is kept

        def program():
            first = yield PamRequest(A1, config)
            inner = pam_solve(A1, config)
            second = yield PamRequest(A1, config)
            return first, inner, second

        (results,), _ = run_lockstep([program()], PamStats())
        inner_frame, outer_frame = frames[-2:]
        assert outer_frame is kept
        assert inner_frame is not kept
        assert not np.shares_memory(inner_frame.stack, kept.stack)
        assert not np.shares_memory(inner_frame.blocks, kept.blocks)
        for res in results:
            assert (res.value, res.history) == (alone.value, alone.history)
            assert np.array_equal(res.v, alone.v)
        # the pool that returned last left its frame
        assert idle(("pool", 2, 2, 1)) is outer_frame

    def test_threads_of_one_shape_keep_their_answers(self, example2):
        # more threads than cores, switching often: a frame two pools
        # shared would mix their rows
        configs = [PamConfig(gammas=(1.0,) * 4, eps=1e-10, seed=s)
                   for s in range(4)]
        want = [pam_solve(example2, c) for c in configs]
        got = [[None] * 10 for _ in configs]

        def solve(i):
            for k in range(10):
                got[i][k] = pam_solve(example2, configs[i])

        threads = [threading.Thread(target=solve, args=(i,))
                   for i in range(len(configs))]
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
            for res in runs:
                assert (res.value, res.history) == (w.value, w.history)
                assert np.array_equal(res.v, w.v)

    def test_frames_above_the_bound_are_not_kept(self, monkeypatch):
        frames = self._record_frames(monkeypatch)
        a = random_symtensor(4, 20, np.random.default_rng(8))
        pam_solve(a, PamConfig(gammas=(1.0,) * 4, max_iter=2))
        assert frames[-1].nbytes > tensor_core._STORE_ENTRY
        assert ("pool", 4, 20, 1) not in tensor_core._STORE
        assert all(f is not frames[-1]
                   for f, _ in tensor_core._STORE.values())
        pam_solve(A1, PamConfig(gammas=(1.0, 1.0), max_iter=2))
        assert frames[-1].nbytes <= tensor_core._STORE_ENTRY
        assert idle(("pool", 2, 2, 1)) is frames[-1]

    def test_at_most_so_many_frames_stay_idle(self, monkeypatch):
        # frames of 0.25 to 9 KiB, beside their shapes' class tables and
        # identity tensors, against a 40 KiB budget: the oldest go first
        store = {}
        monkeypatch.setattr(tensor_core, "_STORE", store)
        monkeypatch.setattr(tensor_core, "_STORE_BUDGET", 40 << 10)
        keys = []
        for n in range(1, 13):
            # the surrogate's shape is read before the pool runs
            a = identity_tensor(2, n)
            pam_solve(a, PamConfig(gammas=(1.0, 1.0), max_iter=2))
            keys.append(("pool", 2, n, 1))
            kept = [k for k in store if k[0] == "pool"]
            assert kept == keys[len(keys) - len(kept):]
            assert store[keys[-1]][1] == idle(keys[-1]).nbytes
            assert sum(nbytes for _, nbytes in store.values()) \
                <= tensor_core._STORE_BUDGET
        assert 1 < len(kept) < len(keys)

    def test_nbytes_counts_the_arrays_and_the_heads(self):
        # every array a sweep allocated, each once, plus _HEAD_BYTES per
        # block of each cached head; a one-row sweep has no heads. The
        # boundary sweep of the battery's largest lift shape, cubics on
        # R^30, stays idle
        for shape, lead, fresh, headed in [
                ((4, 3, 4), 0, 19_616, 31_904),
                ((6, 4, 4), 0, 376_224, 394_656),
                ((3, 31, 1), 1, 1_217_960, 1_217_960),
                ((2, 3, 3), 0, 2_424, 8_568)]:
            sweep = pam._BlockSweep(*shape, lead=lead)
            assert sweep.nbytes == fresh
            head = sweep.head_of(1)
            assert sweep.head_of(1) is head
            assert sweep.head_of(shape[2]) is sweep
            assert sweep.nbytes == headed <= tensor_core._STORE_ENTRY
            if shape[2] > 1:
                assert np.shares_memory(head.w, sweep.w)
                assert not hasattr(head, "heads")


class TestResidualOnDemand:
    """kkt_residual computes the stationarity residual of a result from the
    problem and the result: the same float the result's lazy property read
    from the surrogate it kept, bit for bit."""

    @staticmethod
    def _check(res, a_theta, config, alpha):
        # the old path: the surrogate as axpy forms it, and each slot's
        # partial through multilinear_partial
        want = surrogate(a_theta, alpha)
        h_t, total = res.history[-1][1], 0.0
        for j, x in enumerate(res.blocks):
            others = list(res.blocks[:j] + res.blocks[j + 1:])
            r = want.multilinear_partial(others, j) - h_t * x
            total += float(np.dot(r, r))
        assert kkt_residual(a_theta, config, res) == math.sqrt(total)
        # the residual is read from blocks no caller can change first
        assert not any(b.flags.writeable for b in res.blocks)

    @pytest.mark.parametrize("m,n", [(2, 3), (4, 3), (6, 2)])
    def test_pam_solve(self, m, n):
        a = random_symtensor(m, n, np.random.default_rng(m + n))
        for alpha in (None, 0.0, 2.0 * a.frobenius_norm()):
            config = PamConfig(gammas=(1.0,) * m, alpha=alpha, eps=1e-10,
                               seed=3)
            res = pam_solve(a, config)
            self._check(res, a, config, a.frobenius_norm() if alpha is None
                        else alpha)

    def test_pool_members_shared_and_not(self):
        # the random tensors share their index classes; A1 and the dense
        # 2x2 form do not
        def program(request):
            return (yield request)

        rng = np.random.default_rng(11)
        dense = SymTensor.from_entries(2, 2, [((1, 1), 1.0), ((1, 2), 0.5),
                                              ((2, 2), -2.0)])
        groups = [[random_symtensor(4, 3, rng) for _ in range(3)],
                  [A1, dense, A1]]
        for tensors in groups:
            requests = [PamRequest(a, PamConfig(gammas=(1.0,) * a.order,
                                                eps=1e-10, seed=seed))
                        for seed, a in enumerate(tensors)]
            outcomes, _ = run_lockstep(
                [program(r) for r in requests], PamStats())
            for res, request in zip(outcomes, requests):
                self._check(res, request.a, request.config,
                            request.a.frobenius_norm())

    def test_the_value_the_result_used_to_keep(self):
        # what res.kkt_residual read for this solve before the result lost
        # its surrogate
        config = PamConfig(gammas=(1.0, 1.0), alpha=SQRT5, eps=1e-12,
                           seed=5)
        assert kkt_residual(A1, config, pam_solve(A1, config)) == \
            8.262223341339407e-07

    def test_a_result_holds_what_the_solve_found(self):
        # no surrogate, dense array or cached residual rides along
        assert [f.name for f in dataclasses.fields(PamResult)] == \
            ["v", "value", "blocks", "iterations", "converged", "history"]


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ConfigError):
            PamConfig(gammas=())
        with pytest.raises(ConfigError):
            PamConfig(gammas=(1.0, -0.5))
        with pytest.raises(ConfigError):
            PamConfig(gammas=(1.0,), alpha=-1.0)
        with pytest.raises(ConfigError):
            PamConfig(gammas=(1.0,), eps=0.0)
        with pytest.raises(ConfigError):
            PamConfig(gammas=(1.0,), max_iter=0)

    @pytest.mark.parametrize("seed", [-1, 2.5, math.nan, "1", None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # NumPy's seeding used to raise a bare ValueError or TypeError at
        # the first solve
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            PamConfig(gammas=(1.0,), seed=seed)

    def test_seed_zero_and_numpy_integers_are_seeds(self):
        for seed in (0, np.int64(7), 2 ** 70):
            assert PamConfig(gammas=(1.0,), seed=seed).seed == seed

    @pytest.mark.parametrize("lo,hi", [
        (0.0, 0.0), (1.0, -1.0), (math.nan, 1.0), (0.0, math.nan),
        (-math.inf, 1.0), (0.0, math.inf), (-1.7e308, 1.7e308)])
    def test_uniform_needs_finite_ordered_bounds(self, lo, hi):
        # hi - lo = inf used to pass, and the first draw raised NumPy's
        # OverflowError
        with pytest.raises(ConfigError, match="finite lo < hi"):
            Uniform(lo, hi)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["gammas", "alpha", "eps"])
    def test_rejects_non_finite_fields(self, field, value):
        kwargs = {"gammas": (1.0,) * 4}
        kwargs[field] = (value,) * 4 if field == "gammas" else value
        with pytest.raises(ConfigError):
            PamConfig(**kwargs)
        if field == "gammas":
            with pytest.raises(ConfigError):
                PamConfig(gammas=(1.0, value, 1.0, 1.0))


class TestHistoryCsv:
    def test_round_trip(self, tmp_path):
        config = PamConfig(gammas=(1.0, 1.0), alpha=SQRT5, seed=2)
        res = pam_solve(A1, config)
        path = tmp_path / "history.csv"
        write_history_csv(res.history, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "h_t", "h_v", "step_norm"]
        assert len(rows) == len(res.history) + 1
        for row, rec in zip(rows[1:], res.history):
            assert int(row[0]) == rec[0]
            assert float(row[1]) == rec[1]
            assert float(row[3]) == rec[3]


class TestKlExponent:
    def test_pinned_value(self):
        tau, rate = kl_exponent(2, 2)
        assert tau == 1.0 / 54.0
        assert rate == pytest.approx((1.0 / 54.0) / (1.0 - 2.0 / 54.0),
                                     rel=1e-15)

    def test_formula_grid(self):
        for d in range(2, 9):
            for n in range(2, 9):
                # bit for bit the float quotient
                tau, rate = kl_exponent(d, n)
                assert tau == 1.0 / (d * (3 * d - 3) ** (d * n - 1))
                assert rate == tau / (1.0 - 2.0 * tau)
                assert 0.0 < tau < 0.5
                assert rate > 0.0

    def test_domain_errors(self):
        for bad in [(1, 2), (2, 1), (0, 0)]:
            with pytest.raises(DomainError):
                kl_exponent(*bad)
        with pytest.raises(DomainError):
            kl_exponent(2.0, 2)

    def test_past_the_float_range(self):
        # the denominator overflows a float; tau underflows to 0.0
        for d, n in ((20, 20), (100, 100)):
            assert kl_exponent(d, n) == (0.0, 0.0)

    def test_numpy_integers_count_as_python_ints(self):
        # (3d - 3)**(dn - 1) overflows an np.int64 at (6, 4)
        assert kl_exponent(np.int64(6), np.int64(4)) == kl_exponent(6, 4)
        assert kl_exponent(6, 4)[0] > 0.0
