"""Fractional loop tests against closed-form matrix ratios and the bundled
fourth-order example.
"""

import csv
import itertools
import math

import numpy as np
import pytest

from specteig import (ArityError, BoundaryConfig, ConfigError,
                      DenominatorError, DimError, DinkelbachConfig,
                      DomainError, FractionalProblem, NumericalError,
                      Given, HDiagonal, PamConfig, SymTensor, Uniform,
                      ZIdentity,
                      dinkelbach_solve, identity_tensor)
from specteig import dinkelbach
from specteig.dinkelbach import f_theta, write_trace_csv


def matrix_tensor(diag):
    n = len(diag)
    return SymTensor.from_entries(
        2, n, [((i + 1, i + 1), float(v)) for i, v in enumerate(diag)])


class TestProblemValidation:
    def test_order_mismatch(self):
        with pytest.raises(ArityError):
            FractionalProblem(identity_tensor(4, 3), ZIdentity(2, 3))

    def test_dim_mismatch(self):
        with pytest.raises(DimError):
            FractionalProblem(identity_tensor(2, 3), ZIdentity(2, 2))

    def test_odd_degree_rejected(self):
        t = SymTensor.from_entries(3, 2, [((1, 1, 1), 1.0)])
        with pytest.raises(ArityError):
            FractionalProblem(t, ZIdentity(2, 2))

    def test_indefinite_denominator_rejected(self):
        with pytest.raises(DenominatorError):
            FractionalProblem(identity_tensor(2, 2),
                              matrix_tensor([1.0, -2.0]))

    @pytest.mark.parametrize("position", [0, 1])
    def test_non_tensor_operand_rejected(self, position):
        operands = [identity_tensor(2, 2), identity_tensor(2, 2)]
        operands[position] = np.eye(2)
        with pytest.raises(ConfigError, match="ndarray"):
            FractionalProblem(*operands)


class TestDenominatorVetting:
    @pytest.mark.parametrize("op_cls", [ZIdentity, HDiagonal])
    def test_structured_denominators_are_not_sampled(self, op_cls,
                                                     monkeypatch):
        def refuse(*args):
            raise AssertionError("structured denominator was evaluated")

        for name in ("apply_full", "apply_full_many", "apply_gradient",
                     "to_symtensor"):
            monkeypatch.setattr(op_cls, name, refuse)
        for order, dim in ((2, 3), (4, 3), (6, 4)):
            FractionalProblem(identity_tensor(order, dim),
                              op_cls(order, dim))

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_samples_are_cached_read_only_unit_rows(self, n):
        us = dinkelbach._positivity_samples(n)
        assert us is dinkelbach._positivity_samples(n)
        assert us.shape == (100, n) and not us.flags.writeable
        # the draws and normalization each vetting made before the cache
        want = np.random.default_rng(12345).standard_normal((100, n))
        want /= np.sqrt(want[:, None, :] @ want[:, :, None])[:, 0]
        assert us.tobytes() == want.tobytes()

    def test_indefinite_dense_names_first_bad_sample(self):
        b = matrix_tensor([1.0, 1.0, -0.3])
        rng = np.random.default_rng(12345)
        values = []
        for _ in range(100):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            values.append(b.apply_full(u))
        bad = [v for v in values if v <= 0]
        # the first draw is positive and the bad ones differ, so the
        # message pins which one came first
        assert values[0] > 0 and len({f"{v:.6g}" for v in bad}) > 1
        with pytest.raises(DenominatorError) as info:
            FractionalProblem(identity_tensor(2, 3), b)
        assert f"(sampled value {bad[0]:.6g})" in str(info.value)


class TestFTheta:
    def test_normalizes_input(self):
        p = FractionalProblem(matrix_tensor([3.0, 1.0]), ZIdentity(2, 2))
        x = np.array([0.0, 2.0])
        assert f_theta(p, 0.5, x) == pytest.approx(
            f_theta(p, 0.5, x / 2.0), rel=1e-14)

    def test_matrix_value(self):
        p = FractionalProblem(matrix_tensor([3.0, 1.0]), ZIdentity(2, 2))
        e1 = np.array([1.0, 0.0])
        assert f_theta(p, 0.7, e1) == pytest.approx(3.0 - 0.7, rel=1e-14)

    def test_zero_vector_rejected(self):
        p = FractionalProblem(matrix_tensor([3.0, 1.0]), ZIdentity(2, 2))
        with pytest.raises(DenominatorError):
            f_theta(p, 0.0, np.zeros(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vector_raises_domain_error(self, bad):
        p = FractionalProblem(matrix_tensor([3.0, 1.0, 2.0]),
                              ZIdentity(2, 3))
        with pytest.raises(DomainError):
            f_theta(p, 0.5, [bad, 1.0, 0.0])


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        inner = PamConfig(gammas=(1.0, 1.0))
        with pytest.raises(ConfigError):
            DinkelbachConfig(inner=inner, tol=0.0)
        with pytest.raises(ConfigError):
            DinkelbachConfig(inner=inner, k_max=0)

    @pytest.mark.parametrize("value", [math.nan, 2.5, 3.0, "3", 0, -1])
    @pytest.mark.parametrize("make,field", [
        (lambda **kw: PamConfig(gammas=(1.0, 1.0), **kw), "max_iter"),
        (BoundaryConfig, "max_outer"),
        (BoundaryConfig, "inner_max_iter"),
        (lambda **kw: DinkelbachConfig(inner=PamConfig(gammas=(1.0, 1.0)),
                                       **kw), "k_max"),
    ])
    def test_iteration_limits_are_integers(self, make, field, value):
        # a float limit is never met exactly by a sweep count, and a NaN
        # one passes a comparison; both are rejected as the config is built
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            make(**{field: value})
        assert getattr(make(**{field: 3}), field) == 3

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_tol(self, value):
        with pytest.raises(ConfigError):
            DinkelbachConfig(inner=PamConfig(gammas=(1.0, 1.0)), tol=value)

    def test_x0_shape_checked(self):
        # the initial point is the first given block
        p = FractionalProblem(matrix_tensor([3.0, 1.0]), ZIdentity(2, 2))
        init = Given((np.ones(3), np.ones(3)))
        config = DinkelbachConfig(inner=PamConfig(gammas=(1.0, 1.0),
                                                  init=init))
        with pytest.raises(ConfigError):
            dinkelbach_solve(p, config)


class TestSolve:
    def test_constant_ratio_stops_immediately(self):
        # numerator equals denominator, so the ratio is 1 everywhere and
        # the first parametric value already passes the stopping test
        p = FractionalProblem(identity_tensor(2, 2), ZIdentity(2, 2))
        config = DinkelbachConfig(inner=PamConfig(gammas=(1.0, 1.0), seed=4))
        res = dinkelbach_solve(p, config)
        assert res.converged
        assert res.theta == pytest.approx(1.0, rel=1e-12)
        assert res.outer_iters == 1
        assert len(res.trace) == 1
        assert res.trace[0][2] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matrix_ratio_reaches_smallest_eigenvalue(self, seed):
        # spectral oracle: min of x'Ax / |x|^2 is the smallest eigenvalue
        diag = [3.0, 1.0, -2.0]
        p = FractionalProblem(matrix_tensor(diag), ZIdentity(2, 3))
        inner = PamConfig(gammas=(1.0, 1.0), eps=1e-9, seed=seed)
        res = dinkelbach_solve(p, DinkelbachConfig(inner=inner, tol=1e-6))
        assert res.converged
        assert res.theta == pytest.approx(min(diag), abs=1e-5)
        assert abs(res.x[2]) == pytest.approx(1.0, abs=1e-3)

    def test_bundled_example_single_trial(self, example2):
        p = FractionalProblem(example2, ZIdentity(4, 3))
        inner = PamConfig(gammas=(1.0,) * 4, alpha=None, eps=1e-6,
                          seed=1729, init=Uniform(-1.0, 1.0))
        res = dinkelbach_solve(p, DinkelbachConfig(inner=inner, tol=1e-3))
        assert res.converged
        assert res.outer_iters == 1
        known = [-1.0954, -0.5629, -0.0451]
        assert min(abs(res.theta - v) for v in known) <= 5e-4

    def test_trace_shape_and_monotonicity(self):
        diag = [2.0, 0.5, -1.0, -3.0]
        p = FractionalProblem(matrix_tensor(diag), ZIdentity(2, 4))
        inner = PamConfig(gammas=(1.0, 1.0), eps=1e-9, seed=9)
        res = dinkelbach_solve(p, DinkelbachConfig(inner=inner, tol=1e-6))
        ks = [k for k, _, _ in res.trace]
        assert ks == list(range(1, len(res.trace) + 1))
        thetas = [t for _, t, _ in res.trace]
        fs = [f for _, _, f in res.trace]
        assert all(b <= a + 1e-9 for a, b in zip(thetas, thetas[1:]))
        assert all(a <= b + 1e-9 for a, b in zip(fs, fs[1:]))
        assert all(f <= 1e-6 + 1e-9 for f in fs)
        assert res.n_solves >= len(res.trace)
        assert res.inner_iters > 0

    def test_x0_override_seeds_theta(self):
        diag = [3.0, 1.0]
        p = FractionalProblem(matrix_tensor(diag), ZIdentity(2, 2))
        x0 = np.array([0.0, 1.0])
        inner = PamConfig(gammas=(1.0, 1.0), eps=1e-9, init=Given((x0, x0)))
        res = dinkelbach_solve(p, DinkelbachConfig(inner=inner, tol=1e-6))
        # starting at the minimizer, theta starts (and stays) at 1
        assert res.converged
        assert res.theta == pytest.approx(1.0, abs=1e-6)
        assert res.outer_iters == 1


class TestTraceChecks:
    """The three checks on the returned trace, each reached through
    f_theta replaced by a function that scripts the parametric values."""

    def test_theta_increase_raises(self, example2, monkeypatch):
        # the first warm start is certified, every later one is not and
        # its retry is: a retry from a fresh draw may land on a local
        # minimum above theta
        calls = itertools.count(1)
        monkeypatch.setattr(dinkelbach, "f_theta", lambda problem, theta, x:
                            1.0 if next(calls) % 2 == 0 else -1.0)
        config = DinkelbachConfig(inner=PamConfig(gammas=(1.0,) * 4),
                                  k_max=10)
        with pytest.raises(NumericalError, match="theta increased at "
                                                 "iteration 4"):
            dinkelbach_solve(FractionalProblem(example2, ZIdentity(4, 3)),
                             config)

    def test_decrease_that_passes_the_guard_raises(self, monkeypatch):
        # the guard tests f1 < f0 - slack and the check f0 > f1 + slack;
        # the two round differently at this pair
        f0 = float(np.nextafter(np.nextafter(-1.0, 0.0), 0.0))
        f1 = f0 - dinkelbach.MONOTONE_SLACK
        assert not f1 < f0 - dinkelbach.MONOTONE_SLACK
        assert f0 > f1 + dinkelbach.MONOTONE_SLACK
        values = iter([f0, f1])
        monkeypatch.setattr(dinkelbach, "f_theta",
                            lambda problem, theta, x: next(values))
        p = FractionalProblem(matrix_tensor([3.0, 1.0]), ZIdentity(2, 2))
        config = DinkelbachConfig(inner=PamConfig(gammas=(1.0, 1.0)),
                                  k_max=2)
        with pytest.raises(NumericalError, match="parametric value "
                                                 "decreased at iteration 2"):
            dinkelbach_solve(p, config)

    def test_value_above_tolerance_raises(self, monkeypatch):
        # a float the certification test takes as below tol; no plain
        # float is recorded above tol
        class Certified(float):
            def __lt__(self, other):
                return True

        monkeypatch.setattr(dinkelbach, "f_theta",
                            lambda problem, theta, x: Certified(2.0))
        p = FractionalProblem(matrix_tensor([3.0, 1.0]), ZIdentity(2, 2))
        config = DinkelbachConfig(inner=PamConfig(gammas=(1.0, 1.0)),
                                  k_max=1)
        with pytest.raises(NumericalError, match="exceeded the stopping "
                                                 "tolerance from above"):
            dinkelbach_solve(p, config)


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        p = FractionalProblem(matrix_tensor([3.0, 1.0, -2.0]),
                              ZIdentity(2, 3))
        inner = PamConfig(gammas=(1.0, 1.0), eps=1e-9, seed=2)
        res = dinkelbach_solve(p, DinkelbachConfig(inner=inner, tol=1e-6))
        path = tmp_path / "trace.csv"
        write_trace_csv(res.trace, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "theta", "F_theta"]
        assert len(rows) == len(res.trace) + 1
        for row, rec in zip(rows[1:], res.trace):
            assert int(row[0]) == rec[0]
            assert float(row[1]) == rec[1]
            assert float(row[2]) == rec[2]
