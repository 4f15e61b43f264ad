"""One rule per kind of input: the validators of tensor_core, the calls
that reach them from every module, and the one start rule of both
solvers."""

import math

import numpy as np
import pytest

from specteig import (BoundaryConfig, ConfigError, DimError,
                      DinkelbachConfig, DomainError, Given, PamConfig,
                      SpecteigError, SymTensor, Uniform, axpy,
                      build_problem, diagonal_tensor, dinkelbach_solve,
                      frobenius_inner, identity_tensor, kl_exponent,
                      pam_solve, random_cubic, solve_boundary,
                      solve_multistart)
from specteig.tensor_core import (_check_real, _check_same_shape,
                                  _check_type)

A1 = SymTensor.from_entries(2, 2, {(1, 1): 1.0, (2, 2): -2.0})
POLY = random_cubic(3, 0)
PROBLEM = build_problem(A1, "Z")
CONFIG = DinkelbachConfig(inner=PamConfig(gammas=(1.0, 1.0)))

#: Calls that raised a bare built-in exception, or none, before the
#: validators took them: each must raise a SpecteigError subclass.
BAD_CALLS = {
    "PamConfig eps str": lambda: PamConfig(gammas=(1.0,), eps="1"),
    "PamConfig gammas float": lambda: PamConfig(gammas=1.0),
    "PamConfig gamma str": lambda: PamConfig(gammas=("1",)),
    "PamConfig no gammas": lambda: PamConfig(gammas=()),
    "BoundaryConfig gamma str": lambda: BoundaryConfig(gamma="1"),
    "Uniform lo str": lambda: Uniform("a", 1.0),
    "Uniform hi None": lambda: Uniform(0.0, None),
    "DinkelbachConfig inner None": lambda: DinkelbachConfig(inner=None),
    "solve_multistart config None":
        lambda: solve_multistart(PROBLEM, 2, 0, None),
    "solve_multistart cluster_tol inf":
        lambda: solve_multistart(PROBLEM, 2, 0, CONFIG, math.inf),
    "axpy int operand": lambda: axpy(A1, 3, 1.0),
    "axpy str theta": lambda: axpy(A1, A1, "x"),
    "axpy nan theta": lambda: axpy(A1, A1, math.nan),
    "Given str blocks": lambda: pam_solve(A1, PamConfig(
        gammas=(1.0, 1.0), init=Given(("a", "b")))),
    "frobenius_inner array operand": lambda: frobenius_inner(A1.dense, A1),
    "solve_boundary str poly": lambda: solve_boundary("x", 2.0),
    "solve_boundary str delta": lambda: solve_boundary(POLY, "2"),
    "random_cubic float n": lambda: random_cubic(2.5, 0),
    "BoundaryConfig s0 nan": lambda: solve_boundary(
        POLY, 2.0, BoundaryConfig(s0=[math.nan, 0.0, 0.0])),
    "kl_exponent float d": lambda: kl_exponent(2.0, 2),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_input_raises_a_package_error(call):
    with pytest.raises(SpecteigError):
        call()


def test_a_non_finite_s0_is_a_config_error():
    # s0's shape check raises ConfigError; a NaN entry used to fail the
    # first sweep with NumericalError
    with pytest.raises(ConfigError, match="s0 must be finite"):
        solve_boundary(POLY, 2.0, BoundaryConfig(s0=[0.0, math.inf, 0.0]))


class TestValidators:
    @pytest.mark.parametrize("value", [0, 0.0, 1, 2.5, np.float64(3.0)])
    def test_nonnegative_accepts(self, value):
        _check_real("x", value)

    @pytest.mark.parametrize("value", [-1e-300, math.nan, math.inf, "1",
                                       None, np.array([1.0])])
    def test_nonnegative_rejects(self, value):
        with pytest.raises(ConfigError, match="x must be nonnegative and "
                                              "finite"):
            _check_real("x", value)

    @pytest.mark.parametrize("value", [0, 0.0, -1.0, math.nan, math.inf])
    def test_positive_rejects_with_its_error(self, value):
        with pytest.raises(DomainError, match="x must be positive and "
                                              "finite"):
            _check_real("x", value, DomainError, positive=True)
        _check_real("x", 1e-300, DomainError, positive=True)

    def test_type(self):
        _check_type("a", A1, SymTensor)
        with pytest.raises(ConfigError, match="a must be a SymTensor, got "
                                              "ndarray"):
            _check_type("a", A1.dense, SymTensor)

    def test_same_shape(self):
        _check_same_shape(A1, A1)
        other = identity_tensor(2, 3)
        with pytest.raises(DimError, match=r"shape mismatch: \(2,2\) vs "
                                           r"\(2,3\)"):
            _check_same_shape(A1, other)
        with pytest.raises(ConfigError, match="shape mismatch"):
            _check_same_shape(A1, other, ConfigError)
        with pytest.raises(ConfigError, match="b must be a SymTensor"):
            _check_same_shape(A1, None)


@pytest.mark.parametrize("build", [identity_tensor, diagonal_tensor])
def test_a_cached_shape_does_not_admit_a_float_dimension(build):
    # the cache's keys hold 2.0 equal to 2: a float dimension used to
    # return the tensor an earlier integer call had cached
    assert build(2, 2) is build(2, 2)
    with pytest.raises(DimError):
        build(2, 2.0)
    with pytest.raises(SpecteigError):
        build(2.0, 2)


class TestOneStartRule:
    """pam_solve and the fractional loop accept and reject the same
    starts: a finite norm of at least DEGENERATE_TOL, draws redrawn."""

    @staticmethod
    def solve_both(init):
        inner = PamConfig(gammas=(1.0, 1.0), init=init)
        outcomes = []
        config = DinkelbachConfig(inner=inner)
        for solve in (lambda: pam_solve(A1, inner),
                      lambda: dinkelbach_solve(PROBLEM.fractional, config)):
            try:
                solve()
                outcomes.append("ok")
            except ConfigError as exc:
                outcomes.append(str(exc).split(" gave ")[1])
        return outcomes

    @pytest.mark.parametrize("init", [
        Given((np.array([1e-160, 0.0]),) * 2),
        Given((np.array([0.0, 0.0]),) * 2),
        Given((np.array([math.nan, 1.0]),) * 2),
        Uniform(0.0, 1e-300),
        Uniform(-1e300, 1e300),
    ], ids=["tiny", "zero", "nan", "tiny-draws", "overflowing-draws"])
    def test_rejected_by_both(self, init):
        first, second = self.solve_both(init)
        assert first == second == "no finite norm of at least 1e-14"

    @pytest.mark.parametrize("init", [
        Given((np.array([1e-13, 0.0]),) * 2),
        Uniform(0.0, 1e-6),
    ], ids=["small", "small-draws"])
    def test_accepted_by_both(self, init):
        assert self.solve_both(init) == ["ok", "ok"]

    def test_a_given_start_needs_one_block_per_slot_in_both(self):
        init = Given((np.array([1.0, 0.0]),))
        inner = PamConfig(gammas=(1.0, 1.0), init=init)
        with pytest.raises(ConfigError, match="init has 1 blocks"):
            pam_solve(A1, inner)
        with pytest.raises(ConfigError, match="init has 1 blocks"):
            dinkelbach_solve(PROBLEM.fractional,
                             DinkelbachConfig(inner=inner))
