"""One rule per kind of input: the validators of tensor_core, the calls
that reach them from every module, and the one start rule of both
solvers."""

import dataclasses
import math

import numpy as np
import pytest

from specteig import (ArityError, BoundaryConfig, ConfigError, DimError,
                      DinkelbachConfig, DomainError, Given, PamConfig,
                      PamResult, ParseError, SpecteigError, SymTensor,
                      Uniform, axpy, build_problem, diagonal_tensor,
                      dinkelbach_solve, f_theta, frobenius_inner,
                      identity_tensor, kkt_residual, kl_exponent,
                      lagrangian_grad, load_poly, pam_solve, random_cubic,
                      residual, solve_boundary, solve_multistart)
from specteig.pam import PamRequest, _await, run_alone
from specteig.tensor_core import (_check_real, _check_same_shape,
                                  _check_type)
from specteig.trust_region import TaylorPoly

A1 = SymTensor.from_entries(2, 2, {(1, 1): 1.0, (2, 2): -2.0})
POLY = random_cubic(3, 0)
PROBLEM = build_problem(A1, "Z")
CONFIG = DinkelbachConfig(inner=PamConfig(gammas=(1.0, 1.0)))
X = np.array([0.6, 0.8])
RESULT = PamResult(v=X, value=-1.0, blocks=(X, X), iterations=1,
                   converged=True, history=((1, -1.0, -1.0, 0.0),))

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
    # BoundaryConfig checks s0 when it is built, not first in the solve
    "BoundaryConfig built with complex s0": lambda: BoundaryConfig(
        s0=[1j, 0.0]),
    "BoundaryConfig built with nan s0": lambda: BoundaryConfig(
        s0=[math.nan]),
    "BoundaryConfig built with 2-D s0": lambda: BoundaryConfig(s0=[[1.0]]),
    "kl_exponent float d": lambda: kl_exponent(2.0, 2),
    "seat str theta": lambda: run_alone(_await(PamRequest(
        A1, CONFIG.inner, b=A1, theta="x"))),
    "seat nan theta": lambda: run_alone(_await(PamRequest(
        A1, CONFIG.inner, b=A1, theta=math.nan))),
    "Given complex block": lambda: pam_solve(A1, PamConfig(
        gammas=(1.0, 1.0), init=Given((np.array([1j, 1.0]),) * 2))),
    "from_cubic complex g": lambda: TaylorPoly.from_cubic(
        0, [1j, 2], np.zeros((2, 2)), np.zeros((2, 2, 2))),
    "from_cubic complex H": lambda: TaylorPoly.from_cubic(
        0, [1, 2], np.eye(2) * 1j, np.zeros((2, 2, 2))),
    "from_cubic complex T": lambda: TaylorPoly.from_cubic(
        0, [1, 2], np.eye(2), np.zeros((2, 2, 2), dtype=complex)),
    "TaylorPoly complex coefficient": lambda: TaylorPoly(2, 3, {(1, 0): 1j}),
    "TaylorPoly str coefficient": lambda: TaylorPoly(2, 3, {(1, 0): "x"}),
    "load_poly float n": lambda: load_poly({"n": 2.7, "p": 3, "terms": []}),
    "load_poly float p": lambda: load_poly({"n": 2, "p": 3.9, "terms": []}),
    "load_poly float exponent": lambda: load_poly(
        {"n": 2, "p": 3, "terms": [{"alpha": [1.5, 0], "coeff": 1.0}]}),
    "load_poly float dense n": lambda: load_poly(
        {"n": 2.0, "p": 3, "g": [0, 0], "H": np.zeros((2, 2)).tolist(),
         "T": np.zeros((2, 2, 2)).tolist()}),
    "kkt_residual array operand":
        lambda: kkt_residual(A1.dense, CONFIG.inner, RESULT),
    "kkt_residual config None": lambda: kkt_residual(A1, None, RESULT),
    "kkt_residual result blocks":
        lambda: kkt_residual(A1, CONFIG.inner, RESULT.blocks),
    "kkt_residual result without history": lambda: kkt_residual(
        A1, CONFIG.inner, dataclasses.replace(RESULT, history=())),
    "kkt_residual four gammas": lambda: kkt_residual(
        A1, PamConfig(gammas=(1.0,) * 4), RESULT),
    "kkt_residual three blocks": lambda: kkt_residual(
        A1, CONFIG.inner, dataclasses.replace(RESULT, blocks=(X,) * 3)),
    "kkt_residual short block": lambda: kkt_residual(
        A1, CONFIG.inner, dataclasses.replace(RESULT, blocks=(X, X[:1]))),
    "TaylorPoly float exponent": lambda: TaylorPoly(2, 3, {(1.5, 0): 1.0}),
    "TaylorPoly str exponent": lambda: TaylorPoly(2, 3, {("1", 0): 1.0}),
    "TaylorPoly terms list": lambda: TaylorPoly(2, 3, [((1, 0), 1.0)]),
    "random_cubic two scales": lambda: random_cubic(3, 0, (1.0, 2.0)),
    "solve_multistart problem None":
        lambda: solve_multistart(None, 2, 0, CONFIG),
    "dinkelbach_solve problem None": lambda: dinkelbach_solve(None, CONFIG),
    "dinkelbach_solve config None":
        lambda: dinkelbach_solve(PROBLEM.fractional, None),
    "pam_solve config None": lambda: pam_solve(A1, None),
    "solve_boundary str config": lambda: solve_boundary(POLY, 1.0, "x"),
    "residual complex lambda": lambda: residual(PROBLEM, 1j, X),
    "lagrangian_grad str lambda":
        lambda: lagrangian_grad(POLY, np.ones(3), "x"),
    "lagrangian_grad nan lambda":
        lambda: lagrangian_grad(POLY, np.ones(3), math.nan),
    "f_theta nan theta": lambda: f_theta(PROBLEM.fractional, math.nan, X),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_input_raises_a_package_error(call):
    with pytest.raises(SpecteigError):
        call()


@pytest.mark.parametrize("name,error", [
    ("kkt_residual array operand", ConfigError),
    ("kkt_residual config None", ConfigError),
    ("kkt_residual result blocks", ConfigError),
    ("kkt_residual result without history", ConfigError),
    ("kkt_residual four gammas", ArityError),
    ("kkt_residual three blocks", ArityError),
    ("kkt_residual short block", DimError)])
def test_kkt_residual_names_the_fault(name, error):
    # a block of the wrong length used to reach _contract's matmul and
    # raise NumPy's bare ValueError
    with pytest.raises(error):
        BAD_CALLS[name]()


@pytest.mark.parametrize("theta", ["x", math.nan, -math.inf])
def test_a_bad_theta_reaches_the_program(theta):
    # the seat checks theta as axpy does and throws its ConfigError into
    # the program, which may catch it; a NaN used to fail only at sweep 1
    def program():
        try:
            yield PamRequest(A1, CONFIG.inner, b=A1, theta=theta)
        except ConfigError as exc:
            return str(exc)

    assert run_alone(program()) == (f"theta must be real and finite, got "
                                    f"{theta!r}")


@pytest.mark.parametrize("call,error", [
    (lambda: pam_solve(A1, PamConfig(gammas=(1.0, 1.0), init=Given(
        (np.array([1.0, 0.5], dtype=complex), np.array([1.0, 0.0]))))),
     ConfigError),
    (lambda: TaylorPoly.from_cubic(np.complex128(1.0), [1.0], [[1.0]],
                                   [[[1.0]]]), DomainError),
    (lambda: TaylorPoly(1, 2, {(1,): np.complex128(2.0)}), DomainError),
    (lambda: A1.apply_full([1 + 2j, 0]), DomainError),
    (lambda: A1.apply_gradient(np.array([1.0, 0.0], dtype=complex)),
     DomainError),
    (lambda: A1.multilinear_partial([[1j, 0.0]], 0), DomainError),
    (lambda: A1.apply_full_many([[1.0, 1j]]), DomainError),
    (lambda: POLY.evaluate([1j, 0.0, 0.0]), DomainError),
    (lambda: POLY.evaluate_many([[1j, 0.0, 0.0]]), DomainError),
    (lambda: solve_boundary(POLY, 2.0, BoundaryConfig(s0=[1j, 0.0, 0.0])),
     ConfigError),
    (lambda: load_poly({"n": 1, "p": 3, "f0": 1j, "g": [0.0], "H": [[0.0]],
                        "T": [[[0.0]]]}), ParseError),
], ids=["Given", "from_cubic f0", "TaylorPoly coefficient", "apply_full",
        "apply_gradient", "multilinear_partial", "apply_full_many",
        "evaluate", "evaluate_many", "s0", "load_poly f0"])
def test_a_complex_value_is_not_cast_to_real(call, error):
    # a complex number with a zero imaginary part is still refused: NumPy's
    # cast would keep its real part with only a ComplexWarning
    with pytest.raises(error, match="must be real"):
        call()


@pytest.mark.parametrize("doc", [
    {"n": 2.7, "p": 3, "terms": []}, {"n": 2, "p": 3.9, "terms": []},
    {"n": "2", "p": 3, "terms": []},
    {"n": 2, "p": 3, "terms": [{"alpha": [2.5, 0], "coeff": 1.0}]},
    {"n": 2, "p": 3, "terms": [{"alpha": [1, 0.0], "coeff": 1.0}]}],
    ids=["n", "p", "str n", "exponent", "zero exponent"])
def test_load_poly_does_not_truncate(doc):
    # int() used to read n = 2.7 as 2, p = 3.9 as 3 and an exponent 2.5 as
    # 2, and built a model of another shape without a word
    with pytest.raises(ParseError, match="need integer fields n and p|"
                                         "malformed term"):
        load_poly(doc)


def test_load_poly_checks_the_dense_n():
    # the dense form used to take n from g alone: n = 5 with blocks on R^2
    # built a model on R^2 without a word
    doc = {"n": 5, "p": 3, "g": [1.0, 0.0], "H": np.zeros((2, 2)).tolist(),
           "T": np.zeros((2, 2, 2)).tolist()}
    with pytest.raises(ParseError, match="n is 5, but the dense blocks "
                                         "are on R\\^2"):
        load_poly(doc)
    doc["n"] = 2
    assert load_poly(doc).n == 2


def test_a_non_finite_s0_is_a_config_error():
    # s0's shape check raises ConfigError; a NaN entry used to fail the
    # first sweep with NumericalError
    with pytest.raises(ConfigError, match="s0 must be finite"):
        solve_boundary(POLY, 2.0, BoundaryConfig(s0=[0.0, math.inf, 0.0]))


class TestValidators:
    @pytest.mark.parametrize("value", [0, 0.0, 1, 2.5, np.float64(3.0),
                                       np.int64(2), np.float32(0.5)])
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
