"""The hot paths call NumPy's C methods directly.

np.dot, np.copyto, np.argmin, np.concatenate, np.outer and np.linalg.norm
each reach their C kernel through a Python-level layer. The boundary
sweeps, rounds and certificate, and the subproblems of a multistart run,
call the ndarray methods or ufuncs that reach the same kernels, so their
answers do not depend on which form is called. The six refuse to run when
the package's modules call them, and every answer must stay as it is.
(NumPy calls np.concatenate itself when it seeds a generator, so the six
are replaced in the package's view of numpy, not in numpy.)
"""

import dataclasses
import types

import numpy as np

import specteig
from specteig import (build_problem, check_second_order, random_cubic,
                      solve_boundary, solve_multistart)
from specteig.cli import EXAMPLE_SPECS, _study_config

DISPATCHED = {"numpy": ("dot", "copyto", "argmin", "concatenate", "outer"),
              "numpy.linalg": ("norm",)}
MODULES = ("dinkelbach", "eigen", "pam", "tensor_core", "trust_region")


class _Refusing(types.ModuleType):
    """module, with the named functions raising when they are called and
    every other attribute its own."""

    def __init__(self, module, names, **replaced):
        super().__init__(module.__name__)
        self._module = module
        for name in names:
            setattr(self, name, self._refuse(f"{module.__name__}.{name}"))
        vars(self).update(replaced)

    @staticmethod
    def _refuse(name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{name} was called")
        return refuse

    def __getattr__(self, name):
        return getattr(self._module, name)


def _exact(value):
    """value with every float as float.hex and every array as its bytes,
    dataclasses field by field, CPU times left out."""
    if dataclasses.is_dataclass(value):
        return {f.name: _exact(getattr(value, f.name))
                for f in dataclasses.fields(value) if "cpu" not in f.name}
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (tuple, list)):
        return tuple(_exact(v) for v in value)
    if isinstance(value, float):
        return float(value).hex()
    return value


def test_solves_call_no_dispatched_function(example2, monkeypatch):
    # a battery instance (seed 1000, n = 5, the battery's radius and scales)
    # with its certificate, and four trials of study 5.1; each runs once
    # first, so that the shape store holds what the solves set up
    poly = random_cubic(5, 1000)
    spec = EXAMPLE_SPECS["5.1"]
    problem = build_problem(example2, spec["kind"])
    config = _study_config(spec, example2.order, 1729)

    def solve():
        res = solve_boundary(poly, 2.0)
        return (res, check_second_order(poly, res.s, res.lambda_),
                solve_multistart(problem, 4, 1729, config))

    want = _exact(solve())
    guarded = _Refusing(np, DISPATCHED["numpy"], linalg=_Refusing(
        np.linalg, DISPATCHED["numpy.linalg"]))
    with monkeypatch.context() as patch:
        for name in MODULES:
            patch.setattr(getattr(specteig, name), "np", guarded)
        got = _exact(solve())
    assert got == want
    assert want[2]["accepted"] == 4
