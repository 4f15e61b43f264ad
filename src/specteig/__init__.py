"""Extremal symmetric-tensor eigenpairs and boundary trust-region steps.

The package minimizes ratios of homogeneous sphere forms by a parametric
fractional loop whose subproblems are solved with proximal alternating
block sweeps in closed form, and reuses the same block machinery to
minimize Taylor polynomial models on trust-region boundaries after lifting
them to homogeneous tensors.
"""

from .dinkelbach import (DinkelbachConfig, DinkelbachResult,
                         FractionalProblem, dinkelbach_solve, f_theta,
                         write_trace_csv)
from .eigen import (EigenPair, GeneralizedEigenProblem, MultiStartReport,
                    build_problem, format_table, rayleigh, report_to_csv,
                    report_to_json, residual, solve_multistart)
from .errors import (ArityError, ConfigError, DenominatorError, DimError,
                     DomainError, DuplicateEntryError, NumericalError,
                     ParseError, SpecteigError)
from .pam import (Given, PamConfig, PamResult, Uniform, kkt_residual,
                  kl_exponent, pam_solve, write_history_csv)
from .tensor_core import (MAX_DENSE_ENTRIES, HDiagonal, SymTensor, ZIdentity,
                          axpy, diagonal_tensor, frobenius_inner,
                          identity_tensor, load_tensor)
from .trust_region import (BoundaryConfig, BoundaryResult, TaylorPoly,
                           check_second_order, lagrangian_grad, load_poly,
                           poly_to_dict, random_cubic, solve_boundary)

__version__ = "0.1.0"
