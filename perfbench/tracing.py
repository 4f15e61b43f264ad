"""Per-layer timing spans recorded from outside the package.

A :class:`Tracer` replaces the public functions and methods of each layer
with wrappers that time every call, keep a stack of open spans so that a
span's self time excludes its wrapped children, and update counters from
the call's arguments and result. Only aggregates are kept: one call of
the sixth-order workload makes tens of thousands of kernel calls, so
individual spans are not stored.

Wrappers record only while ``tracer.active`` is true, so checks the
benchmark makes between timed calls do not count. :meth:`Tracer.remove`
puts every original object back.
"""

from __future__ import annotations

import functools
import logging
import sys
import time
from collections import defaultdict

#: (span name, module, class or None, attribute). Two targets may share a
#: span name; targets missing from the package are skipped and reported.
TARGETS = (
    ("tensor_core.partial", "specteig.tensor_core", "SymTensor",
     "multilinear_partial"),
    ("tensor_core.structured_partial", "specteig.tensor_core", "ZIdentity",
     "multilinear_partial"),
    ("tensor_core.structured_partial", "specteig.tensor_core", "HDiagonal",
     "multilinear_partial"),
    ("tensor_core.apply_full", "specteig.tensor_core", "SymTensor",
     "apply_full"),
    ("tensor_core.multilinear_apply", "specteig.tensor_core", "SymTensor",
     "multilinear_apply"),
    ("tensor_core.build", "specteig.tensor_core", "SymTensor", "__init__"),
    ("tensor_core.load_tensor", "specteig.tensor_core", None, "load_tensor"),
    ("tensor_core.axpy", "specteig.tensor_core", None, "axpy"),
    ("pam.pair_partial", "specteig.pam", None, "pair_partial"),
    ("pam.pair_product", "specteig.pam", None, "pair_product"),
    ("pam.block_update", "specteig.pam", None, "block_update"),
    ("pam.pam_solve", "specteig.pam", None, "pam_solve"),
    ("dinkelbach.problem_build", "specteig.dinkelbach", "FractionalProblem",
     "__post_init__"),
    ("dinkelbach.solve", "specteig.dinkelbach", None, "dinkelbach_solve"),
    ("eigen.multistart", "specteig.eigen", None, "solve_multistart"),
    ("trust_region.homogenize", "specteig.trust_region", None, "homogenize"),
    ("trust_region.from_cubic", "specteig.trust_region", "TaylorPoly",
     "from_cubic"),
    ("trust_region.solve_boundary", "specteig.trust_region", None,
     "solve_boundary"),
    ("trust_region.gradient", "specteig.trust_region", "TaylorPoly",
     "gradient"),
    ("trust_region.evaluate", "specteig.trust_region", "TaylorPoly",
     "evaluate"),
    ("trust_region.hessian", "specteig.trust_region", "TaylorPoly",
     "hessian"),
    ("trust_region.check_second_order", "specteig.trust_region", None,
     "check_second_order"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in TARGETS))

#: Loggers whose WARNING records are counted, keyed by counter name.
WARNING_LOGGERS = {"pam.warnings": "specteig.pam",
                   "trust_region.warnings": "specteig.trust_region"}


class SpanStat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


def _kernel_rows(args, result, counters):
    """Rows and bytes of the permutation cache one partial gathers over,
    computed from the array sizes (n**m rows when the cache is absent)."""
    tensor = args[0]
    idx = getattr(tensor, "_perm_idx", None)
    val = getattr(tensor, "_perm_val", None)
    if idx is not None and val is not None:
        rows, nbytes = val.size, idx.nbytes + val.nbytes
    else:
        rows = tensor.dim ** tensor.order
        nbytes = 8 * rows
    counters["tensor_core.partial.rows_computed"] += rows
    counters["tensor_core.partial.bytes_computed"] += nbytes


def _pam_result(args, result, counters):
    counters["pam.pam_solve.sweeps"] += result.iterations
    counters["pam.pam_solve.not_converged"] += not result.converged


def _dinkelbach_result(args, result, counters):
    # A loop that neither converged nor used up k_max stopped inside an
    # iteration it did not record; every other PAM solve was a retry.
    k_max = args[1].k_max
    rows = len(result.trace)
    started = rows + (0 if result.converged or rows == k_max else 1)
    counters["dinkelbach.solve.outer_iters"] += result.outer_iters
    counters["dinkelbach.solve.pam_solves"] += result.n_solves
    counters["dinkelbach.solve.trace_rows"] += rows
    counters["dinkelbach.solve.retries"] += result.n_solves - started
    counters["dinkelbach.solve.not_converged"] += not result.converged


def _boundary_result(args, result, counters):
    counters["trust_region.solve_boundary.inner_sweeps"] += result.inner_iters
    counters["trust_region.solve_boundary.outer_rounds"] += result.outer_iters
    counters["trust_region.solve_boundary.not_converged"] += \
        not result.converged


def _certificate(args, result, counters):
    counters["trust_region.check_second_order.certified"] += bool(result[1])


HOOKS = {
    "tensor_core.partial": _kernel_rows,
    "pam.pam_solve": _pam_result,
    "dinkelbach.solve": _dinkelbach_result,
    "trust_region.solve_boundary": _boundary_result,
    "trust_region.check_second_order": _certificate,
}


class _WarningCounter(logging.Handler):
    def __init__(self, counters):
        super().__init__(logging.WARNING)
        self.names = {logger: key for key, logger in WARNING_LOGGERS.items()}
        self.counters = counters

    def emit(self, record):
        key = self.names.get(record.name)
        if key is not None:
            self.counters[key] += 1


class Tracer:
    """Installs timing wrappers on the package; see the module docstring."""

    def __init__(self):
        self.stats = {name: SpanStat() for name in SPAN_NAMES}
        self.counters = defaultdict(float)
        self.root_s = 0.0
        self.active = False
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []
        self._handler = _WarningCounter(self.counters)
        self._logger_state = None

    def _wrap(self, name, fn):
        stat = self.stats[name]
        hook = HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    tracer.root_s += dt
            if hook is not None:
                hook(args, result, tracer.counters)
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "specteig" or key.startswith("specteig.")]
        for name, module_name, cls_name, attr in TARGETS:
            module = sys.modules.get(module_name)
            owner = getattr(module, cls_name, None) if cls_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{module_name}.{cls_name or ''}"
                                    f"{'.' if cls_name else ''}{attr}")
                continue
            if cls_name:
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._set(owner, attr, wrapped)
                continue
            # A module function is also bound by name in every module that
            # imported it, so rebind each of those references.
            wrapped = self._wrap(name, raw)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, key, wrapped)
        root = logging.getLogger("specteig")
        self._logger_state = (root.level, root.propagate)
        root.setLevel(logging.WARNING)
        root.propagate = False
        root.addHandler(self._handler)
        return self

    def remove(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        root = logging.getLogger("specteig")
        root.removeHandler(self._handler)
        if self._logger_state is not None:
            root.setLevel(self._logger_state[0])
            root.propagate = self._logger_state[1]
            self._logger_state = None
