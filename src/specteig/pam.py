"""Proximal alternating minimization (PAM) over products of spheres.

Minimizes the multilinear surrogate h(x_1, ..., x_d) = <H, x_1 o ... o x_d>
of the single symmetric tensor H = A - alpha * E, E the identity tensor of
order d, by cyclic closed-form block updates with proximal damping. On the
diagonal x_1 = ... = x_d the surrogate reduces to the homogeneous objective
<A, x^d> - alpha |x|^d. On the unit sphere its Hessian is at most
d((d - 1)|A|_F - alpha) I, so with alpha at least (d - 1) times the
Frobenius norm of A that homogeneous objective is concave, every block
update lands on the sphere boundary, and the best block's value bounds the
multilinear optimum from above. The default shift, the Frobenius norm
itself, does not guarantee concavity.

Every subproblem runs in a lockstep pool (:func:`run_lockstep`): the single
one of :func:`pam_solve`, those of one fractional solve, or those of all
trials of a multistart run. Its :class:`_BlockSweep`, the one sweep type
of both solvers, owns every array the pool runs on: the blocks of its T
seated subproblems in one (T, d, n) array, their surrogates as the rows of
one (T, n**d) stack, their gamma and weights rows, and the buffers of its
three steps. One tick runs one sweep of each: every slot's partials come
from stacked contractions that share the suffix contractions across slots
as fast CP-ALS does (:meth:`_BlockSweep.partial`), every row's step from
one batched closed form (:meth:`_BlockSweep.prox`; a lone row takes its
norm, guard and scale on Python floats and leaves the rules to the batched
code), the multilinear value from the last partial dotted with its block,
and every block's homogeneous value from one gather
(:meth:`_BlockSweep.block_values`). The boundary solver of
:mod:`specteig.trust_region` runs the same three steps on a one-row sweep
whose steps skip the lead column. Each row rounds exactly as it would in a
pool of one, so no result depends on what else is seated. The sweep is
built for the pool's capacity, and the ticks of t seated subproblems run
on a head, the sweep rebound to views of their first t rows, built once
per row count. A pool that returns leaves its sweep idle, heads and all,
for the next pool of the same order, dimension and capacity, which
rewrites every row it seats: repeated calls of one shape (a benchmark, a
study script, a loop over dinkelbach_solve) skip building it, and a
one-shot call builds it as before. The boundary solver keeps the one-row
sweep of each lift shape in the same idle store. The store keeps one
entry per key, each of at most 2 MiB and 4 MiB in all, and drops the
oldest entries first to make room, so a large stack does not outlive its
call. A pool turns off NumPy's divide and invalid warnings once for its
run, for the sweeps, and gives its programs back their caller's error
state.

A program (a generator) asks for each subproblem with a
:class:`PamRequest`: the operators A and B, the parameter theta and a
start vector (or an init spec) beside its unchanged config. The pool
writes the surrogate A - theta B - alpha E into the subproblem's stack row
with the operations of two :func:`~specteig.tensor_core.axpy` calls and
builds no tensor for it. A subproblem that stops hands its
:class:`PamResult` to its program, whose next request takes the slot at
once. The result keeps the surrogate as a dense array and builds its
tensor and stationarity residual only when they are first read. Warnings
are aggregated per run and logged once.
"""

from __future__ import annotations

import csv
import logging
import math
import numbers
import threading
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Generator, Sequence, Union

import numpy as np

from .errors import (ArityError, ConfigError, DimError, DomainError,
                     NumericalError)
from .tensor_core import (MAX_DENSE_ENTRIES, SymTensor, _check_count,
                          _check_real, _check_same_shape, _check_type,
                          _class_table, _form_values, _frobenius,
                          identity_tensor)

logger = logging.getLogger(__name__)

#: Directions or objective gaps below this are treated as exactly zero.
DEGENERATE_TOL = 1e-14

#: Warn when the best block value exceeds the multilinear value by more.
DIAGONAL_GAP_SLACK = 1e-9

#: Uniform draws per block before a start is given up: a draw whose norm is
#: below DEGENERATE_TOL or overflows is redrawn; on [-1, 1]**n that is rare.
_MAX_DRAWS = 100


@dataclass(frozen=True)
class Uniform:
    """Componentwise uniform random init on [lo, hi], then normalized."""

    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self):
        _check_type("lo", self.lo, numbers.Real)
        _check_type("hi", self.hi, numbers.Real)
        # written so that NaN fails the test; a draw needs hi - lo finite
        if not (-math.inf < self.lo < self.hi < math.inf
                and self.hi - self.lo < math.inf):
            raise ConfigError(f"init needs finite lo < hi and hi - lo, got "
                              f"lo={self.lo}, hi={self.hi}")


@dataclass(frozen=True)
class Given:
    """Explicit starting blocks, one vector per slot."""

    blocks: tuple[np.ndarray, ...]


InitSpec = Union[Uniform, Given]


@dataclass(frozen=True)
class PamConfig:
    """Solver parameters for one PAM run.

    alpha=None means: use the Frobenius norm of the operator, recomputed at
    solve time. gammas has one proximal weight per block and fixes the block
    count d. Every block lives on the unit sphere.
    """

    gammas: tuple[float, ...]
    alpha: float | None = None
    eps: float = 1e-6
    max_iter: int = 10000
    seed: int = 0
    init: InitSpec = field(default_factory=Uniform)

    def __post_init__(self):
        _check_type("gammas", self.gammas, tuple)
        _check_count("the block count len(gammas)", len(self.gammas))
        for gamma in self.gammas:
            _check_real("each gamma", gamma)
        if self.alpha is not None:
            _check_real("alpha", self.alpha)
        _check_real("eps", self.eps, positive=True)
        _check_count("max_iter", self.max_iter)
        _check_count("seed", self.seed, least=0)


@dataclass(frozen=True)
class PamResult:
    """Outcome of a PAM run.

    v is the best block by homogeneous value, value its homogeneous
    objective, and history the per-sweep rows (iter, h_t, h_v, step_norm).
    The result keeps the dense array of the surrogate it minimized (left
    out of repr and equality) and its blocks, both read-only. The surrogate
    tensor and kkt_residual, the norm of the stacked stationarity residuals
    at the final blocks, are built from them on first read and then kept.
    """

    v: np.ndarray
    value: float
    blocks: tuple[np.ndarray, ...]
    iterations: int
    converged: bool
    history: tuple[tuple[int, float, float, float], ...]
    dense: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def surrogate(self) -> SymTensor:
        return SymTensor._from_dense(self.dense)

    @cached_property
    def kkt_residual(self) -> float:
        return _kkt_residual(self.surrogate, self.blocks, self.history[-1][1])


@dataclass(frozen=True)
class PamRequest:
    """One PAM subproblem: minimize the surrogate of a - theta * b (of a
    alone when b is None) under config.

    start starts every block: a vector, normalized once and copied into
    each block, an InitSpec, or None for config.init. rng draws random
    inits; None means a generator seeded with config.seed.
    """

    a: SymTensor
    config: PamConfig
    rng: np.random.Generator | None = None
    b: SymTensor | None = None
    theta: float = 0.0
    start: np.ndarray | InitSpec | None = None


@dataclass
class PamStats:
    """What the warnings of one or more pool runs report, logged once.

    low_alpha counts the subproblems whose shift is below their operator's
    Frobenius norm, low_alpha_worst holds (alpha, norm, d) of the one with
    the largest norm. gap_sweeps counts the sweeps whose best block value
    exceeded the multilinear value by more than DIAGONAL_GAP_SLACK, in
    gap_subproblems finished subproblems, max_gap the largest excess.
    """

    subproblems: int = 0
    sweeps: int = 0
    low_alpha: int = 0
    low_alpha_worst: tuple[float, float, int] = (0.0, 0.0, 0)
    gap_subproblems: int = 0
    gap_sweeps: int = 0
    max_gap: float = 0.0

    def merge(self, other: "PamStats") -> None:
        self.subproblems += other.subproblems
        self.sweeps += other.sweeps
        self.low_alpha += other.low_alpha
        if other.low_alpha_worst[1] > self.low_alpha_worst[1]:
            self.low_alpha_worst = other.low_alpha_worst
        self.gap_subproblems += other.gap_subproblems
        self.gap_sweeps += other.gap_sweeps
        self.max_gap = max(self.max_gap, other.max_gap)

    def log(self) -> None:
        """One WARNING per kind of event seen, with its count."""
        if self.low_alpha:
            alpha, fro, d = self.low_alpha_worst
            logger.warning("alpha is below the operator Frobenius norm, the "
                           "default shift, in %d of %d subproblems (worst: "
                           "alpha=%.6g against norm %.6g); concavity is "
                           "guaranteed from (d - 1) times that norm, %.6g",
                           self.low_alpha, self.subproblems, alpha, fro,
                           (d - 1) * fro)
        if self.gap_sweeps:
            logger.warning("best block value exceeded the multilinear value "
                           "by more than %.0e in %d of %d sweeps, in %d of "
                           "%d subproblems (largest gap %.3g)",
                           DIAGONAL_GAP_SLACK, self.gap_sweeps, self.sweeps,
                           self.gap_subproblems, self.subproblems,
                           self.max_gap)


def _starts(init: np.ndarray | InitSpec, rng: np.random.Generator | None,
            d: int, dim: int) -> list[tuple[np.ndarray, float]]:
    """The vectors b of a start, one vector, the d given ones or d uniform
    draws from rng, with their norms |b| = sqrt(b . b) as np.linalg.norm
    takes it. Each norm must be finite and at least DEGENERATE_TOL: a draw
    is redrawn, up to _MAX_DRAWS times, and a given vector is not. A NaN or
    inf entry, or a b . b that overflows, reads norm NaN or inf without a
    warning."""
    drawn = isinstance(init, Uniform)
    given = init.blocks if isinstance(init, Given) else (init,)
    if isinstance(init, Given) and len(given) != d:
        raise ConfigError(f"init has {len(given)} blocks, expected {d}")
    starts = []
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(d if drawn else len(given)):
            for _ in range(_MAX_DRAWS if drawn else 1):
                try:
                    b = rng.uniform(init.lo, init.hi, size=dim) if drawn \
                        else np.asarray(given[j], dtype=float)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"init block {j} is not a vector of "
                                      f"reals: {exc}") from exc
                if b.shape != (dim,):
                    raise ConfigError(f"init block {j} has shape "
                                      f"{b.shape}, expected ({dim},)")
                nb = math.sqrt(np.dot(b, b))
                if DEGENERATE_TOL <= nb < math.inf:
                    break
            else:
                source = f"{_MAX_DRAWS} draws from {init}" if drawn \
                    else f"init block {j} (norm {nb})"
                raise ConfigError(f"{source} gave no finite norm of at "
                                  f"least {DEGENERATE_TOL}")
            starts.append((b, nb))
    return starts


def _init_blocks(init: np.ndarray | InitSpec,
                 rng: np.random.Generator | None, out: np.ndarray) -> None:
    """Write the starts of init into the (d, dim) array out, each b scaled
    by 1.0 / |b| (b / |b| rounds differently); one vector fills each row."""
    starts = _starts(init, rng, *out.shape)
    for j, (b, nb) in enumerate(starts):
        np.multiply(1.0 / nb, b, out if len(starts) == 1 else out[j])


class _Member:
    """A seated subproblem: its stopping rule and the per-sweep record that
    becomes its PamResult."""

    __slots__ = ("program", "eps", "max_iter", "value", "history",
                 "gap_sweeps", "max_gap")

    def __init__(self, program: int, config: PamConfig):
        self.program = program
        self.eps = config.eps
        self.max_iter = config.max_iter
        self.value = 0.0
        self.history: list[tuple[int, float, float, float]] = []
        self.gap_sweeps = 0
        self.max_gap = 0.0


class _BlockSweep:
    """The block steps of a PAM sweep over t rows of order-d tensors on
    R^n, the slot loop of both solvers, with every array it runs on, bound
    once: the (t, n**d) stack of surrogates, the (t, d, n) blocks, the
    rows gamma_rows and weights (over the shape's whole class table, zeros
    included) that their owner writes, the buffers of :meth:`partial`,
    :meth:`prox` and block_values, and those of the pool's ticks. The
    steps move the tails of the blocks, from column lead on: the first
    lead columns are set to 1.0 here and never written again, as the
    boundary solver's lifted blocks need. prev keeps the tails from before
    the last sweep. A sweep whose caller has already asked for slot 0's
    partial, from the blocks as they are, passes ready and skips that
    contraction. The h operands are the last partial and the last block.
    table holds the shape's class table and gather index, which a head
    shares whole. nbytes counts the arrays the sweep allocated and
    _HEAD_BYTES per block of each cached head."""

    def __init__(self, d: int, n: int, t: int, lead: int = 0):
        self.lead = lead
        self.stack = np.empty((t, n ** d))
        self.blocks = np.empty((t, d, n))
        self.blocks[:, :, :lead] = 1.0
        self.tails = self.blocks[:, :, lead:]
        self.last_block = self.blocks[:, -1]
        self.gamma_rows = np.empty((t, d))
        self.gammas = self.gamma_rows[:, :, None]
        self.prev, self.damped = np.empty((2,) + self.tails.shape)
        self.w = np.empty((t, n - lead))
        self.nw = np.empty((t, 1))
        self.nw_rows = self.nw[:, 0]
        self.scale = np.empty((t, 1))
        self.set_radius(1.0)
        rows = [self.blocks[:, k, None, :] for k in range(d)]
        outs = []

        def chain(src, slots):
            steps = []
            for k in slots:
                out = np.empty((t, src.shape[1] // n))
                outs.append(out)
                steps.append((rows[k], src.reshape(t, n, -1),
                               out.reshape(t, 1, -1)))
                src = out
            return steps, src

        steps, partial0 = chain(self.stack, range(d - 1, 0, -1))
        suffix = [self.stack, *outs]
        self._chains = [steps]
        # at order 1 the partial is the tensor itself, copied out
        self._partials = [partial0 if d > 1 else np.empty((t, n))]
        for j in range(1, d):
            steps, out = chain(suffix[d - 1 - j], range(j - 1, -1, -1))
            self._chains.append(steps)
            self._partials.append(out)
        classes, flat, counts, _ = _class_table(d, n)
        # entry (i, k, j) picks component classes[i, k] of block j: the
        # product over i runs over a leading axis, slot 0 first, and leaves
        # each row's (d, classes) products column-major, as apply_full_many
        # forms them for its matrix-vector product
        gather_idx = classes[:, :, None] + np.arange(d)[None, None, :] * n
        self.table = (classes, flat, counts, gather_idx)
        self.weights = np.empty((t, classes.shape[1]))
        # h_t, h_v and step norm of the pool's last tick
        self.ht, self.hv, self.step = np.empty((3, t))
        self.diff = np.empty((t, d * n))
        self.diff3 = self.diff.reshape(t, d, n)
        self.blocks_flat = self.blocks.reshape(t, d * n)
        self.vals = np.empty((t, d))
        self.vals3 = self.vals[:, :, None]
        self.gathered = np.empty((t,) + gather_idx.shape)
        self.prods = np.empty((t,) + gather_idx.shape[1:])
        self.prods_by_block = self.prods.transpose(0, 2, 1)
        self.weights3 = self.weights[:, :, None]
        self._bind(t)
        views = [v for v in vars(self).values() if type(v) is np.ndarray] \
            + outs + self._partials + [gather_idx]
        # the arrays these are or are views of, each counted once
        self.nbytes = sum({id(a): a.nbytes for a in (
            v if v.base is None else v.base for v in views)}.values())
        self.heads: dict[int, _BlockSweep] = {}

    def _bind(self, t: int) -> None:
        """Bind the products, partials and slots to the first t rows of
        their arrays. One row runs its products as np.dot on 2-D views,
        the same gemv as matmul but cheaper to call, and its step on row,
        the one row of w."""
        one = t == 1
        self._mul = np.dot if one else np.matmul
        self._steps = [[(r[0, 0], src[0], dst[0, 0]) if one
                        else (r[:t], src[:t], dst[:t]) for r, src, dst in s]
                       for s in self._chains]
        self.partials = [p[:t] for p in self._partials]
        self._copies = [(self.partials[0], self.stack)] \
            if len(self.partials) == 1 else []
        self.slots = [(p[:, self.lead:], self.damped[:, j], self.prev[:, j],
                       self.tails[:, j]) for j, p in enumerate(self.partials)]
        self.last_partial = self.partials[-1]
        self.row = self.w[0] if one else None

    def set_radius(self, radius: float) -> None:
        """Step onto the sphere of this radius from now on."""
        self.radius = float(radius)
        self.guard = 2.0 * DEGENERATE_TOL * max(1.0, 0.5 / self.radius)

    def partial(self, j: int) -> np.ndarray:
        """Slot j's partials, in a buffer the next sweep overwrites: the
        (t, n) array whose row i contracts stack row i with blocks[i, k] on
        every slot k != j by (t, 1, n) @ (t, n, m) products, each row those
        of :func:`~specteig.tensor_core._contract` in its order. A sweep
        asks for slots 0, ..., d - 1 in order: slot 0 builds the suffixes
        over slots d-1, ..., 1 from the blocks as they are then, and slot j
        contracts its suffix with slots j-1, ..., 0 when it is reached, so
        the caller may overwrite blocks[:, j] once its partial is out. That
        is d(d+1)/2 - 1 stacked products for d slots."""
        for row, src, dst in self._steps[j]:
            self._mul(row, src, dst)
        for dst, src in self._copies:
            np.copyto(dst, src)
        return self.partials[j]

    def prox(self, c: np.ndarray, damped: np.ndarray, prev: np.ndarray,
             out: np.ndarray) -> None:
        """Write every row's proximal step on the sphere of the radius
        into out, given the blocks before the step in prev and the rows
        gamma_i * prev[i] in damped.

        Row i minimizes <c[i], x> + (gamma_i/2)|x - prev[i]|^2 on the
        sphere, c[i] the surrogate's partial at the block's slot. On the
        sphere the objective is <w, x> plus a constant, w = c[i] - gamma_i
        * prev[i], so the minimizer is -r * w / |w|. Two rules decide the
        rows where that formula does not: a degenerate w (norm below
        DEGENERATE_TOL) keeps prev, and when the candidates +-r * w / |w|
        differ in objective (by 2 r |w|) by less than DEGENERATE_TOL, the
        one nearer prev wins. Both apply only below guard = 2
        DEGENERATE_TOL max(1, 0.5 / r), so a step in which no |w| is below
        it (a NaN |w| is not) skips them. A one-row step runs its norm
        |w|, the guard test and the scale -r / |w| on Python floats, which
        round as the ufuncs do, and leaves a row the guard stops, or a NaN
        |w|, to the batched code and its rules.
        """
        w = self.w
        np.subtract(c, damped, w)
        row = self.row
        if row is not None:
            v = math.sqrt(np.dot(row, row))
            if v >= self.guard:
                np.multiply(-self.radius / v, w, out)
                return
        nw = self.nw
        # np.vecdot sums each row's |w|^2 with np.dot's BLAS ddot
        np.vecdot(w, w, self.nw_rows)
        np.sqrt(nw, nw)
        np.divide(-self.radius, nw, self.scale)
        np.multiply(self.scale, w, out)
        # a NaN row compares False, so it cannot hide a tied row beside it
        for (v,) in nw.tolist():
            if v < self.guard:
                break
        else:
            return
        nw = self.nw_rows
        degenerate = nw < DEGENERATE_TOL
        tie = 2.0 * self.radius * nw < DEGENERATE_TOL
        u = -out
        aligned = (u[:, None, :] @ prev[:, :, None]).reshape(-1) > 0.0
        keep_u = tie & ~degenerate & aligned
        out[keep_u] = u[keep_u]
        out[degenerate] = prev[degenerate]

    def sweep(self, ready: bool = False) -> None:
        np.copyto(self.prev, self.tails)
        np.multiply(self.gammas, self.prev, self.damped)
        partial, prox = self.partial, self.prox
        for j, slot in enumerate(self.slots):
            if j or not ready:
                partial(j)
            prox(*slot)

    def block_values(self) -> np.ndarray:
        """(t, d) homogeneous values of every block under its row's
        weights, from one gather over the shape's index classes; prods
        keeps each block's class products, (t, C, d)."""
        self.blocks_flat.take(self.table[-1], axis=1, out=self.gathered,
                              mode="clip")
        np.multiply.reduce(self.gathered, axis=1, out=self.prods)
        np.matmul(self.prods_by_block, self.weights3, out=self.vals3)
        return self.vals

    def head_of(self, t: int) -> "_BlockSweep":
        """The sweep's first t rows: itself at its capacity, else a head,
        a copy whose arrays are views of their first t rows, rebound to
        them, built on first use and cached. The head drops the cache:
        holding it would make a cycle that keeps a dropped sweep's arrays
        alive until the garbage collector runs."""
        if t == len(self.blocks):
            return self
        head = self.heads.get(t)
        if head is None:
            head = self.heads[t] = object.__new__(_BlockSweep)
            head.__dict__ = {k: v[:t] if type(v) is np.ndarray else v
                             for k, v in vars(self).items() if k != "heads"}
            head._bind(t)
            self.nbytes += _HEAD_BYTES * self.blocks.shape[1]
        return head


#: A cached head is views only, 11-12 KiB at four blocks and 17 KiB at six
#: (tracemalloc); it counts as this many bytes per block.
_HEAD_BYTES = 3 << 10

#: Largest entry kept idle. Building a pool's sweep takes 40-130 us and a
#: head 25-35 us, a visible share of a call of a few ms. This keeps the
#: four-row sweeps of order 4 on R^3 (55 KiB with its heads) and order 6 on
#: R^4 (0.4 MiB), the 100-row sweep of study 5.1 (1.6 MiB; 5 ms to build
#: against a 30 ms call) and the boundary sweep of cubics on R^30 (1.2
#: MiB). It drops the 100-row sweep of study 5.2 (10 MiB; 9 ms against
#: 0.4 s) and any 2**24-entry stack.
_IDLE_BYTES = 2 << 20

#: Most bytes the idle entries hold together: storing one drops the oldest
#: entries until it fits. Two of the largest entries fit, and so do the
#: boundary sweeps of all 11 shapes of the default battery (1.6 MB).
_IDLE_BUDGET = 4 << 20

#: The idle entries, oldest first, each with its nbytes: the sweep of a
#: pool of each (d, n, capacity), and the sweep of a boundary solve of each
#: lift shape ("boundary", p, n + 1), whose keys never equal a pool's. A
#: user takes its entry by pop and stores its own when it returns, both
#: under _IDLE_LOCK, so pools and solves that run at the same time, nested
#: or in threads, never share one.
_IDLE: dict[tuple, object] = {}
_IDLE_LOCK = threading.Lock()


def _take_idle(key: tuple):
    """The idle entry of key, taken out of the store, or None."""
    with _IDLE_LOCK:
        return _IDLE.pop(key, None)


def _keep_idle(key: tuple, entry) -> None:
    """Store entry as the newest idle entry of key, unless its nbytes is
    above _IDLE_BYTES, and drop the oldest entries until the store holds at
    most _IDLE_BUDGET bytes."""
    if entry.nbytes > _IDLE_BYTES:
        return
    with _IDLE_LOCK:
        _IDLE.pop(key, None)
        total = entry.nbytes + sum(e.nbytes for e in _IDLE.values())
        for old in list(_IDLE):
            if total <= _IDLE_BUDGET:
                break
            total -= _IDLE.pop(old).nbytes
        _IDLE[key] = entry


class _Pool:
    """State of one :func:`run_lockstep` call.

    Seated subproblems occupy rows 0..T-1 of the pool's block sweep: of
    its stack, blocks, gamma_rows and weights. The sweep, for the pool's
    capacity, is taken by the first request seated: the idle one of its
    shape, or a new one.
    """

    def __init__(self, programs: Sequence[Generator], stats: PamStats):
        self.programs = list(programs)
        self.outcomes: list = [None] * len(self.programs)
        self.sweeps = [0] * len(self.programs)
        self.stats = stats
        self.queue = deque(range(len(self.programs)))
        self.members: list[_Member | None] = []
        self.capacity = 0
        self.caller_err = np.geterr()

    def run(self) -> tuple[list, list[int]]:
        # the sweeps divide by |w| and may meet NaN; the programs and the
        # seating run in the caller's error state (_advance)
        with np.errstate(divide="ignore", invalid="ignore"):
            while self.queue and (not self.capacity
                                  or len(self.members) < self.capacity):
                self._advance(len(self.members), self.queue.popleft(), None,
                              None)
            while self.members:
                self._tick()
        if self.capacity:
            _keep_idle(self.key, self.whole)
        return self.outcomes, self.sweeps

    def _advance(self, slot: int, p: int, result: PamResult | None,
                 error: Exception | None) -> bool:
        """Send program p its result (or throw it the error) and seat the
        request it yields next in slot; False when the program returned."""
        gen = self.programs[p]
        with np.errstate(**self.caller_err):
            while True:
                try:
                    request = gen.send(result) if error is None \
                        else gen.throw(error)
                except StopIteration as stop:
                    self.outcomes[p] = stop.value
                    return False
                try:
                    self._seat(slot, p, request)
                    return True
                except (ArityError, ConfigError, DimError) as exc:
                    result, error = None, exc

    def _seat(self, slot: int, p: int, request: PamRequest) -> None:
        """Write the request's surrogate A - theta B - alpha E into stack
        row slot with the operations of two axpy calls, in their order, and
        its start into blocks[slot]."""
        a, b, config = request.a, request.b, request.config
        d = len(config.gammas)
        if a.order != d:
            raise ArityError(f"operator order {a.order} does not "
                             f"match block count {d}")
        dim = a.dim
        if b is not None:
            _check_same_shape(a, b)
        identity = identity_tensor(d, dim).dense.reshape(-1)
        if not self.capacity:
            # the idle sweep of the shape and capacity, or a new one
            self.capacity = min(len(self.programs),
                                max(1, MAX_DENSE_ENTRIES // dim ** d))
            self.key = (d, dim, self.capacity)
            self.whole = self.seated = _take_idle(self.key) \
                or _BlockSweep(*self.key)
        f = self.whole
        if (d, dim) != f.blocks.shape[1:]:
            raise DimError(f"a pool of order-{f.blocks.shape[1]} "
                           f"operators on R^{f.blocks.shape[2]} cannot "
                           f"seat order {d} on R^{dim}")
        classes, flat, counts, _ = f.table
        init = config.init if request.start is None else request.start
        rng = request.rng if request.rng is not None \
            else np.random.default_rng(config.seed)
        blocks = f.blocks[slot]
        _init_blocks(init, rng, blocks)
        row = f.stack[slot]
        if b is None:
            a_theta, fro = a.dense.reshape(-1), a.frobenius_norm()
        else:
            a_theta = np.subtract(a.dense.reshape(-1),
                                  request.theta * b.dense.reshape(-1),
                                  out=row)
            fro = _frobenius(a_theta.take(flat), counts)
        alpha = config.alpha if config.alpha is not None else fro
        np.subtract(a_theta, alpha * identity, out=row)
        weights = f.weights[slot]
        np.multiply(counts, row.take(flat), out=weights)
        member = _Member(p, config)
        f.gamma_rows[slot] = config.gammas
        if slot == len(self.members):
            self.members.append(member)
        else:
            self.members[slot] = member
        member.value = float(np.minimum.reduce(
            _form_values(blocks, classes, weights)))
        stats = self.stats
        stats.subproblems += 1
        if alpha < fro - 1e-12:
            stats.low_alpha += 1
            if fro > stats.low_alpha_worst[1]:
                stats.low_alpha_worst = (alpha, fro, d)

    def _tick(self) -> None:
        """One sweep of every seated subproblem, then pam_solve's
        bookkeeping per subproblem; finished ones hand their result to
        their program, whose next request takes the slot."""
        members = self.members
        t = len(members)
        f = self.seated
        if len(f.blocks) != t:
            f = self.seated = self.whole.head_of(t)
        f.sweep()
        np.vecdot(f.last_partial, f.last_block, f.ht)
        np.subtract(f.blocks, f.prev, f.diff3)
        np.vecdot(f.diff, f.diff, f.step)
        np.sqrt(f.step, f.step)
        vals = f.block_values()
        np.minimum.reduce(vals, axis=1, out=f.hv)
        self.stats.sweeps += t
        done = []
        for slot, (m, ht, hv, step) in enumerate(zip(
                members, f.ht.tolist(), f.hv.tolist(), f.step.tolist())):
            self.sweeps[m.program] += 1
            k = len(m.history) + 1
            if not math.isfinite(ht):
                done.append((slot, False, NumericalError(
                    f"non-finite surrogate value at sweep {k}")))
                continue
            if hv > ht + DIAGONAL_GAP_SLACK:
                m.gap_sweeps += 1
                m.max_gap = max(m.max_gap, hv - ht)
            m.history.append((k, ht, hv, step))
            converged = abs(hv - m.value) < m.eps
            m.value = hv
            if converged or k == m.max_iter:
                done.append((slot, converged, None))
        for slot, converged, error in done:
            m = members[slot]
            result = None if error else self._result(slot, vals[slot],
                                                     converged)
            members[slot] = None
            self._advance(slot, m.program, result, error)
        if done:
            self._refill()

    def _result(self, slot: int, vals: np.ndarray,
                converged: bool) -> PamResult:
        m, f = self.members[slot], self.whole
        # kkt_residual reads both later
        blocks = f.blocks[slot].copy()
        blocks.flags.writeable = False
        d, n = f.blocks.shape[1:]
        dense = f.stack[slot].reshape((n,) * d).copy()
        dense.flags.writeable = False
        if m.gap_sweeps:
            self.stats.gap_subproblems += 1
            self.stats.gap_sweeps += m.gap_sweeps
            self.stats.max_gap = max(self.stats.max_gap, m.max_gap)
        return PamResult(v=blocks[int(vals.argmin())].copy(),
                         value=m.value, blocks=tuple(blocks),
                         iterations=len(m.history), converged=converged,
                         history=tuple(m.history), dense=dense)

    def _refill(self) -> None:
        """Seat waiting programs in the free slots, then move the last
        seated subproblems down so the seated slots stay 0..T-1."""
        members = self.members
        for slot in range(len(members)):
            while members[slot] is None and self.queue:
                self._advance(slot, self.queue.popleft(), None, None)
        live = [i for i, m in enumerate(members) if m is not None]
        f = self.whole
        for new, old in enumerate(live):
            if new != old:
                for arr in (f.stack, f.blocks, f.gamma_rows, f.weights):
                    arr[new] = arr[old]
                members[new] = members[old]
        del members[len(live):]


def run_lockstep(programs: Sequence[Generator],
                 stats: PamStats) -> tuple[list, list[int]]:
    """Run programs that need PAM subproblems through one lockstep pool.

    A program is a generator that yields a PamRequest for every subproblem
    it needs and is sent the PamResult back. A subproblem that fails (a
    non-finite surrogate value raises NumericalError; a request that does
    not fit raises ArityError, ConfigError or DimError) throws its error
    into the program instead. Every subproblem runs pam_solve's loop, and
    each tick of the pool runs one sweep of every seated subproblem in
    stacked array calls whose rows round exactly as one subproblem's
    calls would, so a result does not depend on what else is seated. When
    a subproblem stops, its program advances at once and its next request
    takes the slot; programs beyond the pool's size, MAX_DENSE_ENTRIES //
    n**d subproblems, wait for a free slot. Returns each program's return
    value and the sweeps its subproblems took, in program order, and adds
    the warning aggregates to stats. An error a program does not catch
    propagates.
    """
    return _Pool(programs, stats).run()


def run_alone(program: Generator):
    """Run one program through a one-member pool, log its warnings once
    and return what it returns."""
    stats = PamStats()
    try:
        (outcome,), _ = run_lockstep([program], stats)
    finally:
        stats.log()
    return outcome


def _await(request: PamRequest) -> Generator:
    return (yield request)


def pam_solve(a_theta: SymTensor, config: PamConfig,
              rng: np.random.Generator | None = None) -> PamResult:
    """Run cyclic PAM sweeps until the best-block value stalls.

    Forms the dense surrogate a_theta - alpha * E once; the block count
    must be even, since E needs even order. Each sweep shares suffix
    contractions across its slots, takes h_t from the last slot's partial
    and every block value from one gather. Stops when the best block's
    homogeneous value changes by less than config.eps between sweeps, or
    after max_iter sweeps. rng, when given, overrides config.seed for
    random inits. A shift below the Frobenius norm, and sweeps whose best
    block value exceeds the multilinear value by more than
    DIAGONAL_GAP_SLACK, are each reported in one warning. This is a
    one-member run of :func:`run_lockstep`.
    """
    _check_type("a_theta", a_theta, SymTensor)
    return run_alone(_await(PamRequest(a_theta, config, rng)))


def _kkt_residual(surrogate: SymTensor, blocks: np.ndarray,
                  h_t: float) -> float:
    """Norm of the stacked first-order residuals c_j - h * x_j, which vanish
    exactly at a stationary point (every block multiplier equals h)."""
    total = 0.0
    for j in range(len(blocks)):
        others = [blocks[i] for i in range(len(blocks)) if i != j]
        r = surrogate.multilinear_partial(others, j) - h_t * blocks[j]
        total += float(np.dot(r, r))
    return math.sqrt(total)


def write_history_csv(history: Sequence[tuple[int, float, float, float]],
                      path) -> None:
    """Write per-sweep rows as CSV with header iter,h_t,h_v,step_norm."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "h_t", "h_v", "step_norm"])
        for k, h_t, h_v, step in history:
            writer.writerow([k, f"{h_t:.17g}", f"{h_v:.17g}",
                             f"{step:.17g}"])


def kl_exponent(d: int, n: int) -> tuple[float, float]:
    """Lojasiewicz exponent data for the d-block surrogate on R^n spheres.

    Returns (tau, rate) with tau = 1 / (d * (3d - 3)^(dn - 1)) and
    rate = tau / (1 - 2 tau), the power-law decay exponent of the iterate
    error. Requires d >= 2 and n >= 2; tau < 1/2 always holds there. A
    denominator past the float range gives the exact quotient: a subnormal
    tau, or 0.0 as at (20, 20).
    """
    _check_count("d", d, DomainError, 2)
    _check_count("n", n, DomainError, 2)
    # Python ints: (3d - 3)**(dn - 1) overflows an np.int64 at (6, 4)
    d, n = int(d), int(n)
    big = d * (3 * d - 3) ** (d * n - 1)
    try:
        tau = 1.0 / big
    except OverflowError:  # int / int divides exactly
        tau = 1 / big
    return tau, tau / (1.0 - 2.0 * tau)
