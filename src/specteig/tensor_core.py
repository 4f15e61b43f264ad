"""Symmetric tensors stored as dense arrays, the one representation of
every operator: a numerator, a denominator and each shifted combination
:func:`axpy` forms of them.

A symmetric tensor of order m on R^n is its dense n**m array. Its entries
are determined by their values on nondecreasing index tuples (canonical
classes), and one cached table per shape lists those classes as an (m, C)
array, with their flat positions and their permutation counts. A map of
class values becomes the dense array by one pass over the flat positions,
each copying the entry at its sorted multi-index; everything else is read
from the array through the table. Every contraction that leaves slots free
(multilinear forms, their partials, the slot-gradient) runs through one
kernel on the array: repeated matrix-vector products over the trailing
axis. The sweeps of the PAM pool run the same products stacked over a
(T, n**m) array of such tensors, in the same order for every row, so a row
rounds exactly as the kernel does on its own tensor. The homogeneous form
and the Frobenius norm run over the nonzero classes, with their
permutation counts as weights: C(n+m-1, m) terms instead of n**m, the
form's products taken over the table's leading axis.

The two structured denominators are tensors too: :class:`ZIdentity` and
:class:`HDiagonal` hold the cached :func:`identity_tensor` and
:func:`diagonal_tensor` arrays and override only their homogeneous form
and slot-gradient, with closed forms.

Dense storage bounds the size: a shape with more than
:data:`MAX_DENSE_ENTRIES` entries raises :class:`ConfigError` before
anything is allocated.

Indices are 1-based in files and public entry points, 0-based internally.
All objects here are immutable after construction.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ArityError,
    ConfigError,
    DimError,
    DuplicateEntryError,
    NumericalError,
    ParseError,
)

__all__ = [
    "MAX_DENSE_ENTRIES",
    "SymTensor",
    "ZIdentity",
    "HDiagonal",
    "axpy",
    "frobenius_inner",
    "identity_tensor",
    "diagonal_tensor",
    "load_tensor",
]

#: Largest n**m a tensor may have: 2**24 float64 entries are
#: 128 MiB of dense storage.
MAX_DENSE_ENTRIES = 2 ** 24


def _check_shape(order: int, dim: int) -> None:
    if order < 1:
        raise ArityError(f"order must be >= 1, got {order}")
    if dim < 1:
        raise DimError(f"dim must be >= 1, got {dim}")
    if dim ** order > MAX_DENSE_ENTRIES:
        raise ConfigError(f"order {order} on R^{dim} has {dim}**{order} "
                          f"entries, above the dense limit "
                          f"{MAX_DENSE_ENTRIES}")


def _check_vector(x: np.ndarray, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise DimError(f"expected a vector of length {dim}, got shape {x.shape}")
    return x


def _contract(dense: np.ndarray, blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Contract the trailing len(blocks) slots of a dense symmetric array,
    the last block on the last slot; returns the flattened remainder."""
    out = dense.reshape(-1)
    for b in reversed(blocks):
        out = out.reshape(-1, b.shape[0]) @ b
    return out if len(blocks) else out.copy()


class _SweepPlan:
    """The contractions of one sweep over a stack of tensors, with their
    buffers allocated once.

    stack is (T, n**d), row t the flattened dense array of an order-d
    symmetric tensor, and blocks is (T, d, n); both are kept as views, so
    a plan serves every sweep over the same arrays. :meth:`partial` (j)
    returns the (T, n) array whose row t contracts tensor t with
    blocks[t, i] on every slot i != j. Each row takes the matrix-vector
    products of :func:`_contract` in its order, so it equals
    ``_contract(stack[t], [blocks[t, i] for i != j])`` bit for bit. A sweep
    asks for slots 0, ..., d - 1 in order: slot 0 builds the suffixes over
    slots d-1, ..., 1 from the blocks as they are then, and slot j
    contracts its suffix with slots j-1, ..., 0 when it is reached, so the
    caller may overwrite blocks[:, j] once its partial is out. That is
    d(d+1)/2 - 1 stacked products for d slots.
    """

    __slots__ = ("_steps", "_mul", "_partials", "_order_one", "buffers")

    def __init__(self, stack: np.ndarray, blocks: np.ndarray):
        t, d, n = blocks.shape
        if stack.shape != (t, n ** d):
            raise DimError(f"expected a ({t}, {n ** d}) stack for blocks "
                           f"of shape {blocks.shape}, got {stack.shape}")
        cols = [blocks[:, k, :, None] for k in range(d)]
        outs = []

        def chain(src, slots):
            steps = []
            for k in slots:
                out = np.empty((t, src.shape[1] // n))
                outs.append(out)
                steps.append((src.reshape(t, -1, n), cols[k],
                              out.reshape(t, -1, 1)))
                src = out
            return steps, src

        suffix_steps, partial0 = chain(stack, range(d - 1, 0, -1))
        suffix = [stack] + [out.reshape(t, -1) for *_, out in suffix_steps]
        steps = [suffix_steps]
        self._partials = [partial0 if d > 1 else np.empty((t, n))]
        # at order 1 the partial is the tensor itself, copied out
        self._order_one = [stack] if d == 1 else []
        for j in range(1, d):
            slot_steps, out = chain(suffix[d - 1 - j], range(j - 1, -1, -1))
            steps.append(slot_steps)
            self._partials.append(out)
        # the arrays the plan allocated; a head allocates none
        self.buffers = outs + self._partials[:1] if d == 1 else outs
        self._bind(steps, t)

    def _bind(self, steps: list, t: int) -> None:
        """Run the first t rows of the stacked steps; one row runs them as
        np.dot on 2-D views, the same gemv as matmul but cheaper to call."""
        self._mul = np.dot if t == 1 else np.matmul
        self._steps = [[(src[0], col[0, :, 0], dst[0, :, 0]) if t == 1
                        else (src[:t], col[:t], dst[:t])
                        for src, col, dst in s] for s in steps]

    def partial(self, j: int) -> np.ndarray:
        """Slot j's partials, in a buffer the next sweep overwrites."""
        for src, col, dst in self._steps[j]:
            self._mul(src, col, dst)
        for src in self._order_one:
            np.copyto(self._partials[0], src)
        return self._partials[j]

    def partial_buffer(self, j: int) -> np.ndarray:
        """The buffer :meth:`partial` (j) fills, without filling it."""
        return self._partials[j]

    def head(self, t: int) -> "_SweepPlan":
        """The plan of the first t of this plan's T > 1 tensors, on views
        of its buffers; each row rounds as it does here."""
        plan = object.__new__(_SweepPlan)
        plan._bind(self._steps, t)
        plan._partials = [p[:t] for p in self._partials]
        plan._order_one = [src[:t] for src in self._order_one]
        return plan


def _multiplicities(classes: np.ndarray) -> np.ndarray:
    """Permutation count of each sorted index column of an (m, C) table."""
    run = np.ones(classes.shape[1])
    repeats = np.ones(classes.shape[1])
    for j in range(1, classes.shape[0]):
        run = np.where(classes[j] == classes[j - 1], run + 1.0, 1.0)
        repeats *= run
    return math.factorial(classes.shape[0]) / repeats


def _sorted_positions(order: int, dim: int):
    """Every flat position of the shape, 2**16 at a time, as (pos, rows,
    first): rows is each multi-index sorted, as an (order, k) array, and
    first its flat position. A sorted multi-index is the first of its
    permutations in flat (lexicographic) order, so first <= pos."""
    shape, size = (dim,) * order, dim ** order
    for start in range(0, size, 2 ** 16):
        pos = np.arange(start, min(start + 2 ** 16, size))
        rows = np.sort(np.unravel_index(pos, shape), axis=0)
        yield pos, rows, np.ravel_multi_index(tuple(rows), shape)


@lru_cache(maxsize=None)
def _class_table(order: int, dim: int) -> tuple[np.ndarray, ...]:
    """The shape's nondecreasing index tuples, in lexicographic order, as
    the columns of an (order, C) table; their flat positions; their
    permutation counts. A class is a position that is its own first."""
    classes = np.empty((order, math.comb(dim + order - 1, order)),
                       dtype=np.intp)
    flat = np.empty(classes.shape[1], dtype=np.intp)
    count = 0
    for pos, rows, first in _sorted_positions(order, dim):
        new = first == pos
        end = count + np.count_nonzero(new)
        flat[count:end], classes[:, count:end] = pos[new], rows[:, new]
        count = end
    table = (classes, flat, _multiplicities(classes))
    for arr in table:
        arr.flags.writeable = False
    return table


def _dense_from_classes(order: int, dim: int, classes: np.ndarray,
                        values: np.ndarray) -> np.ndarray:
    """Dense array holding each value at every permutation of its distinct
    sorted index column of an (order, k) table; zero elsewhere. The values
    go to their sorted positions, and every position then copies the entry
    at its first."""
    out = np.zeros(dim ** order)
    out[np.ravel_multi_index(tuple(classes), (dim,) * order)] = values
    for pos, _, first in _sorted_positions(order, dim):
        out[pos] = out[first]
    return out.reshape((dim,) * order)


def _nonzero_classes(values: np.ndarray, counts: np.ndarray) -> tuple:
    """The mask of the nonzero class values of a table, their weights
    counts * values and the Frobenius norm sqrt(sum weights * values)
    summed over them alone (a zero term would regroup the sum)."""
    nonzero = values != 0.0
    values = values[nonzero]
    weights = counts[nonzero] * values
    return nonzero, weights, float(np.sqrt(np.dot(weights, values)))


def _form_values(xs: np.ndarray, classes: np.ndarray,
                 weights: np.ndarray) -> np.ndarray:
    """The form of (m, C) index classes with weights at each row of xs: the
    slot products of one take, slot 0 first, into a column-major (N, C)
    buffer like the pool's (C order would take another gemv kernel)."""
    prods = np.empty((classes.shape[1], xs.shape[0])).T
    np.multiply.reduce(xs.take(classes, axis=1), axis=1, out=prods)
    return prods @ weights


class SymTensor:
    """Order-m symmetric tensor on R^n: a dense array, with its nonzero
    canonical classes, their weights and its Frobenius norm read from it
    through the shape's class table."""

    __slots__ = ("order", "dim", "dense", "_canon_idx", "_canon_weight",
                 "_fro")

    def __init__(self, order: int, dim: int,
                 canonical: Mapping[tuple[int, ...], float]):
        """Build from a map of 0-based nondecreasing index tuples to values.

        A class mapped to 0.0 is not listed in :attr:`canonical`. Most
        callers should use :meth:`from_entries` (1-based indices) or
        :func:`load_tensor` instead.
        """
        _check_shape(order, dim)
        keys, values = [], []
        for idx, val in canonical.items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != order:
                raise ArityError(
                    f"index {idx} has {len(idx)} entries, expected {order}")
            if any(i < 0 or i >= dim for i in idx):
                raise IndexError(f"index {tuple(i + 1 for i in idx)} out of "
                                 f"range 1..{dim}")
            if tuple(sorted(idx)) != idx:
                raise ValueError(f"canonical index {idx} is not sorted")
            val = float(val)
            if not math.isfinite(val):
                raise NumericalError(f"non-finite entry at index {idx}")
            keys.append(idx)
            values.append(val)
        classes = np.array(keys, dtype=np.intp).reshape(-1, order).T
        self._set(_dense_from_classes(order, dim, classes, np.array(values)))

    @classmethod
    def from_entries(cls, order: int, dim: int,
                     entries: Iterable[tuple[Sequence[int], float]] |
                     Mapping[Sequence[int], float]) -> "SymTensor":
        """Build from (index, value) pairs with 1-based, unordered indices.

        Each index tuple is sorted to its canonical class. Two entries that
        land on the same class raise :class:`DuplicateEntryError`; indices
        outside 1..dim raise :class:`IndexError`, and tuples of another
        length than order :class:`ArityError`.
        """
        if isinstance(entries, Mapping):
            entries = entries.items()
        canon: dict[tuple[int, ...], float] = {}
        for idx, val in entries:
            key = tuple(sorted(int(i) - 1 for i in idx))
            if key in canon:
                raise DuplicateEntryError(
                    f"duplicate entry for index class {tuple(i + 1 for i in key)}")
            canon[key] = val
        return cls(order, dim, canon)

    @classmethod
    def _from_dense(cls, dense: np.ndarray) -> "SymTensor":
        """Wrap a symmetric dense array."""
        self = cls.__new__(cls)
        self._set(dense)
        return self

    def _share(self, other: "SymTensor") -> None:
        """Take another tensor's array and every field read from it."""
        for name in SymTensor.__slots__:
            setattr(self, name, getattr(other, name))

    def _set(self, dense: np.ndarray) -> None:
        classes, flat, counts = _class_table(dense.ndim, dense.shape[0])
        nonzero, self._canon_weight, self._fro = _nonzero_classes(
            dense.take(flat), counts)
        self._canon_idx = np.ascontiguousarray(classes[:, nonzero])
        dense.flags.writeable = False
        self.order = dense.ndim
        self.dim = dense.shape[0]
        self.dense = dense

    @property
    def canonical(self) -> Mapping[tuple[int, ...], float]:
        """The 0-based map of the nonzero canonical entries (a fresh
        dict)."""
        return dict(zip(map(tuple, self._canon_idx.T.tolist()),
                        self.dense[tuple(self._canon_idx)].tolist()))

    def entry(self, *indices: int) -> float:
        """Entry at a 1-based index tuple (0.0 if the class is absent)."""
        if len(indices) != self.order:
            raise ArityError(
                f"expected {self.order} indices, got {len(indices)}")
        if any(i < 1 or i > self.dim for i in indices):
            raise IndexError(f"index {indices} out of range 1..{self.dim}")
        return float(self.dense[tuple(i - 1 for i in indices)])

    def apply_full(self, x: np.ndarray) -> float:
        """Homogeneous form: the tensor contracted with x on every slot,
        each class's product taken over the leading axis of the gather."""
        x = _check_vector(x, self.dim)
        return float(np.dot(self._canon_weight,
                            np.multiply.reduce(x[self._canon_idx], axis=0)))

    def apply_full_many(self, xs: np.ndarray) -> np.ndarray:
        """Homogeneous form at every row of an (N, n) array."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise DimError(f"expected an (N, {self.dim}) array, got shape "
                           f"{xs.shape}")
        return _form_values(xs, self._canon_idx, self._canon_weight)

    def apply_gradient(self, x: np.ndarray) -> np.ndarray:
        """Contraction on all slots but one; (1/m) of the gradient of
        :meth:`apply_full`."""
        x = _check_vector(x, self.dim)
        return _contract(self.dense, [x] * (self.order - 1))

    def multilinear_apply(self, blocks: Sequence[np.ndarray]) -> float:
        """Multilinear form with one vector per slot."""
        if len(blocks) != self.order:
            raise ArityError(
                f"expected {self.order} blocks, got {len(blocks)}")
        blocks = [_check_vector(b, self.dim) for b in blocks]
        return float(_contract(self.dense, blocks)[0])

    def multilinear_partial(self, blocks: Sequence[np.ndarray],
                            free_slot: int) -> np.ndarray:
        """Contract all slots except ``free_slot`` with the given blocks.

        By symmetry the result does not depend on which slot is left free;
        the argument is validated for interface uniformity.
        """
        if len(blocks) != self.order - 1:
            raise ArityError(
                f"expected {self.order - 1} blocks, got {len(blocks)}")
        if not 0 <= free_slot < self.order:
            raise IndexError(f"free_slot {free_slot} out of range "
                             f"0..{self.order - 1}")
        blocks = [_check_vector(b, self.dim) for b in blocks]
        return _contract(self.dense, blocks)

    def frobenius_norm(self) -> float:
        """Frobenius norm over all entries, multiplicities included."""
        return self._fro

    def scaled(self, factor: float) -> "SymTensor":
        """New tensor with every entry multiplied by ``factor``."""
        return SymTensor._from_dense(factor * self.dense)

    def to_symtensor(self) -> "SymTensor":
        # the tensor itself, for its one caller: perfbench/workloads.py
        return self

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(order={self.order}, dim={self.dim}, "
                f"nnz={self._canon_weight.size})")


def frobenius_inner(a: SymTensor, b: SymTensor) -> float:
    """Frobenius inner product of two symmetric tensors of the same shape."""
    if a.order != b.order or a.dim != b.dim:
        raise DimError(f"shape mismatch: ({a.order},{a.dim}) vs "
                       f"({b.order},{b.dim})")
    return float(np.vdot(a.dense, b.dense))


def _double_factorial(k: int) -> int:
    return math.prod(range(k, 0, -2)) if k > 0 else 1


@lru_cache(maxsize=None)
def identity_tensor(order: int, dim: int) -> SymTensor:
    """Symmetric tensor whose homogeneous form is the order-th power of the
    Euclidean norm.

    The canonical entry at a class where every index appears an even number
    of times k_i is prod_i (k_i - 1)!! / (order - 1)!!; all other entries
    vanish. Its multilinear form is the symmetric polarization of |x|^order:
    the average over all perfect pairings of the slots of the product of
    paired inner products. Even order required.
    """
    if order % 2 != 0:
        raise ArityError(f"identity tensor needs even order, got {order}")
    _check_shape(order, dim)
    denom = _double_factorial(order - 1)
    canon: dict[tuple[int, ...], float] = {}
    for comb in combinations_with_replacement(range(dim), order // 2):
        idx = tuple(sorted(i for i in comb for _ in range(2)))
        counts = [idx.count(i) for i in set(idx)]
        val = math.prod(_double_factorial(k - 1) for k in counts) / denom
        canon[idx] = val
    return SymTensor(order, dim, canon)


@lru_cache(maxsize=None)
def diagonal_tensor(order: int, dim: int) -> SymTensor:
    """Symmetric tensor with ones on the diagonal and zeros elsewhere."""
    return SymTensor(order, dim, {(i,) * order: 1.0 for i in range(dim)})


class ZIdentity(SymTensor):
    """Unit-sphere normalization: the cached :func:`identity_tensor`, with
    its homogeneous form |x|^m and slot-gradient |x|^(m-2) x in closed
    form."""

    __slots__ = ()

    def __init__(self, order: int, dim: int):
        self._share(identity_tensor(order, dim))

    def apply_full(self, x: np.ndarray) -> float:
        x = _check_vector(x, self.dim)
        return float(np.dot(x, x) ** (self.order // 2))

    def apply_gradient(self, x: np.ndarray) -> np.ndarray:
        x = _check_vector(x, self.dim)
        nsq = float(np.dot(x, x))
        return nsq ** ((self.order - 2) // 2) * x if self.order > 2 else x.copy()


class HDiagonal(SymTensor):
    """Componentwise-power normalization: the cached
    :func:`diagonal_tensor`, with its homogeneous form sum_i x_i^m and
    slot-gradient with entries x_i^(m-1) in closed form."""

    __slots__ = ()

    def __init__(self, order: int, dim: int):
        self._share(diagonal_tensor(order, dim))

    def apply_full(self, x: np.ndarray) -> float:
        x = _check_vector(x, self.dim)
        return float(np.sum(x ** self.order))

    def apply_gradient(self, x: np.ndarray) -> np.ndarray:
        x = _check_vector(x, self.dim)
        return x ** (self.order - 1)


def axpy(a: SymTensor, b: SymTensor, theta: float) -> SymTensor:
    """The symmetric tensor A - theta * B, formed on the dense arrays."""
    if a.order != b.order or a.dim != b.dim:
        raise DimError(f"shape mismatch: ({a.order},{a.dim}) vs "
                       f"({b.order},{b.dim})")
    return SymTensor._from_dense(a.dense - theta * b.dense)


def load_tensor(path) -> SymTensor:
    """Read a symmetric tensor from the plain text format.

    Line 1: ``order m``; line 2: ``dim n``; every further non-blank line is
    ``i1 ... im value`` with 1-based indices. ``#`` starts a comment.
    """
    order: int | None = None
    dim: int | None = None
    entries: list[tuple[tuple[int, ...], float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if order is None:
                if len(parts) != 2 or parts[0] != "order":
                    raise ParseError(f"{path}:{lineno}: expected 'order m'")
                try:
                    order = int(parts[1])
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: bad order {parts[1]!r}")
                continue
            if dim is None:
                if len(parts) != 2 or parts[0] != "dim":
                    raise ParseError(f"{path}:{lineno}: expected 'dim n'")
                try:
                    dim = int(parts[1])
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: bad dim {parts[1]!r}")
                continue
            if len(parts) != order + 1:
                raise ParseError(f"{path}:{lineno}: expected {order} indices "
                                 f"and a value, got {len(parts)} fields")
            try:
                idx = tuple(int(p) for p in parts[:-1])
                val = float(parts[-1])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: malformed entry {line!r}")
            entries.append((idx, val))
    if order is None or dim is None:
        raise ParseError(f"{path}: missing order/dim header")
    try:
        return SymTensor.from_entries(order, dim, entries)
    except (ArityError, IndexError, DuplicateEntryError, DimError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
