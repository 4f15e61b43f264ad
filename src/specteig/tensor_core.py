"""Symmetric tensors stored as dense arrays, the one representation of
every operator: a numerator, a denominator and each shifted combination
:func:`axpy` forms of them.

A symmetric tensor of order m on R^n is its dense n**m array. Its entries
are determined by their values on nondecreasing index tuples (canonical
classes), and one stored table per shape lists those classes as an (m, C)
array, with their flat positions, permutation counts and the class of each
flat position (the position index). Every tensor built from class values is
one length-C vector laid out through that index by chunked takes, and takes
its weights and Frobenius norm from that vector; a tensor that starts dense
reads its class values from the array through the table. Every contraction
that leaves slots free (multilinear forms, their partials, the
slot-gradient) runs through one kernel on the array, :func:`_contract`:
repeated vector-matrix products over the leading slot, which BLAS streams. The
block sweep of :mod:`specteig.pam` runs the same products stacked over a
(T, n**m) array, in the order of :func:`_contract` for every row, so a row
rounds exactly as the kernel does on its own tensor. The homogeneous
form runs over the whole table, bound as it is by every tensor and the
pool, with permutation counts as weights: C(n+m-1, m) terms, not n**m. Only
the Frobenius norm and the canonical map skip classes whose value is zero.

The two structured denominators are tensors too: :class:`ZIdentity` and
:class:`HDiagonal` hold the stored :func:`identity_tensor` and
:func:`diagonal_tensor` arrays and override only their homogeneous form
and slot-gradient, with closed forms.

State that depends on a shape alone (class tables, identity and diagonal
tensors, cubic plans, shift tensors, idle sweeps) lives in one shape store
by (kind, *shape): at most _STORE_BUDGET bytes, the least recently used
dropped first, an entry above _STORE_ENTRY bytes built per call. A user
takes a sweep out and keeps it when it returns, so users that run at once
never share one. Dropping an entry drops only the store's reference: a
tensor keeps its class table. Dense storage bounds the size: a shape with
more than :data:`MAX_DENSE_ENTRIES` entries raises :class:`ConfigError`
before anything is allocated.

Indices are 1-based in files and public entry points, 0-based internally.
All objects here are immutable after construction.
"""

from __future__ import annotations

import math
import numbers
import operator
import threading
from functools import partial, wraps
from itertools import chain, combinations_with_replacement
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ArityError,
    ConfigError,
    DenominatorError,
    DimError,
    DomainError,
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


def _check_count(name: str, value, error: type = ConfigError,
                 least: int = 1) -> None:
    """Raise error unless value is an integer >= least: an order, a
    dimension, an iteration limit or a count, or with least 0 a seed."""
    # an int skips the ABC isinstance, about 0.6 us: pools check shapes
    if type(value) is not int and not isinstance(value, numbers.Integral) \
            or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")


def _check_real(name: str, value, error: type = ConfigError,
                positive: bool = False, signed: bool = False) -> None:
    """Raise error unless value is a finite real: of any sign if signed,
    else > 0 if positive, else >= 0."""
    # a float skips the ABC isinstance, as in _check_count: pools seat theta
    if not ((type(value) is float or isinstance(value, numbers.Real))
            and -math.inf < value < math.inf
            and (signed or (value > 0 if positive else value >= 0))):
        sign = "real" if signed else "positive" if positive \
            else "nonnegative"
        raise error(f"{name} must be {sign} and finite, got {value!r}")


def _real_array(name: str, value, error: type = DomainError) -> np.ndarray:
    """value as a float array, as np.asarray(value, dtype=float) gives it:
    a complex array raises error instead of losing its imaginary part, and
    so does a value that cast rejects."""
    value = np.asarray(value)
    if value.dtype.kind == "c":
        raise error(f"{name} must be real, got a complex array")
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise error(f"{name} is not an array of reals: {exc}") from exc


def _check_type(name: str, value, cls: type) -> None:
    """Raise ConfigError unless value is an instance of cls."""
    if not isinstance(value, cls):
        raise ConfigError(f"{name} must be a {cls.__name__}, got "
                          f"{type(value).__name__}")


def _check_same_shape(a: "SymTensor", b: "SymTensor",
                      error: type = DimError) -> None:
    """Raise ConfigError unless both are tensors, error unless of one shape."""
    _check_type("a", a, SymTensor)
    _check_type("b", b, SymTensor)
    if a.order != b.order or a.dim != b.dim:
        raise error(f"shape mismatch: ({a.order},{a.dim}) vs "
                    f"({b.order},{b.dim})")


def _check_shape(order: int, dim: int) -> None:
    _check_count("order", order, ArityError)
    _check_count("dim", dim, DimError)
    if dim ** order > MAX_DENSE_ENTRIES:
        raise ConfigError(f"order {order} on R^{dim} has {dim}**{order} "
                          f"entries, above the dense limit "
                          f"{MAX_DENSE_ENTRIES}")


def _check_vector(x: np.ndarray, dim: int) -> np.ndarray:
    x = _real_array("x", x)
    if x.shape != (dim,):
        raise DimError(f"expected a vector of length {dim}, got shape {x.shape}")
    return x


def _check_point(x: np.ndarray, dim: int) -> np.ndarray:
    """_check_vector for a point that must also be finite."""
    x = _check_vector(x, dim)
    if not np.isfinite(x).all():
        raise DomainError("expected a finite vector")
    return x


def _unit_point(x: np.ndarray, dim: int) -> np.ndarray:
    """_check_point over its norm; the zero vector raises DenominatorError."""
    x = _check_point(x, dim)
    nx = math.sqrt(x.dot(x))
    if nx == 0.0:
        raise DenominatorError("cannot normalize the zero vector")
    return x / nx


def _contract(dense: np.ndarray, blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Contract the leading len(blocks) slots of a dense symmetric array,
    the last block on the first slot; returns the flattened remainder."""
    out = dense.reshape(-1)
    for b in reversed(blocks):
        out = b.dot(out.reshape(b.shape[0], -1))
    return out if len(blocks) else out.copy()


#: Largest entry the shape store keeps, in bytes: the four-row sweeps of
#: order 4 on R^3 and order 6 on R^4 (55 KiB and 0.4 MiB), study 5.1's
#: 100-row sweep (1.6 MiB; 5 ms to build against a 30 ms call), and the
#: boundary sweep and class table of cubics on R^30 (1.2 and 0.3 MiB), but
#: not study 5.2's 100-row sweep (10 MiB; 9 ms against 0.4 s).
_STORE_ENTRY = 2 << 20

#: Most bytes the store holds. The boundary workload's entries take 2.6 MiB
#: (11 lift shapes, each with its sweep, class table, plan and shift
#: tensor), `specteig examples all`'s 1.4 MiB, eigen-h6's 0.5 MiB.
_STORE_BUDGET = 6 << 20

#: The shape store, least recently used first, each entry with its bytes.
_STORE: dict[tuple, tuple[object, int]] = {}
_STORE_LOCK = threading.Lock()


def _take(key: tuple):
    """The store's entry of key, taken out of it, or None."""
    with _STORE_LOCK:
        return _STORE.pop(key, (None,))[0]


def _keep(key: tuple, entry) -> None:
    """Store entry as the newest of key unless its bytes (its nbytes, its
    arrays', or a tensor's dense array and weights) pass _STORE_ENTRY, and
    drop the oldest entries until the store holds _STORE_BUDGET at most."""
    size = entry.nbytes if hasattr(entry, "nbytes") else sum(
        a.nbytes for a in (entry if isinstance(entry, tuple)
                           else (entry.dense, entry._weights)))
    if size > _STORE_ENTRY:
        return
    with _STORE_LOCK:
        _STORE.pop(key, None)
        _STORE[key] = entry, size
        total = sum(nbytes for _, nbytes in _STORE.values())
        while total > _STORE_BUDGET:
            total -= _STORE.pop(next(iter(_STORE)))[1]


def _per_shape(build, checked: bool = False):
    """build(*shape) read through the store under (its name, *shape); on a
    miss, built outside the lock (it may read other entries) and kept. A
    checked (order, dim) is checked first: keys hold 2.0 equal to 2."""
    @wraps(build)
    def stored(*shape):
        if checked:
            _check_shape(*shape)
        key = (build.__name__, *shape)
        with _STORE_LOCK:
            if key in _STORE:
                _STORE[key] = _STORE.pop(key)
                return _STORE[key][0]
        entry = build(*shape)
        _keep(key, entry)
        return entry
    return stored


def _multiplicities(classes: np.ndarray) -> np.ndarray:
    """Permutation count m! / prod_i k_i! of each sorted index column of an
    (m, C) table, k_i its run lengths: counted exactly in int64 (no step
    passes m n**m), returned as floats, which hold every count exactly and
    multiply float values without a cast."""
    run = np.ones(classes.shape[1], dtype=np.int64)
    mult = np.ones(classes.shape[1], dtype=np.int64)
    for j in range(1, classes.shape[0]):
        run = np.where(classes[j] == classes[j - 1], run + 1, 1)
        mult = mult * (j + 1) // run
    return mult.astype(float)


@_per_shape
def _class_table(order: int, dim: int) -> tuple[np.ndarray, ...]:
    """The shape's nondecreasing index tuples, in lexicographic order, as
    the columns of an (order, C) table; their flat positions; their
    permutation counts; the position index, each flat position's column,
    as int32. A sorted multi-index is the first of its permutations in flat
    order: a class is a position that is its own first."""
    shape, size = (dim,) * order, dim ** order
    classes = np.empty((order, math.comb(dim + order - 1, order)),
                       dtype=np.intp)
    flat = np.empty(classes.shape[1], dtype=np.intp)
    index = np.empty(size, dtype=np.int32)
    count = 0
    for start in range(0, size, 2 ** 16):
        pos = np.arange(start, min(start + 2 ** 16, size))
        rows = np.sort(np.unravel_index(pos, shape), axis=0)
        first = np.ravel_multi_index(tuple(rows), shape)
        new = first == pos
        end = count + np.count_nonzero(new)
        flat[count:end], classes[:, count:end] = pos[new], rows[:, new]
        index[pos[new]] = np.arange(count, end)
        index[pos] = index[first]
        count = end
    table = (classes, flat, _multiplicities(classes), index)
    for arr in table:
        arr.flags.writeable = False
    return table


#: Positions laid out per take by _class_layout: a 512 KiB index copy.
_LAYOUT_CHUNK = 2 ** 16


def _class_layout(order: int, dim: int, values: np.ndarray,
                  columns: np.ndarray | None = None) -> tuple:
    """Dense array of class values, the length-C vector of class values it
    was laid out from, and the shape's class table: values are C in table
    order, or each at every permutation of its (order, k) index column
    (distinct classes, zero elsewhere). The vector is laid out through the
    position index, one take per _LAYOUT_CHUNK positions."""
    table = _class_table(order, dim)
    index = table[3]
    shape = (dim,) * order
    if columns is not None:
        full = np.zeros(math.comb(dim + order - 1, order))
        full[index.take(np.ravel_multi_index(tuple(columns), shape))] = values
        values = full
    # take copies an int32 index to intp first: chunks bound that copy, and
    # the valid index needs no "raise" mode, which would buffer out too
    dense = np.empty(index.size)
    for start in range(0, index.size, _LAYOUT_CHUNK):
        end = start + _LAYOUT_CHUNK
        values.take(index[start:end], out=dense[start:end], mode="clip")
    return dense.reshape(shape), values, table


def _classes_from_entries(order: int, dim: int, indices: list, values: list,
                          listed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Class values and their (order, k) 0-based index columns, for
    SymTensor._from_classes, of (index, value) entries: 1-based indices in
    any order if listed, else 0-based sorted class keys, checked as arrays.
    A (k, order) index array and a float value array are used as they are.
    If a check fails, the entries are checked one by one, each index before
    its value, and the first bad one raises."""
    _check_shape(order, dim)
    try:
        rows = np.asarray(indices)
        vals = values if isinstance(values, np.ndarray) else np.fromiter(
            map(float, values), float, len(values))
    except (TypeError, ValueError):  # ragged indices, values float() rejects
        rows = np.empty(0)
    if rows.dtype.kind == "i" and rows.shape == (len(indices), order):
        rows = np.sort(rows - 1, axis=1) if listed else rows
        if (((rows >= 0) & (rows < dim)).all() and np.isfinite(vals).all()
                and (listed or (rows[:, 1:] >= rows[:, :-1]).all())):
            flat = np.sort(np.ravel_multi_index(tuple(rows.T), (dim,) * order))
            if (flat[1:] != flat[:-1]).all():  # no class twice
                return vals, rows.T
    keys = {}
    for idx, val in zip(indices, values):
        try:
            key = tuple(map(operator.index, idx))
        except TypeError:
            raise DomainError(f"index {idx!r} is not a tuple of integers")
        key = tuple(sorted(i - 1 for i in key)) if listed else key
        shown = tuple(i + 1 for i in key)
        if key in keys:
            raise DuplicateEntryError(
                f"duplicate entry for index class {shown}")
        if len(key) != order:
            raise ArityError(
                f"index {key} has {len(key)} entries, expected {order}")
        if any(i < 0 or i >= dim for i in key):
            raise IndexError(f"index {shown} out of range 1..{dim}")
        if list(key) != sorted(key):
            raise DomainError(f"canonical index {key} is not sorted")
        keys[key] = float(val)
        if not math.isfinite(keys[key]):
            raise NumericalError(f"non-finite entry at index {shown}")
    return (np.array(list(keys.values())),
            np.array(list(keys), dtype=np.intp).reshape(-1, order).T)


def _frobenius(values: np.ndarray, counts: np.ndarray) -> float:
    """sqrt(sum counts * values**2) over the nonzero class values alone
    (a zero term would regroup the sum): the Frobenius norm, taken again
    over values scaled by the largest only where the plain sum overflows."""
    nonzero = values != 0.0
    values, counts = values[nonzero], counts[nonzero]
    big = float(np.abs(values).max(initial=0.0))
    # 2**24 squares below 1e300 sum below 1.8e308; inf and nan stay plain
    if not 1e150 <= big < math.inf:
        return math.sqrt((counts * values).dot(values))
    with np.errstate(over="ignore"):
        norm = math.sqrt((counts * values).dot(values))
    return norm if norm < math.inf else \
        big * math.sqrt((counts * (values / big)).dot(values / big))


def _form_values(xs: np.ndarray, classes: np.ndarray,
                 weights: np.ndarray) -> np.ndarray:
    """The form of (m, C) index classes with weights at each row of xs:
    the slot products of each class, slot 0 first, from one take, in a
    column-major buffer like a block sweep's (C order would take another
    gemv kernel), times the weights."""
    prods = np.empty((classes.shape[1], xs.shape[0])).T
    np.multiply.reduce(xs.take(classes, axis=1), axis=1, out=prods)
    return prods @ weights


class SymTensor:
    """Order-m symmetric tensor on R^n: a dense array, the shape's class
    table, and each class's weight and the Frobenius norm read from it."""

    __slots__ = ("order", "dim", "dense", "_classes", "_weights", "_fro")

    def __init__(self, order: int, dim: int,
                 canonical: Mapping[tuple[int, ...], float]):
        """Build from a map of 0-based nondecreasing index tuples to values.

        A class mapped to 0.0 is not listed in :attr:`canonical`. Most
        callers should use :meth:`from_entries` (1-based indices) or
        :func:`load_tensor` instead.
        """
        self._set(*_class_layout(order, dim, *_classes_from_entries(
            order, dim, list(canonical), list(canonical.values()), False)))

    @classmethod
    def from_entries(cls, order: int, dim: int,
                     entries: Iterable[tuple[Sequence[int], float]] |
                     Mapping[Sequence[int], float]) -> "SymTensor":
        """Build from (index, value) pairs with 1-based, unordered indices.

        Each index tuple is sorted to its canonical class. The first bad
        entry raises: :class:`DuplicateEntryError` for a repeated class,
        :class:`IndexError` outside 1..dim, :class:`ArityError` for another
        length than order, :class:`DomainError` for a non-integer index.
        """
        if isinstance(entries, Mapping):
            entries = entries.items()
        pairs = [(idx, val) for idx, val in entries]
        indices, values = zip(*pairs) if pairs else ((), ())
        return cls._from_classes(order, dim, *_classes_from_entries(
            order, dim, indices, values, True))

    @classmethod
    def _from_dense(cls, dense: np.ndarray) -> "SymTensor":
        """Wrap a symmetric dense array; its class values are read from it."""
        self = cls.__new__(cls)
        self._set(dense)
        return self

    @classmethod
    def _from_classes(cls, order: int, dim: int, values: np.ndarray,
                      columns: np.ndarray | None = None) -> "SymTensor":
        """Lay out finite class values as :func:`_class_layout` does; the
        weights and the Frobenius norm are taken from the values, not read
        back from the array, and equal those _from_dense reads."""
        self = cls.__new__(cls)
        self._set(*_class_layout(order, dim, values, columns))
        return self

    def _share(self, other: "SymTensor") -> None:
        """Take another tensor's array and every field read from it."""
        for name in SymTensor.__slots__:
            setattr(self, name, getattr(other, name))

    def _set(self, dense: np.ndarray, values: np.ndarray | None = None,
             table: tuple | None = None) -> None:
        """Bind a symmetric dense array, its class values in table order and
        its shape's class table, read or looked up when not given."""
        self._classes, flat, counts = (
            table or _class_table(dense.ndim, len(dense)))[:3]
        if values is None:
            values = dense.take(flat)
        self._weights = counts * values
        self._fro = _frobenius(values, counts)
        dense.flags.writeable = False
        self.order = dense.ndim
        self.dim = dense.shape[0]
        self.dense = dense

    @property
    def canonical(self) -> Mapping[tuple[int, ...], float]:
        """The 0-based map of the nonzero canonical entries, a fresh dict."""
        classes = self._classes[:, self._weights != 0.0]
        return dict(zip(map(tuple, classes.T.tolist()),
                        self.dense[tuple(classes)].tolist()))

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
        return float(self._weights.dot(
            np.multiply.reduce(x[self._classes], axis=0)))

    def apply_full_many(self, xs: np.ndarray) -> np.ndarray:
        """Homogeneous form at every row of an (N, n) array."""
        xs = _real_array("xs", xs)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise DimError(f"expected an (N, {self.dim}) array, got shape "
                           f"{xs.shape}")
        return _form_values(xs, self._classes, self._weights)

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
                f"nnz={np.count_nonzero(self._weights)})")


def frobenius_inner(a: SymTensor, b: SymTensor) -> float:
    """Frobenius inner product of two symmetric tensors of the same shape."""
    _check_same_shape(a, b)
    return float(np.vdot(a.dense, b.dense))


def _double_factorial(k: int) -> int:
    return math.prod(range(k, 0, -2)) if k > 0 else 1


@partial(_per_shape, checked=True)
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
    denom = _double_factorial(order - 1)
    canon: dict[tuple[int, ...], float] = {}
    for comb in combinations_with_replacement(range(dim), order // 2):
        idx = tuple(sorted(i for i in comb for _ in range(2)))
        counts = [idx.count(i) for i in set(idx)]
        val = math.prod(_double_factorial(k - 1) for k in counts) / denom
        canon[idx] = val
    return SymTensor(order, dim, canon)


@partial(_per_shape, checked=True)
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
        return float(x.dot(x) ** (self.order // 2))

    def apply_gradient(self, x: np.ndarray) -> np.ndarray:
        x = _check_vector(x, self.dim)
        nsq = float(x.dot(x))
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
    _check_same_shape(a, b)
    _check_real("theta", theta, signed=True)
    return SymTensor._from_dense(a.dense - theta * b.dense)


#: The index tokens "0" to "255", each read to the int that int() reads
#: from it: a lookup costs a third of int(), and file parsing is most of a
#: study's set-up. A file with another token reads every index by int().
_INDEX_TOKENS = {str(i): i for i in range(256)}


def _raise_bad_line(path, lines: list[str]) -> None:
    """Walk the lines one by one, numbered from 1, and raise ParseError
    at the first bad one: a header, an entry's field count, an index or a
    value that does not convert, a value that is not finite, and at the
    end a missing header."""
    header: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        parts, at = line.split(), f"{path}:{lineno}:"
        if not parts:
            continue
        if len(header) < 2:
            word, n = (("order", "m"), ("dim", "n"))[len(header)]
            if len(parts) != 2 or parts[0] != word:
                raise ParseError(f"{at} expected '{word} {n}'")
            try:
                header.append(int(parts[1]))
            except ValueError:
                raise ParseError(f"{at} bad {word} {parts[1]!r}")
            continue
        if len(parts) != header[0] + 1:
            raise ParseError(f"{at} expected {header[0]} indices and a "
                             f"value, got {len(parts)} fields")
        try:
            list(map(int, parts[:-1]))
            value = float(parts[-1])
        except ValueError:
            raise ParseError(f"{at} malformed entry {line!r}")
        if not math.isfinite(value):
            raise ParseError(f"{at} non-finite value {parts[-1]!r}")
    if len(header) < 2:
        raise ParseError(f"{path}: missing order/dim header")


def load_tensor(path) -> SymTensor:
    """Read a symmetric tensor from the plain text format.

    Line 1: ``order m``; line 2: ``dim n``; every further non-blank line is
    ``i1 ... im value`` with 1-based indices. ``#`` starts a comment.
    Lines are numbered as iterating the file numbers them.

    The file is read at once and its lines split into fields in one pass,
    which checks the header and each entry's field count; then the index
    tokens are read in one call (through _INDEX_TOKENS, else by int()),
    and the values by float() in another. If any of that fails,
    :func:`_raise_bad_line` walks the lines again and the first bad one
    raises.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    try:
        (word, order), (dim_word, dim), *entries = [
            p for p in [raw.split("#", 1)[0].split() for raw in lines] if p]
        order, dim = int(order), int(dim)
        if word != "order" or dim_word != "dim" \
                or set(map(len, entries)) - {order + 1}:
            raise ValueError
        # an order below 1 has no index tokens: _check_shape rejects it
        m = max(order, 0)
        tokens = list(chain.from_iterable(entries))
        values = np.fromiter(map(float, tokens[m::m + 1]), float,
                             len(entries))
        del tokens[m::m + 1]
        try:
            rows = np.fromiter(map(_INDEX_TOKENS.__getitem__, tokens),
                               np.intp, len(tokens))
        except KeyError:  # an index beyond intp makes an object array,
            rows = np.array(list(map(int, tokens)))  # out of range
        if not np.isfinite(values).all():
            raise ValueError
    except ValueError:
        _raise_bad_line(path, lines)
        raise
    try:
        return SymTensor._from_classes(order, dim, *_classes_from_entries(
            order, dim, rows.reshape(len(entries), m), values, True))
    except (ArityError, IndexError, DuplicateEntryError, DimError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
