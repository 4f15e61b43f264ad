"""Contraction kernels checked against dense einsum-style oracles."""

import itertools
import math
import numbers
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specteig import (ArityError, ConfigError, DimError, DomainError,
                      DuplicateEntryError, HDiagonal, SymTensor, TaylorPoly,
                      ZIdentity, axpy, diagonal_tensor, frobenius_inner,
                      identity_tensor, load_tensor, random_cubic,
                      solve_boundary, tensor_core)
from specteig.errors import NumericalError, ParseError
from specteig.pam import _BlockSweep
from specteig.tensor_core import (_LAYOUT_CHUNK, _class_layout,
                                  _class_table, _contract, _double_factorial,
                                  _multiplicities)

from conftest import (dense_multilinear, dense_partial, fd_gradient,
                      permutation_count, random_symtensor,
                      reference_apply_full, reference_apply_full_many,
                      same_as_wrapped, to_dense)

A1 = SymTensor.from_entries(2, 2, [((1, 1), 1.0), ((2, 2), -2.0)])
A2 = SymTensor.from_entries(2, 2, [((1, 1), 2.0), ((2, 2), 4.0)])
PINNED_X = np.array([0.5916, -0.7461, -0.3045])


def tensors(max_order=4, max_dim=3):
    return st.tuples(st.integers(2, max_order), st.integers(2, max_dim),
                     st.integers(0, 10 ** 6)).map(
        lambda t: random_symtensor(t[0], t[1],
                                   np.random.default_rng(t[2])))


class TestFromEntries:
    def test_matrix_example(self):
        assert A1.entry(1, 1) == 1.0
        assert A1.entry(2, 2) == -2.0
        assert A1.entry(1, 2) == 0.0

    def test_empty_is_zero(self):
        z = SymTensor.from_entries(4, 3, [])
        x = np.array([0.3, -1.2, 0.5])
        assert z.apply_full(x) == 0.0
        assert np.all(z.apply_gradient(x) == 0.0)

    def test_duplicate_class_rejected(self):
        with pytest.raises(DuplicateEntryError):
            SymTensor.from_entries(2, 2, [((1, 1), 1.0), ((1, 1), 2.0)])
        # permuted copies of one class collide too
        with pytest.raises(DuplicateEntryError):
            SymTensor.from_entries(2, 2, [((1, 2), 1.0), ((2, 1), 2.0)])

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            SymTensor.from_entries(2, 2, [((1, 3), 1.0)])
        # the range check of the map constructor reports 1-based indices
        with pytest.raises(IndexError, match=r"\(0, 2\) out of range 1\.\.2"):
            SymTensor.from_entries(2, 2, {(2, 0): 1.0})

    def test_wrong_arity(self):
        with pytest.raises(ArityError):
            SymTensor.from_entries(3, 2, [((1, 1), 1.0)])

    @pytest.mark.parametrize("idx", [
        (1.5, 2), (1.0, 2), ("1", 2), (np.float64(2.0), 1), ("x", 1),
        (None, 1), 2, np.array([1.5, 2.0])])
    def test_index_must_be_integers(self, idx):
        # no component is truncated to an integer
        with pytest.raises(DomainError, match="not a tuple of integers"):
            SymTensor.from_entries(2, 2, [((1, 1), 1.0), (idx, 1.0)])
        if isinstance(idx, tuple):
            with pytest.raises(DomainError, match="not a tuple of integers"):
                SymTensor(2, 2, {(0, 0): 1.0, idx: 1.0})

    def test_numpy_integer_indices(self):
        t = SymTensor.from_entries(2, 3, [((np.int64(1), np.int32(3)), 2.0),
                                          (np.array([2, 2]), 1.0)])
        assert t.canonical == {(0, 2): 2.0, (1, 1): 1.0}
        assert SymTensor(2, 3, {(np.intp(0), np.uint8(2)): 2.0}) \
            .canonical == {(0, 2): 2.0}

    def test_map_key_errors(self):
        with pytest.raises(DomainError, match=r"canonical index \(1, 0\) is "
                                              r"not sorted"):
            SymTensor(2, 2, {(1, 0): 1.0})
        # reported 1-based, as the range check is
        with pytest.raises(NumericalError, match=r"non-finite entry at index "
                                                 r"\(1, 2\)$"):
            SymTensor(2, 2, {(0, 1): float("nan")})
        with pytest.raises(NumericalError, match=r"index \(1, 2\)$"):
            SymTensor.from_entries(2, 2, [((2, 1), float("inf"))])

    @pytest.mark.parametrize("order,dim,error", [
        ("a", 2, ArityError), (2.0, 2, ArityError), (None, 2, ArityError),
        (0, 2, ArityError), (2, "b", DimError), (2, 1.5, DimError),
        (2, 0, DimError)])
    def test_shape_must_be_positive_integers(self, order, dim, error):
        with pytest.raises(error):
            SymTensor(order, dim, {})

    def test_numpy_integer_shape(self):
        assert SymTensor(np.int64(2), np.intp(3), {}).dense.shape == (3, 3)


def reference_entries(order, dim, entries, listed=True):
    """The checks of from_entries (listed) and of the map constructor as
    two loops: the first sorts each index to its class and finds a repeated
    class, the second checks each class's length, range, order and value.
    Beyond that, an index component must be an integer, and a non-finite
    value is reported at its 1-based index."""
    canon = {}
    for idx, val in entries:
        if not all(isinstance(i, numbers.Integral) for i in idx):
            raise DomainError(f"index {idx!r} is not a tuple of integers")
        key = tuple(sorted(int(i) - 1 for i in idx)) if listed else \
            tuple(int(i) for i in idx)
        if key in canon:
            raise DuplicateEntryError(
                f"duplicate entry for index class {tuple(i + 1 for i in key)}")
        canon[key] = val
    for idx, val in canon.items():
        if len(idx) != order:
            raise ArityError(
                f"index {idx} has {len(idx)} entries, expected {order}")
        if any(i < 0 or i >= dim for i in idx):
            raise IndexError(f"index {tuple(i + 1 for i in idx)} out of "
                             f"range 1..{dim}")
        if tuple(sorted(idx)) != idx:
            raise DomainError(f"canonical index {idx} is not sorted")
        if not math.isfinite(float(val)):
            raise NumericalError(f"non-finite entry at index "
                                 f"{tuple(i + 1 for i in idx)}")


class TestEntryErrors:
    """With several bad entries in one list, the first in input order
    raises, with the error the loops of reference_entries give it: the
    first prefix of the list that fails there fails with that error."""

    @staticmethod
    def _entry(rng, order, dim, kind, earlier):
        def pick(options):
            return options[rng.integers(len(options))]

        idx = [int(i) for i in rng.integers(1, dim + 1, order)]
        val = float(rng.standard_normal())
        if kind == "again" and earlier:
            # an earlier index, permuted
            idx = list(pick(earlier))
            idx = [idx[i] for i in rng.permutation(len(idx))]
        elif kind == "range":
            idx[rng.integers(order)] = pick([0, dim + 1, -3])
        elif kind == "arity":
            idx = idx + [1] if rng.uniform() < 0.5 else idx[1:]
        elif kind == "type":
            idx[rng.integers(order)] = pick([1.5, "1", None, 2.0])
        elif kind == "nonfinite":
            val = pick([np.inf, -np.inf, np.nan])
        elif kind == "value":
            val = pick([None, "x", "inf", [1.0]])
        return tuple(idx), val

    @staticmethod
    def _raised(build):
        try:
            build()
        except (ValueError, TypeError, ArithmeticError, IndexError) as exc:
            return type(exc), str(exc)
        return None

    @pytest.mark.parametrize("listed", [True, False])
    def test_first_bad_entry_wins(self, listed):
        rng = np.random.default_rng(31 if listed else 32)
        kinds = ["good"] * 6 + ["again", "range", "arity", "type",
                                "nonfinite", "value"]
        for case in range(400):
            order, dim = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            entries = []
            for _ in range(int(rng.integers(1, 9))):
                entries.append(self._entry(
                    rng, order, dim, rng.choice(kinds),
                    [i for i, _ in entries]))
            if not listed:
                # map keys are 0-based and distinct, sorted or not
                entries = list({tuple(i - 1 if isinstance(i, int) else i
                                      for i in idx): val
                                for idx, val in entries}.items())
            want = next(filter(None, (
                self._raised(lambda: reference_entries(
                    order, dim, entries[:k], listed))
                for k in range(1, len(entries) + 1))), None)
            if listed:
                got = self._raised(lambda: SymTensor.from_entries(
                    order, dim, entries))
            else:
                got = self._raised(lambda: SymTensor(order, dim,
                                                     dict(entries)))
            assert got == want, (case, order, dim, entries)


class TestApplyFull:
    def test_unit_sphere_example_value(self, example2):
        # tabulated to four decimals, so renormalize before evaluating
        x = PINNED_X / np.linalg.norm(PINNED_X)
        assert example2.apply_full(x) == pytest.approx(-1.0954, abs=5e-4)

    def test_matrix_value(self):
        assert A1.apply_full(np.array([0.0, 1.0])) == -2.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimError):
            A1.apply_full(np.array([1.0, 0.0, 0.0]))

    @settings(max_examples=40, deadline=None)
    @given(tensors(), st.integers(0, 10 ** 6))
    def test_matches_dense(self, a, xseed):
        x = np.random.default_rng(xseed).standard_normal(a.dim)
        arr = to_dense(a)
        assert a.apply_full(x) == pytest.approx(
            dense_multilinear(arr, [x] * a.order), rel=1e-10, abs=1e-12)


class TestApplyFullMany:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_rows_match_apply_full(self, m):
        rng = np.random.default_rng(500 + m)
        for n in (1, 2, 3, 4):
            a = random_symtensor(m, n, rng)
            xs = rng.standard_normal((7, n))
            got = a.apply_full_many(xs)
            assert got.shape == (7,)
            for x, value in zip(xs, got):
                # |A x^m| <= |A|_F |x|^m bounds every term's rounding
                scale = a.frobenius_norm() * float(np.linalg.norm(x)) ** m
                assert value == pytest.approx(a.apply_full(x), rel=1e-12,
                                              abs=1e-12 * scale)

    def test_zero_tensor_and_no_rows(self):
        zero = SymTensor(4, 3, {})
        assert np.array_equal(zero.apply_full_many(np.ones((2, 3))),
                              np.zeros(2))
        assert A1.apply_full_many(np.empty((0, 2))).shape == (0,)

    def test_wrong_width_rejected(self):
        for bad in (np.ones((3, 3)), np.ones(2), np.ones((1, 2, 2))):
            with pytest.raises(DimError):
                A1.apply_full_many(bad)


class TestGatherExactness:
    """apply_full and apply_full_many reduce their gathers over a leading
    slot axis; each must equal the last-axis gather of the reference bit
    for bit, matrix-vector product included."""

    @staticmethod
    def _check(a, xs):
        got = a.apply_full_many(xs)
        assert got.shape == (xs.shape[0],)
        assert np.array_equal(got, reference_apply_full_many(a, xs))
        for x in xs:
            assert a.apply_full(x) == reference_apply_full(a, x)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_random_tensors(self, m):
        rng = np.random.default_rng(700 + m)
        for n in range(1, 6):
            a = random_symtensor(m, n, rng)
            for rows in range(8):
                self._check(a, rng.standard_normal((rows, n)))

    def test_zero_tensor(self):
        rng = np.random.default_rng(7)
        for m in (1, 4):
            zero = SymTensor(m, 3, {})
            for rows in (0, 1, 5):
                xs = rng.standard_normal((rows, 3))
                self._check(zero, xs)
                assert np.array_equal(zero.apply_full_many(xs),
                                      np.zeros(rows))

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 30])
    def test_cubic_lifts(self, n):
        lift = random_cubic(n, 40 + n).lifted
        rng = np.random.default_rng(n)
        for rows in (0, 1, 3, 7):
            xs = rng.standard_normal((rows, n + 1))
            xs[:, 0] = 1.0
            self._check(lift, xs)


class TestFromDense:
    """A tensor built from a map, from TaylorPoly terms and from a dense
    array: each is its dense array with everything else read from it
    through the shape's class table, so all must agree bit for bit."""

    @staticmethod
    def _check(want, *others):
        rng = np.random.default_rng(want.order * 10 + want.dim)
        xs = rng.standard_normal((5, want.dim))
        for got in others:
            assert got.dense.tobytes() == want.dense.tobytes()
            assert list(got.canonical.items()) == \
                list(want.canonical.items())
            assert got.frobenius_norm() == want.frobenius_norm()
            assert [got.apply_full(x) for x in xs] == \
                [want.apply_full(x) for x in xs]
            assert got.apply_full_many(xs).tobytes() == \
                want.apply_full_many(xs).tobytes()

    def _from_map_and_array(self, dense, *others):
        m, n = dense.ndim, dense.shape[0]
        canon = {idx: float(dense[idx]) for idx in
                 itertools.combinations_with_replacement(range(n), m)
                 if dense[idx] != 0.0}
        want = SymTensor(m, n, canon)
        wrapped = SymTensor._from_dense(dense.copy())
        assert np.array_equal(wrapped.dense, dense)
        self._check(want, wrapped, *others)
        assert want.canonical == canon

    @pytest.mark.parametrize("m", range(1, 6))
    def test_random_arrays(self, m):
        rng = np.random.default_rng(800 + m)
        for n in (1, 2, 3, 4):
            dense = random_symtensor(m, n, rng, 10.0).dense.copy()
            self._from_map_and_array(dense)
            # zero a few classes, at every permutation
            for idx in itertools.combinations_with_replacement(range(n), m):
                if rng.uniform() < 0.3:
                    for perm in itertools.permutations(idx):
                        dense[perm] = 0.0
            self._from_map_and_array(dense)

    @pytest.mark.parametrize("p", range(1, 5))
    def test_taylor_terms(self, p):
        # the lift of a model built from terms, read back as a map and as
        # its dense array
        rng = np.random.default_rng(820 + p)
        for n in (1, 2, 3):
            exponents = [a for a in itertools.product(range(p + 1), repeat=n)
                         if sum(a) <= p]
            for density in (0.0, 0.4, 1.0):
                terms = {a: float(rng.uniform(-3.0, 3.0)) for a in exponents
                         if rng.uniform() < density}
                lift = TaylorPoly(n, p, terms).lifted
                self._from_map_and_array(lift.dense, lift)

    def test_zero_and_order_one(self):
        for shape in ((3, 3, 3), (4,), (1, 1)):
            self._from_map_and_array(np.zeros(shape))
        self._from_map_and_array(np.array([0.5, 0.0, -2.0]))

    def test_cubic_lift(self):
        # from_cubic copies each entry of T from its sorted index, so the
        # map of its classes builds the same array
        model = random_cubic(6, 3)
        self._from_map_and_array(model.lifted.dense, model.lifted)
        # the terms read back from it give a symmetric lift
        lift = TaylorPoly(6, 3, model.coeffs).lifted
        self._from_map_and_array(lift.dense, lift)


class TestExplicitZeros:
    """A class given the value 0.0 is not listed as a class."""

    def test_map_entry(self):
        t = SymTensor(2, 2, {(0, 0): 0.0, (0, 1): 1.0})
        assert t.canonical == {(0, 1): 1.0}
        assert repr(t) == "SymTensor(order=2, dim=2, nnz=1)"

    def test_bundled_file_line(self, example4):
        # example4_A.tns lists the class (2, 2, 2, 2) with value 0.0000
        a = example4[0]
        assert a.entry(2, 2, 2, 2) == 0.0
        assert len(a.canonical) == 14
        assert (1, 1, 1, 1) not in a.canonical
        assert repr(a) == "SymTensor(order=4, dim=3, nnz=14)"


class TestClassTable:
    """The per-shape class table, the class of every flat position, and
    the dense array built from class values through them."""

    @staticmethod
    def _check(m, n, rng):
        classes, flat, counts, index = _class_table(m, n)
        shape = (n,) * m
        rank = {idx: k for k, idx in enumerate(
            itertools.combinations_with_replacement(range(n), m))}
        assert [rank[tuple(c)] for c in classes.T.tolist()] == \
            list(range(len(rank)))
        assert np.array_equal(flat, np.ravel_multi_index(tuple(classes),
                                                         shape))
        assert np.array_equal(counts, [permutation_count(c)
                                       for c in classes.T.tolist()])
        # every flat position maps to the column of its sorted multi-index
        assert index.dtype == np.int32 and not index.flags.writeable
        assert index.tolist() == [rank[tuple(sorted(idx))] for idx in
                                  itertools.product(range(n), repeat=m)]
        # a symmetric array filled permutation by permutation
        dense = np.empty(shape)
        for idx in rank:
            value = rng.standard_normal()
            for perm in itertools.permutations(idx):
                dense[perm] = value
        values = dense.take(flat)
        got, laid, table = _class_layout(m, n, values)
        assert table is _class_table(m, n)
        assert np.array_equal(got, dense) and laid is values
        # the same values at a few of their classes, by any permutation
        some = rng.permutation(len(rank))[:max(1, len(rank) // 3)]
        cols = rng.permuted(classes[:, some], axis=0)
        sparse = np.zeros(shape)
        for idx in classes[:, some].T.tolist():
            for perm in itertools.permutations(idx):
                sparse[perm] = dense[perm]
        got, laid, _ = _class_layout(m, n, dense.take(flat[some]), cols)
        assert np.array_equal(got, sparse)
        assert np.array_equal(laid, sparse.take(flat))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_small_shapes(self, m):
        rng = np.random.default_rng(860 + m)
        for n in range(1, 6):
            self._check(m, n, rng)

    @pytest.mark.parametrize("n", [31, 41])
    def test_order_three(self, n):
        # the largest boundary lift, and 41**3 positions in two chunks
        self._check(3, n, np.random.default_rng(n))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_counts_are_exact_integers(self, n):
        # every order a dense tensor on R^n may have (on R^1, up to 40); the
        # counts were rounded, 253.00000000000003 at order 23 on R^2 and
        # 1.0000000000000002 at order 28 on R^1
        for m in itertools.takewhile(
                lambda m: n ** m <= tensor_core.MAX_DENSE_ENTRIES,
                range(1, 41)):
            classes = np.array(list(itertools.combinations_with_replacement(
                range(n), m))).T
            counts = _multiplicities(classes)
            assert counts.tolist() == [
                math.factorial(m) // math.prod(
                    math.factorial(k) for k in Counter(c).values())
                for c in classes.T.tolist()]
            assert sum(counts.tolist()) == n ** m

    @pytest.mark.parametrize("m,n", [(1, 4), (3, 5), (4, 3), (6, 2)])
    def test_tensors_bind_the_table(self, m, n):
        # no tensor keeps a class index of its own: each binds the shape's
        # table and weights all of its classes, zero values included
        classes, flat, counts, _ = _class_table(m, n)
        full = random_symtensor(m, n, np.random.default_rng(m + n))
        sparse = SymTensor(m, n, dict(list(full.canonical.items())[::3]))
        tensors = [full, sparse, SymTensor(m, n, {}), full.scaled(-2.0)]
        if m % 2 == 0:
            tensors += [ZIdentity(m, n), HDiagonal(m, n)]
        for t in tensors:
            assert t._classes is classes
            assert np.array_equal(t._weights, counts * t.dense.take(flat))


class TestSweepPartials:
    """The stacked contractions of `pam._BlockSweep.partial` against the
    serial kernel, row by row."""

    @staticmethod
    def _seated(tensors, blocks):
        """A sweep whose rows hold the tensors and the (t, m, n) blocks."""
        sweep = _BlockSweep(*blocks.shape[1:], len(blocks))
        sweep.stack[:] = [a.dense.reshape(-1) for a in tensors]
        sweep.blocks[:] = blocks
        return sweep

    @staticmethod
    def _sweep(sweep, tensors, rng):
        # a sweep overwrites each slot once its partial is out; every row
        # of every partial must equal multilinear_partial of its own tensor
        # on its rows as they are then, bit for bit, since both run the
        # same contraction order
        blocks = sweep.blocks
        t, m, n = len(tensors), blocks.shape[1], blocks.shape[2]
        for _ in range(2):
            for j in range(m):
                c = sweep.partial(j)
                assert c.shape == (t, n)
                for row, a in enumerate(tensors):
                    others = [blocks[row, i] for i in range(m) if i != j]
                    assert np.array_equal(c[row],
                                          a.multilinear_partial(others, j))
                blocks[:t, j] = rng.standard_normal((t, n))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_multilinear_partial_with_updates(self, m):
        rng = np.random.default_rng(600 + m)
        for n in (1, 2, 3, 4):
            for t in (1, 3):
                tensors = [random_symtensor(m, n, rng) for _ in range(t)]
                blocks = rng.standard_normal((t, m, n))
                self._sweep(self._seated(tensors, blocks), tensors, rng)

    @pytest.mark.parametrize("n", [2, 3, 8, 16, 23, 31])
    def test_one_row_plans_at_boundary_lift_sizes(self, n):
        # one row runs its products as np.dot on 2-D views; the lifts of
        # the boundary solver are order 3 on R^2 .. R^31
        rng = np.random.default_rng(620 + n)
        lift = random_cubic(n - 1, n).lifted
        blocks = rng.standard_normal((1, 3, n))
        self._sweep(self._seated([lift], blocks), [lift], rng)

    @pytest.mark.parametrize("m", range(1, 5))
    def test_head_views_of_a_three_row_plan(self, m):
        # a head of one row switches to the 2-D products, a longer one
        # keeps the stacked ones; both run on views of the whole sweep
        rng = np.random.default_rng(640 + m)
        for n in (1, 3, 5):
            tensors = [random_symtensor(m, n, rng) for _ in range(3)]
            whole = self._seated(tensors, rng.standard_normal((3, m, n)))
            for t in (1, 2, 3):
                head = whole.head_of(t)
                self._sweep(head, tensors[:t], rng)
                for j in range(m):
                    assert np.shares_memory(head.partials[j],
                                            whole.partials[j])

    @pytest.mark.parametrize("m,n", [(6, 4), (4, 3)])
    def test_four_row_pool_plans_and_their_heads(self, m, n):
        # the pool's own shapes: four rows of order 6 on R^4 (study 5.2)
        # and of order 4 on R^3 (studies 5.1 and 5.3), then the heads of
        # 1-3 rows a pool sweeps below its capacity
        rng = np.random.default_rng(660 + m)
        tensors = [random_symtensor(m, n, rng) for _ in range(4)]
        whole = self._seated(tensors, rng.standard_normal((4, m, n)))
        self._sweep(whole, tensors, rng)
        for t in (1, 2, 3):
            self._sweep(whole.head_of(t), tensors[:t], rng)

    def test_partials_do_not_alias_the_tensor(self):
        a = SymTensor.from_entries(1, 3, [((2,), 5.0)])
        sweep = self._seated([a], np.ones((1, 1, 3)))
        c = sweep.partial(0)
        c[:] = 0.0
        assert sweep.stack[0, 1] == 5.0


class TestApplyGradient:
    def test_pinned_eigenpair_residual(self, example2):
        # four-decimal rounding of the tabulated vector caps the accuracy
        x = PINNED_X / np.linalg.norm(PINNED_X)
        lam = example2.apply_full(x)
        r = example2.apply_gradient(x) - lam * x
        assert np.linalg.norm(r) <= 2e-3

    def test_finite_difference(self):
        rng = np.random.default_rng(3)
        a = random_symtensor(4, 3, rng)
        x = rng.standard_normal(3)
        fd = fd_gradient(a.apply_full, x)
        grad = 4.0 * a.apply_gradient(x)
        assert np.linalg.norm(grad - fd) <= 1e-6 * max(
            1.0, np.linalg.norm(grad))

    @settings(max_examples=40, deadline=None)
    @given(tensors(), st.integers(0, 10 ** 6))
    def test_euler_identity(self, a, xseed):
        x = np.random.default_rng(xseed).standard_normal(a.dim)
        assert float(np.dot(x, a.apply_gradient(x))) == pytest.approx(
            a.apply_full(x), rel=1e-10, abs=1e-12)


class TestMultilinear:
    def test_a2_blocks(self):
        val = A2.multilinear_apply([np.array([0.0, 1.0]),
                                    np.array([0.0, -1.0])])
        assert val == -4.0

    def test_partial_matrix(self):
        c = A1.multilinear_partial([np.array([0.0, 1.0])], 0)
        assert np.allclose(c, [0.0, -2.0])

    @settings(max_examples=40, deadline=None)
    @given(tensors(), st.integers(0, 10 ** 6))
    def test_matches_dense(self, a, bseed):
        rng = np.random.default_rng(bseed)
        blocks = [rng.standard_normal(a.dim) for _ in range(a.order)]
        arr = to_dense(a)
        assert a.multilinear_apply(blocks) == pytest.approx(
            dense_multilinear(arr, blocks), rel=1e-10, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(tensors(), st.integers(0, 10 ** 6))
    def test_diagonal_equals_apply_full(self, a, xseed):
        x = np.random.default_rng(xseed).standard_normal(a.dim)
        assert a.multilinear_apply([x] * a.order) == pytest.approx(
            a.apply_full(x), rel=1e-10, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(tensors(), st.integers(0, 10 ** 6))
    def test_partial_closes_the_form(self, a, bseed):
        # dotting the partial with the withheld vector recovers the form
        rng = np.random.default_rng(bseed)
        blocks = [rng.standard_normal(a.dim) for _ in range(a.order)]
        for slot in range(a.order):
            others = blocks[:slot] + blocks[slot + 1:]
            c = a.multilinear_partial(others, slot)
            assert float(np.dot(c, blocks[slot])) == pytest.approx(
                a.multilinear_apply(others[:slot] + [blocks[slot]]
                                    + others[slot:]), rel=1e-9, abs=1e-10)

    def test_partial_against_dense(self):
        rng = np.random.default_rng(8)
        a = random_symtensor(4, 3, rng)
        blocks = [rng.standard_normal(3) for _ in range(3)]
        arr = to_dense(a)
        assert np.allclose(a.multilinear_partial(blocks, 1),
                           dense_partial(arr, blocks), rtol=1e-10)

    @pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (4, 2), (4, 3),
                                      (6, 2)])
    def test_contract_over_all_but_two_slots_is_entrywise(self, m, n):
        # one contraction over m - 2 slots gives, bit for bit, each entry
        # A[e_i, e_j, x, ..., x] contracted on its own
        rng = np.random.default_rng(10 * m + n)
        a = random_symtensor(m, n, rng)
        x = rng.standard_normal(n)
        eye = np.eye(n)
        entrywise = np.array([[a.multilinear_apply(
            [eye[i], eye[j]] + [x] * (m - 2)) for j in range(n)]
            for i in range(n)])
        got = _contract(a.dense, [x] * (m - 2)).reshape(n, n)
        assert got.tobytes() == entrywise.tobytes()

    def test_block_count_checked(self):
        with pytest.raises(ArityError):
            A1.multilinear_apply([np.array([1.0, 0.0])])

    def test_partial_arity_and_slot_checked(self):
        e1 = np.array([1.0, 0.0])
        for blocks in ([], [e1, e1]):
            with pytest.raises(ArityError, match="expected 1 blocks"):
                A1.multilinear_partial(blocks, 0)
        for slot in (-1, 2):
            with pytest.raises(IndexError, match="free_slot"):
                A1.multilinear_partial([e1], slot)

    def test_entry_arity_and_range_checked(self):
        assert A1.entry(2, 2) == -2.0
        for indices in ((1,), (1, 1, 1)):
            with pytest.raises(ArityError, match="expected 2 indices"):
                A1.entry(*indices)
        for indices in ((0, 1), (1, 3)):
            with pytest.raises(IndexError, match="out of range 1..2"):
                A1.entry(*indices)


class TestFrobenius:
    def test_matrix_norm(self):
        assert A1.frobenius_norm() == pytest.approx(math.sqrt(5.0),
                                                    rel=1e-14)

    def test_counts_permuted_copies(self):
        t = SymTensor.from_entries(2, 2, [((1, 2), 3.0)])
        # the off-diagonal entry appears twice in the full array
        assert t.frobenius_norm() == pytest.approx(math.sqrt(18.0),
                                                   rel=1e-14)

    def test_inner_product_matches_dense(self):
        rng = np.random.default_rng(5)
        a = random_symtensor(3, 3, rng)
        b = random_symtensor(3, 3, rng)
        assert frobenius_inner(a, b) == pytest.approx(
            float((to_dense(a) * to_dense(b)).sum()), rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_entries_beyond_the_square_root_of_max_float(self):
        # the squares overflow, the norm does not
        t = SymTensor.from_entries(2, 2, {(1, 1): 1e200, (2, 2): -1e200})
        want = math.sqrt(2.0) * 1e200
        assert abs(t.frobenius_norm() - want) <= math.ulp(want)


class TestZIdentity:
    def test_needs_even_order(self):
        for n in (1, 3, 5):
            with pytest.raises(ArityError):
                ZIdentity(3, n)

    @pytest.mark.parametrize("m,n", [(2, 3), (4, 3), (6, 4)])
    def test_wraps_the_cached_identity_array(self, m, n):
        e = ZIdentity(m, n)
        assert isinstance(e, SymTensor)
        assert e.dense is identity_tensor(m, n).dense
        assert e.canonical == identity_tensor(m, n).canonical

    @pytest.mark.parametrize("m,n", [(2, 3), (4, 3), (6, 4)])
    def test_takes_the_cached_tensors_fields(self, m, n):
        # copied, not derived again from the array
        e, cached = ZIdentity(m, n), identity_tensor(m, n)
        for name in ("dense", "_classes", "_weights", "_fro"):
            assert getattr(e, name) is getattr(cached, name), name
        assert (e.order, e.dim) == (m, n)

    @pytest.mark.parametrize("m,n", [(2, 3), (4, 3), (6, 4)])
    def test_closed_forms_bit_for_bit(self, m, n):
        e = ZIdentity(m, n)
        rng = np.random.default_rng(31)
        for _ in range(5):
            x = rng.standard_normal(n)
            nsq = float(np.dot(x, x))
            assert e.apply_full(x) == float(np.dot(x, x) ** (m // 2))
            assert np.array_equal(e.apply_gradient(x),
                                  nsq ** ((m - 2) // 2) * x if m > 2 else x)

    def test_repr_names_the_subclass(self):
        assert repr(ZIdentity(4, 3)).startswith("ZIdentity(order=4, dim=3,")
        assert repr(axpy(identity_tensor(4, 3), ZIdentity(4, 3), 0.5)) \
            .startswith("SymTensor(")

    def test_gradient_is_scaled_vector(self):
        e = ZIdentity(4, 3)
        x = np.array([0.3, -1.0, 2.0])
        nx2 = float(np.dot(x, x))
        assert np.allclose(e.apply_gradient(x), nx2 * x, rtol=1e-12)
        assert e.apply_full(x) == pytest.approx(nx2 ** 2, rel=1e-12)

    @pytest.mark.parametrize("m,n", [(2, 2), (4, 3), (6, 2)])
    def test_multilinear_matches_dense_identity(self, m, n):
        # the closed forms and the inherited contractions agree with the
        # dense oracle of the identity tensor
        e = t = ZIdentity(m, n)
        arr = to_dense(identity_tensor(m, n))
        rng = np.random.default_rng(17)
        for _ in range(5):
            blocks = [rng.standard_normal(n) for _ in range(m)]
            assert t.multilinear_apply(blocks) == pytest.approx(
                dense_multilinear(arr, blocks), rel=1e-10, abs=1e-12)
            assert np.allclose(t.multilinear_partial(blocks[1:], 0),
                               dense_partial(arr, blocks[1:]), rtol=1e-9,
                               atol=1e-12)
            x = blocks[0]
            assert e.apply_full(x) == pytest.approx(
                dense_multilinear(arr, [x] * m), rel=1e-10)
            assert np.allclose(e.apply_gradient(x),
                               dense_partial(arr, [x] * (m - 1)),
                               rtol=1e-10)

    def test_dense_form_norm_formula(self):
        for n in (2, 3, 4):
            e = identity_tensor(4, n)
            expect = math.sqrt((n * n + 2 * n) / 3.0)
            assert e.frobenius_norm() == pytest.approx(expect, rel=1e-12)
            arr = to_dense(e)
            assert np.sqrt((arr ** 2).sum()) == pytest.approx(expect,
                                                              rel=1e-12)


class TestHDiagonal:
    @pytest.mark.parametrize("m,n", [(2, 3), (4, 3), (6, 4)])
    def test_wraps_the_cached_diagonal_array(self, m, n):
        h = HDiagonal(m, n)
        assert isinstance(h, SymTensor)
        assert h.dense is diagonal_tensor(m, n).dense
        assert h.canonical == diagonal_tensor(m, n).canonical

    @pytest.mark.parametrize("m,n", [(2, 3), (4, 3), (6, 4)])
    def test_takes_the_cached_tensors_fields(self, m, n):
        h, cached = HDiagonal(m, n), diagonal_tensor(m, n)
        for name in ("dense", "_classes", "_weights", "_fro"):
            assert getattr(h, name) is getattr(cached, name), name
        assert (h.order, h.dim) == (m, n)

    @pytest.mark.parametrize("m,n", [(2, 3), (4, 3), (6, 4)])
    def test_closed_forms_bit_for_bit(self, m, n):
        h = HDiagonal(m, n)
        rng = np.random.default_rng(37)
        for _ in range(5):
            x = rng.standard_normal(n)
            assert h.apply_full(x) == float(np.sum(x ** m))
            assert np.array_equal(h.apply_gradient(x), x ** (m - 1))

    def test_repr_names_the_subclass(self):
        assert repr(HDiagonal(4, 3)).startswith("HDiagonal(order=4, dim=3,")

    def test_gradient_is_componentwise_power(self):
        h = HDiagonal(4, 3)
        x = np.array([0.5, -2.0, 3.0])
        assert np.allclose(h.apply_gradient(x), x ** 3, rtol=1e-14)
        assert h.apply_full(x) == pytest.approx(float((x ** 4).sum()),
                                                rel=1e-14)

    def test_multilinear_matches_dense_diagonal(self):
        t = HDiagonal(4, 3)
        arr = to_dense(diagonal_tensor(4, 3))
        rng = np.random.default_rng(23)
        blocks = [rng.standard_normal(3) for _ in range(4)]
        assert t.multilinear_apply(blocks) == pytest.approx(
            dense_multilinear(arr, blocks), rel=1e-12)
        assert t.multilinear_apply(blocks) == pytest.approx(
            float(np.prod(blocks, axis=0).sum()), rel=1e-12)
        assert np.allclose(t.multilinear_partial(blocks[:3], 3),
                           dense_partial(arr, blocks[:3]), rtol=1e-12)

    def test_closed_forms_match_diagonal_tensor(self):
        h = HDiagonal(2, 2)
        t = diagonal_tensor(2, 2)
        x = np.array([2.0, -1.0])
        assert h.apply_full(x) == pytest.approx(5.0)
        assert t.apply_full(x) == pytest.approx(5.0)
        assert np.allclose(h.apply_gradient(x), x)
        assert np.allclose(t.apply_gradient(x), x)


class TestAxpy:
    def test_dense_shift_merges_entries(self):
        rng = np.random.default_rng(11)
        a = random_symtensor(4, 3, rng)
        b = random_symtensor(4, 3, rng)
        theta = 0.7
        shifted = axpy(a, b, theta)
        assert isinstance(shifted, SymTensor)
        assert np.allclose(to_dense(shifted),
                           to_dense(a) - theta * to_dense(b), rtol=1e-14,
                           atol=1e-15)
        x = rng.standard_normal(3)
        assert shifted.apply_full(x) == pytest.approx(
            a.apply_full(x) - theta * b.apply_full(x), rel=1e-12)

    @pytest.mark.parametrize("op_cls", [ZIdentity, HDiagonal])
    def test_structural_shift_matches_dense(self, op_cls):
        rng = np.random.default_rng(13)
        a = random_symtensor(4, 3, rng)
        b = op_cls(4, 3)
        theta = -0.4
        shifted = axpy(a, b, theta)
        assert isinstance(shifted, SymTensor)
        x = rng.standard_normal(3)
        assert shifted.apply_full(x) == pytest.approx(
            a.apply_full(x) - theta * b.apply_full(x), rel=1e-12)
        assert np.allclose(shifted.apply_gradient(x),
                           a.apply_gradient(x) - theta * b.apply_gradient(x),
                           rtol=1e-10)
        arr = to_dense(a) - theta * to_dense(b)
        blocks = [rng.standard_normal(3) for _ in range(4)]
        assert shifted.multilinear_apply(blocks) == pytest.approx(
            dense_multilinear(arr, blocks), rel=1e-10, abs=1e-12)
        assert np.allclose(shifted.multilinear_partial(blocks[1:], 0),
                           dense_partial(arr, blocks[1:]), rtol=1e-10)

    @pytest.mark.parametrize("op_cls", [ZIdentity, HDiagonal])
    def test_shift_frobenius_matches_dense(self, op_cls):
        rng = np.random.default_rng(29)
        a = random_symtensor(4, 3, rng)
        b = op_cls(4, 3)
        theta = 1.3
        shifted = axpy(a, b, theta)
        arr = to_dense(a) - theta * to_dense(b)
        assert shifted.frobenius_norm() == pytest.approx(
            float(np.sqrt((arr ** 2).sum())), rel=1e-10)

    def test_unit_shift_vanishes_on_sphere(self):
        a = identity_tensor(2, 2)
        shifted = axpy(a, ZIdentity(2, 2), 1.0)
        assert shifted.apply_full(np.array([1.0, 0.0])) == pytest.approx(
            0.0, abs=1e-14)


def _pairings(slots):
    """All perfect pairings of the given slots, by brute force."""
    if not slots:
        return [()]
    head, rest = slots[0], slots[1:]
    return [((head, partner),) + tail
            for k, partner in enumerate(rest)
            for tail in _pairings(rest[:k] + rest[k + 1:])]


class TestPairMatchings:
    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_counts(self, d):
        # the identity tensor's multilinear form is the average over all
        # perfect pairings of the slots of the paired inner products
        pairings = _pairings(tuple(range(d)))
        assert len(pairings) == _double_factorial(d - 1)
        for pairing in pairings:
            assert sorted(i for pair in pairing for i in pair) == \
                list(range(d))
        e = identity_tensor(d, 3)
        rng = np.random.default_rng(d)
        blocks = [rng.standard_normal(3) for _ in range(d)]
        gram = np.array([[float(np.dot(u, v)) for v in blocks]
                         for u in blocks])
        average = sum(math.prod(gram[i, j] for i, j in pairing)
                      for pairing in pairings) / len(pairings)
        assert e.multilinear_apply(blocks) == pytest.approx(
            average, rel=1e-10, abs=1e-12)
        # with e_k on slots 2k and 2k+1 exactly one pairing is nonzero
        eye = np.eye(d // 2)
        assert identity_tensor(d, d // 2).multilinear_apply(
            [eye[k // 2] for k in range(d)]) == pytest.approx(
                1.0 / len(pairings), rel=1e-14)


class TestKernel:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 10 ** 6))
    def test_every_free_slot_matches_dense(self, m, n, seed):
        rng = np.random.default_rng(seed)
        a = random_symtensor(m, n, rng)
        arr = to_dense(a)
        blocks = [rng.standard_normal(n) for _ in range(m)]
        assert a.multilinear_apply(blocks) == pytest.approx(
            dense_multilinear(arr, blocks), rel=1e-10, abs=1e-12)
        for slot in range(m):
            others = blocks[:slot] + blocks[slot + 1:]
            # the oracle contracts every slot but this one, in slot order
            expect = dense_partial(np.moveaxis(arr, slot, 0), others)
            assert np.allclose(a.multilinear_partial(others, slot), expect,
                               rtol=1e-10, atol=1e-12)
        x = blocks[0]
        assert np.allclose(a.apply_gradient(x),
                           dense_partial(arr, [x] * (m - 1)), rtol=1e-10,
                           atol=1e-12)


class TestSizeLimit:
    def test_oversized_shape_raises_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError):
                SymTensor.from_entries(8, 64, [((1,) * 8, 1.0)])
            with pytest.raises(ConfigError):
                identity_tensor(8, 64)
            with pytest.raises(ConfigError):
                ZIdentity(8, 64)
            with pytest.raises(ConfigError):
                HDiagonal(25, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestLayout:
    """Class values are laid out through the int32 position index in
    chunks, so take's intp copy of the index is one chunk, not the whole
    index; the array equals the one take of the whole index."""

    @pytest.mark.parametrize("columns", [False, True])
    def test_peak_is_the_array_and_one_chunk(self, columns, monkeypatch):
        order, dim = 3, 100  # 1e6 positions, 16 chunks
        # the shape's 11 MB table is above the store's cap and budget: a
        # store that keeps it measures the layout alone, not a rebuilt table
        monkeypatch.setattr(tensor_core, "_STORE", {})
        monkeypatch.setattr(tensor_core, "_STORE_ENTRY", 64 << 20)
        monkeypatch.setattr(tensor_core, "_STORE_BUDGET", 64 << 20)
        classes, _, _, index = _class_table(order, dim)
        rng = np.random.default_rng(3)
        values = rng.standard_normal(classes.shape[1])
        picked = None
        if columns:  # every fifth class, by its index column
            picked = classes[:, ::5]
            full = np.zeros_like(values)
            full[::5] = values[::5]
            values, whole = values[::5], full
        else:
            whole = values
        want = whole.take(index.astype(np.intp)).reshape((dim,) * order)
        tracemalloc.start()
        try:
            dense = _class_layout(order, dim, values, picked)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dense.tobytes() == want.tobytes()
        # one take of the whole index would copy it to intp: 8 MB more;
        # the column path adds its length-C vector of class values
        extra = whole.nbytes if columns else 0
        assert peak <= dense.nbytes + extra + 8 * _LAYOUT_CHUNK + (64 << 10)

    def test_from_entries_matches_the_whole_take(self):
        t = SymTensor.from_entries(3, 90, [((1, 2, 3), 1.5), ((90,) * 3, -2.0),
                                           ((5, 5, 7), 0.25)])
        index = _class_table(3, 90)[3]
        classes = _class_table(3, 90)[0]
        values = np.zeros(classes.shape[1])
        for idx, val in (((0, 1, 2), 1.5), ((89,) * 3, -2.0),
                         ((4, 4, 6), 0.25)):
            values[index[np.ravel_multi_index(idx, (90,) * 3)]] = val
        want = values.take(index.astype(np.intp)).reshape((90,) * 3)
        assert t.dense.tobytes() == want.tobytes()


class TestFromClasses:
    """A tensor built from class values takes its weights and norm from
    them: every field equals that of the wrapped array."""

    def test_map(self):
        same_as_wrapped(SymTensor(3, 4, {(0, 1, 3): 1.5, (2, 2, 2): -0.25,
                                         (0, 0, 0): 0.0, (1, 3, 3): 1e-9}))
        same_as_wrapped(SymTensor(2, 3, {}))

    def test_entries_and_file(self, tmp_path):
        entries = {(3, 1, 2): 2.0, (4, 4, 4): -1.0, (2, 2, 1): 1e100}
        same_as_wrapped(SymTensor.from_entries(3, 4, entries))
        path = tmp_path / "t.tns"
        path.write_text("order 3\ndim 4\n" + "".join(
            f"{' '.join(map(str, idx))} {val!r}\n"
            for idx, val in entries.items()))
        loaded = load_tensor(path)
        same_as_wrapped(loaded)
        assert loaded.dense.tobytes() == SymTensor.from_entries(
            3, 4, entries).dense.tobytes()


class TestLoadTensor:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("# comment\norder 2\ndim 2\n1 1 1.5\n1 2 -0.25\n")
        t = load_tensor(path)
        assert t.entry(1, 1) == 1.5
        assert t.entry(2, 1) == -0.25

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("1 1 1.0\n")
        with pytest.raises(ParseError):
            load_tensor(path)

    def test_malformed_entry(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("order 2\ndim 2\n1 1\n")
        with pytest.raises(ParseError):
            load_tensor(path)

    @pytest.mark.parametrize("text, message", [
        ("order two\ndim 2\n", r"bad.tns:1: bad order 'two'"),
        ("order 2\ndim 2.5\n", r"bad.tns:2: bad dim '2.5'"),
        ("order 2\nn 2\n", r"bad.tns:2: expected 'dim n'"),
        ("order 2\ndim 2\n1 x 1.0\n", r"bad.tns:3: malformed entry"),
        ("order 2\ndim 2\n1 1 one\n", r"bad.tns:3: malformed entry"),
        ("# only a comment\n", r"bad.tns: missing order/dim header"),
        ("order 2\n", r"bad.tns: missing order/dim header"),
    ])
    def test_header_and_entry_errors(self, tmp_path, text, message):
        path = tmp_path / "bad.tns"
        path.write_text(text)
        with pytest.raises(ParseError, match=message):
            load_tensor(path)

    @pytest.mark.parametrize("line", ["1 3 1.0", "0 1 1.0",
                                      "1 2 1.0\n2 1 2.0"])
    def test_bad_index_class(self, tmp_path, line):
        # out of range, below 1, and one class twice
        path = tmp_path / "bad.tns"
        path.write_text(f"order 2\ndim 2\n{line}\n")
        with pytest.raises(ParseError):
            load_tensor(path)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_value(self, tmp_path, value):
        path = tmp_path / "bad.tns"
        path.write_text(f"order 2\ndim 2\n1 2 1.0\n\n1 1 {value}\n2 3 x\n")
        with pytest.raises(ParseError, match=rf"bad.tns:5: non-finite value "
                                             rf"'{value}'"):
            load_tensor(path)

    def test_bundled_files_match_permutation_fill(self, data_dir,
                                                   monkeypatch):
        # each line's value at every permutation of its index, on a warm
        # class table and on a cold one
        def oracle(path):
            lines = [ln.split("#")[0].split() for ln in
                     path.read_text().splitlines()]
            lines = [ln for ln in lines if ln]
            order, dim = int(lines[0][1]), int(lines[1][1])
            dense = np.zeros((dim,) * order)
            for *idx, val in lines[2:]:
                for perm in itertools.permutations(int(i) - 1 for i in idx):
                    dense[perm] = float(val)
            return dense

        files = sorted(data_dir.glob("*.tns"))
        assert len(files) == 4
        for cold in (False, True):
            if cold:
                # an empty shape store: the tensors it keeps bind the new
                # tables too
                monkeypatch.setattr(tensor_core, "_STORE", {})
            for path in files:
                assert load_tensor(path).dense.tobytes() == \
                    oracle(path).tobytes()

    def test_bundled_dimensions(self, example2, example3, example4):
        assert (example2.order, example2.dim) == (4, 3)
        assert (example3.order, example3.dim) == (6, 4)
        a4, b4 = example4
        assert (a4.order, a4.dim) == (4, 3)
        assert (b4.order, b4.dim) == (4, 3)


_FILLERS = ("", "   ", "\t", "# a comment", "  # indented comment")


@st.composite
def tensor_files(draw):
    """A tensor file as its lines: comment and blank lines anywhere, every
    class at most once in any index order and line order, fields split by
    spaces or tabs, some lines with a trailing comment; its entries; the
    line numbers of its entry lines; and a line ending."""
    order, dim = draw(st.integers(2, 6)), draw(st.integers(1, 4))
    classes = list(itertools.combinations_with_replacement(
        range(1, dim + 1), order))
    chosen = draw(st.lists(st.sampled_from(classes), unique=True,
                           max_size=len(classes)))
    fillers = st.lists(st.sampled_from(_FILLERS), max_size=2)
    lines = [*draw(fillers), "order %d" % order, *draw(fillers),
             "dim %d" % dim, *draw(fillers)]
    entries, rows = [], []
    for cls in chosen:
        idx = draw(st.permutations(cls))
        val = draw(st.floats(-1e100, 1e100))
        gap = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
        tail = draw(st.sampled_from(["", "  ", " # trailing", "#x 1 2"]))
        entries.append((tuple(idx), val))
        rows.append(len(lines))
        lines.append(gap.join([*map(str, idx), repr(val)]) + tail)
        lines.extend(draw(fillers))
    return order, dim, lines, entries, rows, draw(st.sampled_from(
        ["\n", "\r\n"]))


class TestTokenStream:
    """load_tensor splits every line into fields in one pass and converts
    all tokens at once; a bad line is found by walking the lines again.
    Lines count as iterating the file counts them: blank and comment lines
    too, split at newlines after CRLF reads as LF."""

    @staticmethod
    def _write(path, lines, end="\n"):
        path.write_bytes(end.join(lines).encode() + end.encode())
        return path

    @settings(max_examples=60, deadline=None)
    @given(tensor_files())
    def test_a_file_loads_as_its_entries(self, tmp_path_factory, case):
        order, dim, lines, entries, rows, end = case
        path = self._write(tmp_path_factory.mktemp("tns") / "t.tns",
                           lines, end)
        assert load_tensor(path).dense.tobytes() == SymTensor.from_entries(
            order, dim, entries).dense.tobytes()
        if len(rows) < 2:
            return
        # the value of the first entry line starts the next one: the token
        # stream is the same, the two lines' field counts are not
        first, second = rows[0], rows[1]
        fields = lines[first].split("#")[0].split()
        moved = list(lines)
        moved[first] = " ".join(fields[:-1])
        moved[second] = fields[-1] + " " + moved[second]
        moved.insert(first, "")
        with pytest.raises(ParseError) as exc:
            load_tensor(self._write(path, moved, end))
        assert str(exc.value) == (
            f"{path}:{first + 2}: expected {order} indices and a value, "
            f"got {order} fields")

    @pytest.mark.parametrize("body, message", [
        # one field too many, then one too few: the token count is right
        (["1 1 2 1", "2 2"], "6: expected 2 indices and a value, got 4 "
                             "fields"),
        (["1.0 2 3.5"], "6: malformed entry '1.0 2 3.5'"),
        (["1 x 1.0 # after", "", "2 2 nan"], "6: malformed entry '1 x 1.0'"),
        (["1 1 1.0", "1 2", "", "2 2 nan"],
         "7: expected 2 indices and a value, got 2 fields"),
        (["1 2 0.5", "2 2 nan", "2 x 1.0"], "7: non-finite value 'nan'"),
        # \x1e and \x85 end a line for str.splitlines, not in a file
        (["1 1 1.0\x1e2 2 x"], "6: expected 2 indices and a value, got 6 "
                               "fields"),
        (["1 1 1.0\x852 2 2.0", "2 2 x"],
         "6: expected 2 indices and a value, got 6 fields"),
    ])
    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_the_first_bad_line_names_itself(self, tmp_path, body, message,
                                             end):
        lines = ["# a tensor", "order 2", "", "dim 2  # n", "   ", *body]
        path = self._write(tmp_path / "bad.tns", lines, end)
        with pytest.raises(ParseError) as exc:
            load_tensor(path)
        assert str(exc.value) == f"{path}:{message}"

    def test_index_tokens_int_reads(self, tmp_path):
        # tokens "0" to "255" are looked up; any other token is read by
        # int(), an index beyond intp too
        path = self._write(tmp_path / "t.tns", [
            "order 2", "dim 300", "+1 0300 1.5", "٢ 299 -2.0"])
        assert load_tensor(path).dense.tobytes() == SymTensor.from_entries(
            2, 300, [((1, 300), 1.5), ((2, 299), -2.0)]).dense.tobytes()
        big = "100000000000000000000"
        path = self._write(tmp_path / "bad.tns", [
            "order 2", "dim 2", f"1 {big} 1.0"])
        with pytest.raises(ParseError) as exc:
            load_tensor(path)
        assert str(exc.value) == f"{path}: index (1, {big}) out of range 1..2"


class TestShapeStore:
    """Every per-shape cache is one store: a byte budget, a cap per entry,
    the least recently used entry dropped first."""

    @pytest.fixture
    def store(self, monkeypatch):
        fresh = {}
        monkeypatch.setattr(tensor_core, "_STORE", fresh)
        return fresh

    @staticmethod
    def _bytes(entry) -> int:
        if isinstance(entry, tuple):
            return sum(a.nbytes for a in entry)
        if isinstance(entry, SymTensor):
            return entry.dense.nbytes + entry._weights.nbytes
        return entry.nbytes

    def test_bytes_stay_within_budget_over_a_sweep_of_shapes(self, store):
        for n in range(2, 41, 2):
            poly = random_cubic(n, 0)
            solve_boundary(poly, 2.0)
            identity_tensor(4, 2 + n % 7)
            diagonal_tensor(6, 2 + n % 5)
            sizes = [size for _, size in store.values()]
            assert sum(sizes) <= tensor_core._STORE_BUDGET
            assert max(sizes) <= tensor_core._STORE_ENTRY
            for entry, size in store.values():
                assert size == self._bytes(entry)
        # the budget dropped the oldest shapes, and kept the newest; the
        # boundary sweep of cubics on R^40 is above the cap
        assert ("_cubic_plan", 2) not in store
        assert ("_cubic_plan", 40) in store
        assert ("boundary", 3, 41) not in store

    def test_a_repeated_shape_is_built_once(self, store, monkeypatch):
        built = []
        keep = tensor_core._keep

        def counted(key, entry):
            built.append(key)
            keep(key, entry)

        monkeypatch.setattr(tensor_core, "_keep", counted)
        for _ in range(3):
            table = _class_table(4, 3)
            assert identity_tensor(4, 3).dense is \
                identity_tensor(4, 3).dense
            ZIdentity(4, 3), HDiagonal(4, 3)
            for seed in range(3):
                solve_boundary(random_cubic(5, seed), 1.0)
        assert _class_table(4, 3) is table
        assert sorted(built) == sorted(set(built)) == sorted([
            ("_class_table", 4, 3), ("identity_tensor", 4, 3),
            ("diagonal_tensor", 4, 3), ("_class_table", 3, 6),
            ("_cubic_plan", 5), ("_class_table", 2, 6),
            ("identity_tensor", 2, 6), ("_shift_tensor", 3, 6)])
        # the boundary sweep is taken out and kept again, not rebuilt
        sweep = store[("boundary", 3, 6)][0]
        solve_boundary(random_cubic(5, 4), 1.5)
        assert store[("boundary", 3, 6)][0] is sweep

    def test_an_entry_above_the_cap_is_built_per_call(self, store,
                                                      monkeypatch):
        monkeypatch.setattr(tensor_core, "_STORE_ENTRY", 4 << 10)
        first, second = _class_table(3, 12), _class_table(3, 12)
        assert first is not second and not store
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    def test_a_read_makes_an_entry_the_newest(self, store, monkeypatch):
        sizes = [self._bytes(_class_table(2, n)) for n in (5, 6, 7)]
        monkeypatch.setattr(tensor_core, "_STORE_BUDGET", sum(sizes))
        _class_table(2, 5)
        _class_table(2, 8)
        assert list(store) == [("_class_table", 2, 5),
                               ("_class_table", 2, 8)]

    def test_a_dropped_entry_leaves_its_tensors_whole(self, store):
        a = SymTensor.from_entries(3, 4, {(1, 2, 3): 1.5, (4, 4, 4): -2.0})
        e = ZIdentity(4, 3)
        classes, x = a._classes, np.array([0.3, -1.0, 2.0, 0.5])
        store.clear()
        b = SymTensor.from_entries(3, 4, {(1, 2, 3): 1.5, (4, 4, 4): -2.0})
        assert a._classes is classes and b._classes is not classes
        assert np.array_equal(a._classes, b._classes)
        assert a.apply_full(x) == b.apply_full(x)
        assert e.dense is not identity_tensor(4, 3).dense
        assert e.multilinear_apply([x[:3]] * 4) == \
            identity_tensor(4, 3).multilinear_apply([x[:3]] * 4)

    def test_the_shape_is_checked_before_the_lookup(self, store):
        identity_tensor(2, 2)
        for build in (identity_tensor, diagonal_tensor):
            with pytest.raises(DimError):
                build(2, 2.0)

    def test_threads_that_evict_each_other_keep_their_answers(self, store,
                                                              monkeypatch):
        # more threads than cores, switching often, on a budget that holds
        # half the shapes: entries are dropped and rebuilt under the readers
        monkeypatch.setattr(tensor_core, "_STORE_BUDGET", 120 << 10)
        dims = (3, 5, 8, 11)
        polys = {n: random_cubic(n, n) for n in dims}
        want = {n: solve_boundary(polys[n], 1.5).value for n in dims}
        got = [[] for _ in range(4)]

        def work(i):
            for k in range(6):
                n = dims[(i + k) % len(dims)]
                poly = random_cubic(n, n)
                same = np.array_equal(poly.lifted.dense, polys[n].lifted.dense)
                got[i].append((n, same, solve_boundary(poly, 1.5).value))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
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
        assert sorted(len(runs) for runs in got) == [6] * 4
        for runs in got:
            for n, same, value in runs:
                assert same and value == want[n], n
        assert sum(size for _, size in store.values()) <= 120 << 10
