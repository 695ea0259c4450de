"""Exact linear algebra over GF(p) and the rationals.

Oracle values below were worked by hand (pencil Gaussian elimination) and
frozen before the implementation existed; nothing here is a regression
snapshot of the code's own output.
"""

import dataclasses
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from abcosp.exactlin import (
    GF2,
    GF3,
    QQ,
    Field,
    FieldMismatch,
    Matrix,
    ShapeError,
    block_matrix,
    direct_sum,
    hash_once,
    hstack,
    image_basis,
    kernel_basis,
    matrix_to_rows,
    rank,
    rref,
    scalar_to_token,
    solve_left,
    solve_right,
    subspace_contains,
    subspace_equal,
    vstack,
)
from abcosp.generators import rand_matrix
from test_elimination import invert

FIELDS = (GF2, GF3, QQ)


def M(field, rows, cols=None):
    if cols is None:
        cols = len(rows[0]) if rows else 0
    return Matrix.from_rows(field, rows, cols)


# compact hypothesis strategy: a small matrix over a small field
@st.composite
def small_matrix(draw, max_dim=4):
    field = draw(st.sampled_from(FIELDS))
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    if field.characteristic:
        ent = st.integers(0, field.characteristic - 1)
    else:
        ent = st.integers(-3, 3).map(Fraction)
    rows = draw(st.lists(st.lists(ent, min_size=c, max_size=c), min_size=r, max_size=r))
    return Matrix.from_rows(field, rows, c)


class TestField:
    def test_primality_enforced(self):
        with pytest.raises(ValueError):
            Field(4)
        with pytest.raises(ValueError):
            Field(1)

    @pytest.mark.parametrize("char", [2.5, 2.0, True, False, "2", None])
    def test_characteristic_must_be_an_integer(self, char):
        with pytest.raises(ValueError, match="characteristic must be an integer"):
            Field(char)

    def test_coercion(self):
        assert GF3.coerce(5) == 2
        assert GF3.coerce(-1) == 2
        assert QQ.coerce(2) == Fraction(2)
        with pytest.raises(ValueError):
            GF3.coerce(Fraction(1, 2))


class TestRref:
    def test_all_ones_gf2(self):
        r = rref(M(GF2, [[1, 1], [1, 1]]))
        assert matrix_to_rows(r.R) == [[1, 1], [0, 0]]
        assert r.rank == 1
        assert r.pivots == (0,)

    def test_identity_rational(self):
        I = Matrix.identity(QQ, 3)
        r = rref(I)
        assert r.R == I and r.rank == 3

    def test_zero(self):
        r = rref(Matrix.zeros(QQ, 2, 3))
        assert r.rank == 0 and r.pivots == ()

    @given(small_matrix())
    def test_idempotent(self, m):
        once = rref(m).R
        assert rref(once).R == once

    @given(small_matrix())
    def test_rank_nullity(self, m):
        assert rank(m) + kernel_basis(m).cols == m.cols

    def test_pivots_strictly_increasing(self):
        r = rref(M(GF3, [[0, 1, 2], [0, 2, 1], [1, 0, 0]]))
        assert list(r.pivots) == sorted(set(r.pivots))


class TestKernelImage:
    def test_sum_zero_line_gf2(self):
        k = kernel_basis(M(GF2, [[1, 1]]))
        assert matrix_to_rows(k) == [[1], [1]]

    def test_identity_kernel_empty(self):
        assert kernel_basis(Matrix.identity(QQ, 2)).cols == 0

    def test_rational_projection(self):
        k = kernel_basis(M(QQ, [[1, 0], [0, 0]]))
        assert matrix_to_rows(k) == [[0], [1]]

    def test_image_of_all_ones(self):
        b = image_basis(M(GF2, [[1, 1], [1, 1]]))
        assert matrix_to_rows(b) == [[1], [1]]

    @given(small_matrix())
    def test_kernel_annihilated(self, m):
        k = kernel_basis(m)
        assert m @ k == Matrix.zeros(m.field, m.rows, k.cols)
        assert rank(k) == k.cols

    @given(small_matrix())
    def test_image_canonical(self, m):
        b = image_basis(m)
        assert subspace_equal(b, m) if m.cols else b.cols == 0
        # canonical: re-canonicalizing changes nothing
        assert image_basis(b) == b


class TestSubspaces:
    def test_equal_reflexive(self):
        b = M(QQ, [[1], [1]])
        assert subspace_equal(b, b)

    def test_plane_contains_axis(self):
        plane = Matrix.identity(QQ, 2)
        axis = M(QQ, [[1], [0]])
        assert subspace_contains(plane, axis)
        assert not subspace_contains(axis, plane)

    def test_ambient_mismatch(self):
        with pytest.raises(ShapeError):
            subspace_equal(Matrix.identity(QQ, 2), Matrix.identity(QQ, 3))

    @given(small_matrix(), small_matrix())
    def test_equal_is_mutual_containment(self, a, b):
        if a.field != b.field or a.rows != b.rows:
            return
        assert subspace_equal(a, b) == (
            subspace_contains(a, b) and subspace_contains(b, a)
        )


def reference_solve_left(V: Matrix, W: Matrix):
    """``G @ V == W`` solved on ``rref([V.T | W.T])`` by an explicit loop."""
    aug = rref(hstack(V.transpose(), W.transpose()))
    b = V.rows
    if any(pc >= b for pc in aug.pivots):
        return None
    gt = [[V.field.zero()] * W.rows for _ in range(b)]
    for i, pc in enumerate(aug.pivots):
        for j in range(W.rows):
            gt[pc][j] = aug.R.entries[i][b + j]
    data = tuple(tuple(gt[i][j] for i in range(b)) for j in range(W.rows))
    return Matrix(V.field, W.rows, b, data)


class TestSolvers:
    def test_solve_left_identity(self):
        I = Matrix.identity(GF2, 2)
        assert solve_left(I, I) == I

    def test_solve_left_kernel_obstruction(self):
        assert solve_left(M(GF2, [[1, 1]]), M(GF2, [[1, 0]])) is None

    def test_solve_left_rational(self):
        g = solve_left(M(QQ, [[1], [1]]), M(QQ, [[1]]))
        assert g is not None and g @ M(QQ, [[1], [1]]) == M(QQ, [[1]])
        assert matrix_to_rows(g) == [[1, 0]]

    @given(small_matrix(), small_matrix())
    def test_solve_left_soundness(self, v, w):
        if v.field != w.field or v.cols != w.cols:
            return
        g = solve_left(v, w)
        if g is not None:
            assert g @ v == w
        else:
            # obstruction is real: some kernel vector of v escapes ker w
            kv = kernel_basis(v)
            assert w @ kv != Matrix.zeros(w.field, w.rows, kv.cols)

    @given(small_matrix(max_dim=6), st.integers(0, 6))
    def test_solve_left_matches_reference(self, both, split):
        # unrelated V and W with one column count, cut from one matrix
        k = min(split, both.rows)
        V, W = both.take_rows(range(k)), both.take_rows(range(k, both.rows))
        assert solve_left(V, W) == reference_solve_left(V, W)

    def test_solve_left_checks_shape_and_field(self):
        with pytest.raises(ShapeError, match="solve_left"):
            solve_left(M(GF2, [[1, 0]]), M(GF2, [[1]]))
        with pytest.raises(FieldMismatch):
            solve_left(M(GF2, [[1]]), M(GF3, [[1]]))

    @given(small_matrix(), small_matrix())
    def test_solve_right_soundness(self, a, b):
        if a.field != b.field or a.rows != b.rows:
            return
        x = solve_right(a, b)
        if x is not None:
            assert a @ x == b
        else:
            assert not subspace_contains(a, b)


class TestBlocks:
    def test_direct_sum_units(self):
        assert direct_sum(M(QQ, [[1]]), M(QQ, [[1]])) == Matrix.identity(QQ, 2)
        assert matrix_to_rows(direct_sum(M(GF2, [[1, 1]]), M(GF2, [[0]]))) == [
            [1, 1, 0],
            [0, 0, 0],
        ]
        m = M(GF3, [[1, 2], [0, 1]])
        empty = Matrix.zeros(GF3, 0, 0)
        assert direct_sum(m, empty) == m
        assert direct_sum(empty, m) == m

    def test_stacking(self):
        a = M(QQ, [[1, 2]])
        b = M(QQ, [[3, 4]])
        assert matrix_to_rows(vstack(a, b)) == [[1, 2], [3, 4]]
        assert matrix_to_rows(hstack(a, b)) == [[1, 2, 3, 4]]

    def test_mixed_fields_rejected(self):
        with pytest.raises(FieldMismatch):
            hstack(M(QQ, [[1]]), M(GF2, [[1]]))

    def test_zero_row_matrix_needs_cols(self):
        with pytest.raises(ShapeError):
            Matrix.from_rows(QQ, [])
        assert Matrix.from_rows(QQ, [], 3).cols == 3


class TestExactness:
    def test_fraction_inverse_exact(self):
        # a mildly ill-conditioned matrix that floating point would smear
        h = M(QQ, [[Fraction(1, i + j + 1) for j in range(3)] for i in range(3)])
        hi = invert(h)
        assert h @ hi == Matrix.identity(QQ, 3)

    def test_invert_requires_square_invertible(self):
        with pytest.raises(ShapeError):
            invert(M(QQ, [[1, 2]]))
        with pytest.raises(ShapeError):
            invert(M(QQ, [[1, 1], [1, 1]]))


class TestTokens:
    def test_scalar_tokens(self):
        assert scalar_to_token(QQ, Fraction(3, 2)) == "3/2"
        assert scalar_to_token(QQ, Fraction(4, 2)) == 2
        assert scalar_to_token(GF3, 2) == 2

    @given(small_matrix())
    def test_rows_round_trip(self, m):
        rows = matrix_to_rows(m)

        def untok(t):
            if isinstance(t, str):
                n, d = t.split("/")
                return Fraction(int(n), int(d))
            return m.field.coerce(t)

        back = Matrix.from_rows(
            m.field, [[untok(t) for t in row] for row in rows], m.cols
        )
        assert back == m


# --- integer kernels over Q -------------------------------------------------
#
# ``rref`` and ``@`` compute on integer rows over Q. The references below are
# the earlier algorithms written out plainly: Gauss-Jordan on ``Fraction``
# (or residue) entries, and the triple-loop product.


def reference_rref(m: Matrix):
    p = m.field.characteristic
    rows = [list(r) for r in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        pr = next((i for i in range(r, m.rows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        if p == 0:
            inv = Fraction(1) / rows[r][c]
            rows[r] = [x * inv for x in rows[r]]
        else:
            inv = pow(rows[r][c], p - 2, p)
            rows[r] = [x * inv % p for x in rows[r]]
        for i in range(m.rows):
            f = rows[i][c]
            if i != r and f != 0:
                rows[i] = [
                    (a - f * b) % p if p else a - f * b
                    for a, b in zip(rows[i], rows[r])
                ]
        pivots.append(c)
        r += 1
    return rows, tuple(pivots), r


def reference_product(a: Matrix, b: Matrix):
    p = a.field.characteristic
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            s = a.field.zero()
            for k in range(a.cols):
                s += a.entries[i][k] * b.entries[k][j]
            row.append(s % p if p else s)
        out.append(row)
    return out


def assert_entry_types(m: Matrix):
    p = m.field.characteristic
    for row in m.entries:
        for x in row:
            if p:
                assert type(x) is int and 0 <= x < p
            else:
                assert type(x) is Fraction


KERNEL_FIELDS = (GF2, GF3, Field(5), QQ)
RATIONALS = st.builds(
    Fraction,
    st.one_of(st.integers(-9, 9), st.integers(-10 ** 12, 10 ** 12)),
    st.integers(1, 12),
)


def entries_over(field):
    if field.characteristic:
        return st.integers(0, field.characteristic - 1)
    return st.one_of(st.just(Fraction(0)), RATIONALS)


@st.composite
def kernel_matrix(draw, field=None, rows=None, cols=None, max_dim=6):
    if field is None:
        field = draw(st.sampled_from(KERNEL_FIELDS))
    r = draw(st.integers(0, max_dim)) if rows is None else rows
    c = draw(st.integers(0, max_dim)) if cols is None else cols
    data = draw(st.lists(
        st.lists(entries_over(field), min_size=c, max_size=c),
        min_size=r, max_size=r,
    ))
    # all-zero rows and rows that repeat earlier ones make the elimination
    # meet rows that cancel to zero
    if r >= 2 and draw(st.booleans()):
        data[draw(st.integers(1, r - 1))] = [field.zero()] * c
    if r >= 2 and draw(st.booleans()):
        data[-1] = list(data[0])
    return Matrix.from_rows(field, data, c)


@st.composite
def product_pair(draw):
    field = draw(st.sampled_from(KERNEL_FIELDS))
    n, k, m = (draw(st.integers(0, 5)) for _ in range(3))
    a = draw(kernel_matrix(field=field, rows=n, cols=k))
    b = draw(kernel_matrix(field=field, rows=k, cols=m))
    return a, b


def assert_rref_matches_reference(m: Matrix):
    got = rref(m)
    rows, pivots, r = reference_rref(m)
    assert got.R.entries == tuple(tuple(row) for row in rows)
    assert (got.pivots, got.rank) == (pivots, r)
    assert (got.R.rows, got.R.cols) == (m.rows, m.cols)
    assert_entry_types(got.R)


class TestIntegerKernels:
    @given(kernel_matrix())
    def test_rref_matches_fraction_gauss_jordan(self, m):
        assert_rref_matches_reference(m)

    @given(product_pair())
    def test_product_matches_triple_loop(self, pair):
        a, b = pair
        got = a @ b
        assert [list(row) for row in got.entries] == reference_product(a, b)
        assert (got.rows, got.cols) == (a.rows, b.cols)
        assert_entry_types(got)

    @pytest.mark.parametrize("field", KERNEL_FIELDS)
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (2, 3)])
    def test_empty_and_zero_shapes(self, field, shape):
        z = Matrix.zeros(field, *shape)
        assert_rref_matches_reference(z)
        for other in (Matrix.zeros(field, shape[1], 2), Matrix.zeros(field, shape[1], 0)):
            got = z @ other
            assert got == Matrix.zeros(field, shape[0], other.cols)
            assert_entry_types(got)
        ones = Matrix.from_rows(field, [[1] * shape[0]] * 2, shape[0])
        assert ones @ z == Matrix.zeros(field, 2, shape[1])

    def test_rational_growth_8x8(self):
        # Hilbert-like entries with sign changes: the integer rows grow far
        # past the entries before each row is divided by its gcd
        m = Matrix.from_rows(QQ, [
            [Fraction((-1) ** (i * j) * (i + 2 * j + 1), i + j + 1) for j in range(8)]
            for i in range(8)
        ])
        assert_rref_matches_reference(m)
        red = rref(m)
        assert red.rank == 8 and red.R == Matrix.identity(QQ, 8)
        wide = hstack(m, Matrix.identity(QQ, 8))
        assert_rref_matches_reference(wide)
        inv = invert(m)
        assert m @ inv == Matrix.identity(QQ, 8)
        assert [list(row) for row in (m @ inv).entries] == reference_product(m, inv)
        assert_entry_types(inv)

    def test_rows_that_cancel_to_zero(self):
        # the third row is a rational combination of the first two, so the
        # elimination reduces it to an all-zero integer row (gcd 0)
        m = M(QQ, [
            [Fraction(1, 2), Fraction(-3, 7), 5],
            [Fraction(2, 9), 1, Fraction(-1, 4)],
            [Fraction(1, 2) + Fraction(4, 9), Fraction(-3, 7) + 2, Fraction(9, 2)],
        ])
        assert_rref_matches_reference(m)
        assert rref(m).rank == 2


class TestHashOnce:
    """``Matrix`` hashes once and keeps the dataclass hash contract."""

    @pytest.mark.parametrize("field", FIELDS, ids=("GF2", "GF3", "QQ"))
    def test_equal_values_from_different_routes_hash_equal(self, field):
        half = Fraction(1, 2) if field == QQ else 1
        a = M(field, [[half, 0], [0, 1]])
        routes = [
            M(field, [[half, 0], [0, 1]]),
            direct_sum(M(field, [[half]]), Matrix.identity(field, 1)),
            a @ Matrix.identity(field, 2),
            hstack(a.take_cols([0]), a.take_cols([1])),
            a.transpose().transpose(),
        ]
        for b in routes:
            assert b == a and b is not a
            assert hash(b) == hash(a)
            assert hash(b) == hash((b.field, b.rows, b.cols, b.entries))

    def test_hash_is_stable_across_calls(self):
        m = M(QQ, [[Fraction(1, 3), Fraction(-2, 5)], [7, 0]])
        first = hash(m)
        assert [hash(m) for _ in range(3)] == [first] * 3
        assert hash(M(QQ, [[Fraction(1, 3), Fraction(-2, 5)], [7, 0]])) == first

    def test_cached_hash_is_not_part_of_the_value(self):
        m, n = M(GF3, [[1, 2]]), M(GF3, [[1, 2]])
        before = repr(m)
        hash(m)
        assert repr(m) == before == repr(n)
        assert m == n and n == m
        assert [f.name for f in dataclasses.fields(m)] == [
            "field", "rows", "cols", "entries"
        ]
        assert dataclasses.astuple(m) == dataclasses.astuple(n)
        assert M(GF3, [[1, 1]]) != m

    def test_lru_cache_hits_on_an_equal_distinct_key(self):
        @lru_cache(maxsize=None)
        def r(x):
            return rank(x)

        a = M(QQ, [[Fraction(1, 2), 1], [1, 2]])
        b = vstack(a.take_rows([0]), a.take_rows([1]))
        assert b == a and b is not a
        r(a)
        r(b)
        assert (r.cache_info().hits, r.cache_info().misses) == (1, 1)

    def test_fewer_than_two_fields_are_refused(self):
        # the key of one field would be the bare field, not the 1-tuple the
        # dataclass hashes
        @dataclasses.dataclass(frozen=True)
        class One:
            x: int

        @dataclasses.dataclass(frozen=True)
        class Empty:
            pass

        for cls in (One, Empty):
            with pytest.raises(TypeError, match="two or more fields"):
                hash_once(cls)
            assert cls.__hash__ is not None and "_hash" not in vars(cls)


# Reference constructions: block matrices stacked from explicit zero blocks,
# the dense zero test and elementwise negation, as the library built them
# before it wrote blocks in place and skipped work on zero entries.


def reference_block_matrix(field, heights, widths, parts):
    """``hstack``/``vstack`` of the parts with ``Matrix.zeros`` in the gaps;
    needs at least one block row and one block column."""
    return vstack(*(
        hstack(*(
            parts[i, j] if (i, j) in parts else Matrix.zeros(field, h, w)
            for j, w in enumerate(widths)
        ))
        for i, h in enumerate(heights)
    ))


def reference_is_zero(m):
    return all(x == m.field.zero() for row in m.entries for x in row)


def reference_neg(m):
    p = m.field.characteristic
    return Matrix(m.field, m.rows, m.cols, tuple(
        tuple(-a if p == 0 else (-a) % p for a in row) for row in m.entries
    ))


def _random_layout(rng, field):
    heights = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
    widths = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
    parts = {
        (i, j): rand_matrix(rng, field, h, w)
        for i, h in enumerate(heights)
        for j, w in enumerate(widths)
        if rng.random() < 0.5
    }
    return heights, widths, parts


def _assert_same_value(a, b):
    assert a == b
    assert repr(a) == repr(b)


class TestBlockMatrix:
    @pytest.mark.parametrize("field", FIELDS, ids=("GF2", "GF3", "QQ"))
    def test_matches_stacked_reference(self, field):
        rng = random.Random(3100 + field.characteristic)
        empty_blocks = 0
        for _ in range(200):
            heights, widths, parts = _random_layout(rng, field)
            empty_blocks += 0 in heights or 0 in widths
            _assert_same_value(
                block_matrix(field, heights, widths, parts),
                reference_block_matrix(field, heights, widths, parts),
            )
        assert empty_blocks >= 50

    @pytest.mark.parametrize("field", FIELDS, ids=("GF2", "GF3", "QQ"))
    def test_layout_without_parts_is_zero(self, field):
        for heights, widths in (((2, 0, 1), (3, 1)), ((0,), (0, 2)), ((1,), (0,))):
            m = block_matrix(field, heights, widths, {})
            _assert_same_value(m, Matrix.zeros(field, sum(heights), sum(widths)))
            _assert_same_value(m, reference_block_matrix(field, heights, widths, {}))
        assert block_matrix(field, (), (2,), {}) == Matrix.zeros(field, 0, 2)
        assert block_matrix(field, (2,), (), {}) == Matrix.zeros(field, 2, 0)

    def test_none_marks_an_absent_block(self):
        a = M(GF3, [[1, 2]])
        assert block_matrix(GF3, (1, 1), (2,), {(0, 0): a, (1, 0): None}) == (
            block_matrix(GF3, (1, 1), (2,), {(0, 0): a})
        )

    def test_direct_sum_is_the_diagonal_layout(self):
        rng = random.Random(77)
        for field in FIELDS:
            for _ in range(30):
                a = rand_matrix(rng, field, rng.randint(0, 3), rng.randint(0, 3))
                b = rand_matrix(rng, field, rng.randint(0, 3), rng.randint(0, 3))
                z = field.zero()
                stacked = Matrix(
                    field, a.rows + b.rows, a.cols + b.cols,
                    tuple(row + (z,) * b.cols for row in a.entries)
                    + tuple((z,) * a.cols + row for row in b.entries),
                )
                _assert_same_value(direct_sum(a, b), stacked)

    def test_wrong_field_block_raises(self):
        with pytest.raises(FieldMismatch):
            block_matrix(QQ, (1,), (1,), {(0, 0): M(GF2, [[1]])})
        with pytest.raises(FieldMismatch):
            parts = {(0, 0): M(GF3, [[1]]), (1, 0): M(GF2, [[1]])}
            block_matrix(GF3, (1, 1), (1,), parts)
        with pytest.raises(FieldMismatch):
            direct_sum(M(QQ, [[1]]), M(GF3, [[1]]))

    def test_wrong_shape_block_raises(self):
        with pytest.raises(ShapeError):
            block_matrix(QQ, (1,), (2,), {(0, 0): M(QQ, [[1]])})
        with pytest.raises(ShapeError):
            block_matrix(QQ, (2, 1), (1,), {(1, 0): M(QQ, [[1], [0]])})
        with pytest.raises(ShapeError):
            block_matrix(QQ, (1,), (1,), {(0, 1): M(QQ, [[1]])})
        with pytest.raises(ShapeError):
            block_matrix(QQ, (1,), (1,), {(-1, 0): M(QQ, [[1]])})


class TestZeroEntries:
    """Shared rational constants, the truthiness zero test and negation that
    leaves zeros alone keep the values of the dense reference."""

    def test_rational_constants_behave_as_fractions(self):
        for got, want in ((QQ.zero(), Fraction(0)), (QQ.one(), Fraction(1))):
            assert type(got) is Fraction
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert QQ.zero() is QQ.zero() and QQ.one() is QQ.one()
        assert (GF2.zero(), GF2.one(), GF3.zero(), GF3.one()) == (0, 1, 0, 1)

    def test_kernels_emit_the_shared_zero(self):
        z = QQ.zero()
        a = M(QQ, [[1, 2, 0], [2, 4, 0]])
        prod = a @ M(QQ, [[2, 0], [-1, 0], [5, 0]])
        red = rref(a).R
        for m in (prod, red, Matrix.zeros(QQ, 2, 2), Matrix.identity(QQ, 2)):
            zeros = [x for row in m.entries for x in row if x == 0]
            assert zeros and all(x is z for x in zeros)

    @given(small_matrix())
    def test_is_zero_matches_reference(self, m):
        assert m.is_zero() == reference_is_zero(m)

    def test_is_zero_on_distinct_zero_objects(self):
        rows = ((Fraction(0), Fraction(0, 5)), (-Fraction(0), Fraction(0)))
        assert Matrix(QQ, 2, 2, rows).is_zero()
        one_nonzero = rows[:1] + ((Fraction(0), Fraction(1, 7)),)
        assert not Matrix(QQ, 2, 2, one_nonzero).is_zero()
        for field in FIELDS:
            assert Matrix.zeros(field, 0, 3).is_zero()
            assert Matrix.zeros(field, 3, 0).is_zero()

    @given(small_matrix())
    def test_negation_matches_reference(self, m):
        neg = -m
        _assert_same_value(neg, reference_neg(m))
        for row, nrow in zip(m.entries, neg.entries):
            for a, b in zip(row, nrow):
                if m.field == QQ and not a:
                    assert b is a
