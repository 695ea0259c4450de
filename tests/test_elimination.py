"""One elimination in place of rank-per-candidate loops.

``extend_columns`` keeps the candidate columns that a greedy loop would
keep, and ``_mono_witness`` and ``homology`` read their results off that
single elimination. ``kernel_rref`` reads the echelon basis of a kernel off
one elimination too, and ``cokernel`` and ``canonical_cosp`` are built on
it. The greedy loop, a Gauss-Jordan ``invert``, the unit-completion
cokernel and the ``Q @ invert(P)`` witness are kept here, written out the
slow way, as the references the library must match entry for entry.

The two kernel forms are checked against a reference that calls no
``exactlin`` routine: the kernel over GF(2) and GF(3), enumerated vector by
vector and echelon-reduced on plain integer lists. ``tests/test_modp.py``
checks the rational kernels.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from abcosp import cw, exactlin
from abcosp.abcat import LinMap, VecObj, cokernel
from abcosp.cospan import (
    _mono_witness,
    canonical_cosp,
    joint_map,
    joint_span_map,
    transpose_cosp,
)
from abcosp.exactlin import (
    GF2,
    GF3,
    QQ,
    Matrix,
    ShapeError,
    extend_columns,
    hstack,
    image_basis,
    kernel_basis,
    kernel_rref,
    rank,
    rref,
    vstack,
)
from abcosp.generators import rand_complex, rand_cospan, rand_leq_pair, rand_linmap

FIELDS = (GF2, GF3, QQ)


def greedy_columns(base: Matrix, cands: Matrix) -> tuple:
    """Candidates kept by the rank loop: one rank computation per column."""
    kept = []
    cur = base
    r = rank(cur)
    for j in range(cands.cols):
        cand = hstack(cur, cands.take_cols([j]))
        rc = rank(cand)
        if rc > r:
            kept.append(j)
            cur, r = cand, rc
    return tuple(kept)


def invert(M: Matrix) -> Matrix:
    """Inverse of a square invertible matrix; raises ShapeError otherwise."""
    if M.rows != M.cols:
        raise ShapeError("only square matrices can be inverted")
    red = rref(hstack(M, Matrix.identity(M.field, M.rows)))
    if any(pc >= M.rows for pc in red.pivots):
        raise ShapeError("matrix is singular")
    return red.R.take_cols(range(M.rows, 2 * M.rows))


def reference_cokernel(f: LinMap) -> Matrix:
    """Dual coordinates along greedy units: rows of ``invert([B | units])``."""
    n = f.dst.dim
    B = image_basis(f.mat)
    units = Matrix.identity(f.mat.field, n)
    P = hstack(B, units.take_cols(greedy_columns(B, units)))
    Pinv = invert(P) if n else Matrix.zeros(f.mat.field, 0, 0)
    return Pinv.take_rows(range(B.cols, n))


def reference_mono_witness(v: Matrix, vp: Matrix):
    """``Q @ invert(P)`` with ``P = [v_J | E]``, ``Q = [vp_J | E']``."""
    field = v.field
    b, bp = v.rows, vp.rows
    if b > bp or image_basis(kernel_basis(v)) != image_basis(kernel_basis(vp)):
        return None
    J = rref(v).pivots
    want = b - len(J)
    vJ, vpJ = v.take_cols(J), vp.take_cols(J)
    units, unitsp = Matrix.identity(field, b), Matrix.identity(field, bp)
    P = hstack(vJ, units.take_cols(greedy_columns(vJ, units)[:want]))
    Q = hstack(vpJ, unitsp.take_cols(greedy_columns(vpJ, unitsp)[:want]))
    return Q @ invert(P) if b else Matrix.zeros(field, bp, 0)


@st.composite
def matrix_over(draw, field, rows, max_cols=5):
    cols = draw(st.integers(0, max_cols))
    if field.characteristic:
        ent = st.integers(0, field.characteristic - 1)
    else:
        ent = st.integers(-2, 2).map(Fraction)
    grid = draw(st.lists(
        st.lists(ent, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ))
    return Matrix.from_rows(field, grid, cols)


@st.composite
def base_and_candidates(draw):
    field = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(0, 5))
    return draw(matrix_over(field, rows)), draw(matrix_over(field, rows, 6))


@given(base_and_candidates())
def test_extend_columns_keeps_the_greedy_columns(pair):
    base, cands = pair
    kept, red = extend_columns(base, cands)
    assert kept == greedy_columns(base, cands)
    assert red == rref(hstack(base, cands))


def test_extend_columns_skips_dependent_base_columns():
    base = Matrix.from_rows(QQ, [[1, 2], [0, 0], [0, 0]])
    kept, red = extend_columns(base, Matrix.identity(QQ, 3))
    assert kept == (1, 2)
    assert red.rank == 3


def enumerated_kernel(M: Matrix) -> list:
    """Every vector of ``ker M`` over GF(p), found by trying them all."""
    p = M.field.characteristic
    return [
        x for x in itertools.product(range(p), repeat=M.cols)
        if all(sum(a * b for a, b in zip(row, x)) % p == 0 for row in M.entries)
    ]


def echelon_rows(vectors: list, p: int) -> tuple:
    """The nonzero rows of the reduced row echelon form of ``vectors`` over
    GF(p), by Gauss-Jordan on plain integer lists."""
    rows = [list(v) for v in vectors]
    out = []
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows if r[c]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = pow(pivot[c], p - 2, p)
        pivot = [a * inv % p for a in pivot]
        rows = [[(a - r[c] * b) % p for a, b in zip(r, pivot)] for r in rows]
        out = [[(a - r[c] * b) % p for a, b in zip(r, pivot)] for r in out]
        out.append(pivot)
    return tuple(map(tuple, out))


def reference_kernels(M: Matrix) -> tuple:
    """``kernel_rref(M)`` and ``kernel_basis(M)`` entries, from the enumerated
    kernel: its echelon basis, and its echelon basis in reversed coordinate
    order read back, in reverse order, as columns."""
    p, n = M.field.characteristic, M.cols
    ker = enumerated_kernel(M)
    flipped = echelon_rows([x[::-1] for x in ker], p)
    basis = [x[::-1] for x in reversed(flipped)]
    return echelon_rows(ker, p), tuple(zip(*basis)) if basis else ((),) * n


@given(st.sampled_from((GF2, GF3)), st.integers(0, 5), st.data())
def test_kernel_rref_matches_echelon_basis_of_kernel(field, rows, data):
    M = data.draw(matrix_over(field, rows, 6))
    echelon, basis = reference_kernels(M)
    K = kernel_rref(M)
    assert (K.rows, K.cols, K.entries) == (len(echelon), M.cols, echelon)
    B = kernel_basis(M)
    assert (B.rows, B.cols, B.entries) == (M.cols, len(echelon), basis)


def test_kernel_rref_of_empty_shapes():
    for field in FIELDS:
        for rows, cols in ((0, 0), (0, 3), (3, 0), (2, 2)):
            M = Matrix.zeros(field, rows, cols)
            assert kernel_rref(M) == Matrix.identity(field, cols)
            assert kernel_basis(M) == Matrix.identity(field, cols)
            if field.characteristic:
                assert reference_kernels(M) == (
                    kernel_rref(M).entries, kernel_basis(M).entries
                )


def test_kernel_rref_by_hand():
    # ker M is cut out by x0 + 2 x1 + 3 x3 = 0 and x2 + x3 / 2 = 0; its
    # echelon basis leads at x0 and x1, the pivots of M reversed are x3, x2
    M = Matrix.from_rows(QQ, [[1, 2, 0, 3], [0, 0, 1, Fraction(1, 2)]])
    third = Fraction(1, 3)
    assert kernel_rref(M) == Matrix.from_rows(
        QQ, [[1, 0, third / 2, -third], [0, 1, third, -2 * third]]
    )


def _count_rref(monkeypatch) -> list:
    calls = []
    real = exactlin.rref

    def counting(M):
        calls.append((M.rows, M.cols))
        return real(M)

    monkeypatch.setattr(exactlin, "rref", counting)
    return calls


def test_kernels_eliminate_once(monkeypatch):
    rng = random.Random(17)
    for field in FIELDS:
        M = rand_linmap(rng, field, 4, 3).mat
        flipped = Matrix(field, 3, 4, tuple(row[::-1] for row in M.entries))
        for kernel, other, seen in (
            (kernel_rref, "kernel_basis", flipped),
            (kernel_basis, "kernel_rref", M),
        ):
            calls = []
            real = exactlin.rref

            def recording(A):
                calls.append(A)
                return real(A)

            monkeypatch.setattr(exactlin, "rref", recording)
            # neither kernel form goes through the other
            monkeypatch.setattr(exactlin, other, None)
            kernel(M)
            assert calls == [seen]
            monkeypatch.undo()


def test_cokernel_and_canonical_class_eliminate_once(monkeypatch):
    rng = random.Random(16)
    for field in FIELDS:
        f = rand_linmap(rng, field, 3, 4)
        c = rand_cospan(rng, field, 2, 2, 3)
        canonical_cosp.cache_clear()
        calls = _count_rref(monkeypatch)
        cokernel(f)
        # one elimination of the src x dst transpose, not of dst x (src + dst)
        assert calls == [(3, 4)]
        calls.clear()
        canonical_cosp(c)
        # a miss eliminates the bulk x (a0 + a1) joint map once, a hit not at all
        assert calls == [(c.bulk.dim, 4)]
        canonical_cosp(c)
        assert calls == [(c.bulk.dim, 4)]
        monkeypatch.undo()


@given(st.sampled_from(FIELDS), st.integers(0, 5), st.data())
def test_cokernel_matches_unit_completion(field, n, data):
    mat = data.draw(matrix_over(field, n))
    f = LinMap(VecObj(field, mat.cols), VecObj(field, n), mat)
    assert cokernel(f).mat == reference_cokernel(f)


@given(st.sampled_from(FIELDS), st.integers(0, 4), st.data())
def test_mono_witness_matches_inverse_formula(field, b, data):
    v = data.draw(matrix_over(field, b))
    X = data.draw(matrix_over(field, b, 3)).transpose()
    vp = vstack(X @ v, v)
    G = _mono_witness(v, vp)
    assert G is not None
    assert G == reference_mono_witness(v, vp)


@given(st.sampled_from(FIELDS), st.integers(0, 10 ** 6))
def test_mono_witness_on_cospan_pairs(field, seed):
    rng = random.Random(seed)
    a, ap = rand_leq_pair(rng, field, 3, 3)
    c = rand_cospan(rng, field, a.foot0.dim, a.foot1.dim, 3)
    for left, right in ((a, ap), (ap, a), (c, ap)):
        v, vp = joint_map(left).mat, joint_map(right).mat
        assert _mono_witness(v, vp) == reference_mono_witness(v, vp)
    s, sp = transpose_cosp(a), transpose_cosp(ap)
    v = joint_span_map(s).mat.transpose()
    vp = joint_span_map(sp).mat.transpose()
    assert _mono_witness(v, vp) == reference_mono_witness(v, vp)


@given(st.sampled_from(FIELDS), st.integers(0, 3), st.integers(0, 4), st.data())
def test_mono_witness_exists_exactly_when_reference_does(field, b, bp, data):
    # unrelated matrices: every way a witness can fail to exist comes up
    both = data.draw(matrix_over(field, b + bp, 4))
    v, vp = both.take_rows(range(b)), both.take_rows(range(b, b + bp))
    assert _mono_witness(v, vp) == reference_mono_witness(v, vp)


@given(st.sampled_from(FIELDS), st.integers(0, 10 ** 6))
def test_homology_representatives_match_greedy_loop(field, seed):
    C = cw.augmented_chain(rand_complex(random.Random(seed), 6), field)
    for q in range(-1, 4):
        Z = kernel_basis(C.diff_mat(q))
        B = image_basis(C.diff_mat(q + 1))
        assert cw.homology(C, q).reps == Z.take_cols(greedy_columns(B, Z))
