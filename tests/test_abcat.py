"""Vector spaces and linear maps as an abelian category; exact squares."""

import pytest

from abcosp.abcat import (
    CompositionMismatch,
    LinMap,
    NonCommutingSquare,
    SquareDiagram,
    ThreeTermComplex,
    VecObj,
    biproduct,
    cokernel,
    cokernel_comparison,
    compose,
    identity,
    is_epi,
    is_exact_at_middle,
    is_exact_square,
    is_mono,
    kernel,
    kernel_comparison,
    pullback,
    pushout,
    square_complex,
)
from abcosp.exactlin import (
    GF2,
    GF3,
    QQ,
    Matrix,
    image_basis,
    kernel_basis,
    matrix_to_rows,
    subspace_equal,
)
from abcosp.generators import rand_commuting_square, rand_linmap
from builders import zero_map

FIELDS = (GF2, GF3, QQ)


def lm(field, src, dst, rows):
    return LinMap(
        VecObj(field, src), VecObj(field, dst),
        Matrix.from_rows(field, rows, src),
    )


def k(field):
    return VecObj(field, 1)


def middle_exact_by_subspaces(c):
    """``ker v == im u`` on canonical bases: the reference for the rank route."""
    return subspace_equal(kernel_basis(c.v.mat), image_basis(c.u.mat))


def test_identity_unit_law(rng):
    for field in FIELDS:
        f = rand_linmap(rng, field, 2, 3)
        assert compose(identity(f.dst), f) == f
        assert compose(f, identity(f.src)) == f


def test_compose_shape_check():
    with pytest.raises(CompositionMismatch):
        compose(lm(GF2, 1, 1, [[1]]), lm(GF2, 1, 2, [[1], [0]]))


def test_biproduct_block_law(rng):
    for field in FIELDS:
        f, fp = rand_linmap(rng, field, 2, 2), rand_linmap(rng, field, 1, 2)
        g, gp = rand_linmap(rng, field, 2, 1), rand_linmap(rng, field, 2, 1)
        left = compose(biproduct(g, gp), biproduct(f, fp))
        right = biproduct(compose(g, f), compose(gp, fp))
        assert left == right


def test_kernel_of_diagonal_is_zero_object():
    ker = kernel(lm(GF2, 1, 2, [[1], [1]]))
    assert ker.src.dim == 0 and is_mono(ker)


def test_cokernel_of_diagonal_gf2():
    cok = cokernel(lm(GF2, 1, 2, [[1], [1]]))
    assert matrix_to_rows(cok.mat) == [[1, 1]]


def test_cokernel_of_identity_is_zero():
    assert cokernel(identity(VecObj(QQ, 3))).dst.dim == 0


def test_cokernel_canonical_on_equal_images():
    # same column span, different presentations: identical cokernel matrices
    a = lm(QQ, 1, 2, [[1], [1]])
    b = lm(QQ, 1, 2, [[2], [2]])
    assert cokernel(a).mat == cokernel(b).mat


def test_kernel_cokernel_laws(rng):
    for field in FIELDS:
        for _ in range(20):
            f = rand_linmap(rng, field, rng.randint(0, 3), rng.randint(0, 3))
            ker, cok = kernel(f), cokernel(f)
            assert is_mono(ker) and is_epi(cok)
            assert compose(f, ker).mat.is_zero()
            assert compose(cok, f).mat.is_zero()
            r = f.src.dim - ker.src.dim
            assert cok.dst.dim == f.dst.dim - r


def test_mono_epi_trio():
    # the diagonal k -> k (+) k and the fold k (+) k -> k
    assert is_mono(lm(GF2, 1, 2, [[1], [1]]))
    assert is_epi(lm(GF2, 2, 1, [[1, 1]]))
    z = zero_map(k(GF2), k(GF2))
    assert not is_mono(z) and not is_epi(z)


def test_square_complex_identity_square():
    sq = SquareDiagram(
        identity(k(QQ)), identity(k(QQ)), identity(k(QQ)), identity(k(QQ))
    )
    c = square_complex(sq)
    assert matrix_to_rows(c.u.mat) == [[1], [-1]]
    assert matrix_to_rows(c.v.mat) == [[1, 1]]
    sq2 = SquareDiagram(
        identity(k(GF2)), identity(k(GF2)), identity(k(GF2)), identity(k(GF2))
    )
    assert matrix_to_rows(square_complex(sq2).u.mat) == [[1], [1]]


def test_square_complex_zero_square():
    z = VecObj(GF3, 1)
    sq = SquareDiagram(
        zero_map(z, z), zero_map(z, z), zero_map(z, z), zero_map(z, z)
    )
    c = square_complex(sq)
    assert c.u.mat.is_zero() and c.v.mat.is_zero()


def test_square_complex_rejects_noncommuting():
    one = k(GF2)
    two = VecObj(GF2, 2)
    sq = SquareDiagram(
        identity(one), identity(one),
        lm(GF2, 1, 2, [[1], [0]]), lm(GF2, 1, 2, [[0], [1]]),
    )
    assert sq.f.dst == one and sq.g.dst == two
    with pytest.raises(NonCommutingSquare):
        square_complex(sq)
    with pytest.raises(NonCommutingSquare):
        is_exact_square(sq)


def test_square_complex_multiplies_once(monkeypatch):
    # v . u is the only product: it is the commutation check as well
    calls = []
    matmul = Matrix.__matmul__

    def counting(a, b):
        calls.append((a.rows, a.cols, b.cols))
        return matmul(a, b)

    one = k(GF3)
    sq = SquareDiagram(identity(one), identity(one), identity(one), identity(one))
    monkeypatch.setattr(Matrix, "__matmul__", counting)
    square_complex(sq)
    assert calls == [(1, 2, 1)]


def test_three_term_complex_validates():
    with pytest.raises(ValueError):
        ThreeTermComplex(identity(k(QQ)), identity(k(QQ)))


def test_exactness_trivial_cases():
    one = k(QQ)
    zero = VecObj(QQ, 0)
    assert is_exact_at_middle(ThreeTermComplex(zero_map(zero, one), identity(one)))
    assert is_exact_at_middle(ThreeTermComplex(identity(one), zero_map(one, zero)))
    assert not is_exact_at_middle(
        ThreeTermComplex(zero_map(zero, one), zero_map(one, zero))
    )


def test_rank_route_matches_subspace_reference(rng):
    # complexes that do not come from squares: v = w . cokernel(u) kills
    # im u, and is exact at the middle exactly when w is mono
    for field in FIELDS:
        verdicts = set()
        for _ in range(60):
            u = rand_linmap(rng, field, rng.randint(0, 3), rng.randint(0, 4))
            q = cokernel(u)
            w = rand_linmap(rng, field, q.dst.dim, rng.randint(0, 3))
            c = ThreeTermComplex(u, compose(w, q))
            exact = is_exact_at_middle(c)
            assert exact == middle_exact_by_subspaces(c)
            verdicts.add(exact)
        assert verdicts == {True, False}


def test_exact_square_examples():
    one, two, zero = k(GF2), VecObj(GF2, 2), VecObj(GF2, 0)
    sq = SquareDiagram(
        identity(one), identity(one), identity(one), identity(one)
    )
    assert is_exact_square(sq)
    # pushout-shaped square with zero corner: injections into the biproduct
    sq = SquareDiagram(
        zero_map(zero, one), zero_map(zero, one),
        lm(GF2, 1, 2, [[1], [0]]), lm(GF2, 1, 2, [[0], [1]]),
    )
    assert is_exact_square(sq)
    # all-zero maps through zero objects: middle exactness holds vacuously
    sq = SquareDiagram(
        zero_map(one, zero), zero_map(one, zero),
        zero_map(zero, one), zero_map(zero, one),
    )
    assert is_exact_square(sq)


def test_exact_square_comparison_maps_agree(rng):
    # the mono/epi comparison criterion and middle exactness must agree
    for field in FIELDS:
        for _ in range(60):
            sq = rand_commuting_square(rng, field, 3)
            exact = is_exact_square(sq)
            kc, cc = kernel_comparison(sq), cokernel_comparison(sq)
            assert exact == (is_epi(kc) and is_mono(cc))
            assert exact == middle_exact_by_subspaces(square_complex(sq))


def _pushout_square(f, fp):
    return SquareDiagram(f, fp, *pushout(f, fp))


def _pullback_square(g, gp):
    return SquareDiagram(*pullback(g, gp), g, gp)


def test_pushout_squares_are_exact(rng):
    for field in FIELDS:
        for _ in range(20):
            f = rand_linmap(rng, field, 2, rng.randint(0, 3))
            fp = rand_linmap(rng, field, 2, rng.randint(0, 3))
            assert is_exact_square(_pushout_square(f, fp))


def test_pullback_squares_are_exact(rng):
    for field in FIELDS:
        for _ in range(20):
            g = rand_linmap(rng, field, rng.randint(0, 3), 2)
            gp = rand_linmap(rng, field, rng.randint(0, 3), 2)
            assert is_exact_square(_pullback_square(g, gp))


def test_pushout_and_pullback_commute(rng):
    for field in FIELDS:
        for _ in range(20):
            a, b, c = (rng.randint(0, 3) for _ in range(3))
            f, g = rand_linmap(rng, field, a, b), rand_linmap(rng, field, a, c)
            q0, q1 = pushout(f, g)
            assert q0.src == f.dst and q1.src == g.dst and q0.dst == q1.dst
            assert compose(q0, f) == compose(q1, g)
            f, g = rand_linmap(rng, field, b, a), rand_linmap(rng, field, c, a)
            p0, p1 = pullback(f, g)
            assert p0.dst == f.src and p1.dst == g.src and p0.src == p1.src
            assert compose(f, p0) == compose(g, p1)


def test_mismatched_corner_raises():
    with pytest.raises(CompositionMismatch):
        pushout(lm(QQ, 1, 1, [[1]]), lm(QQ, 2, 1, [[1, 0]]))
    with pytest.raises(CompositionMismatch):
        pullback(lm(QQ, 1, 1, [[1]]), lm(QQ, 1, 2, [[1], [0]]))
    with pytest.raises(CompositionMismatch):
        pushout(lm(GF2, 1, 1, [[1]]), lm(GF3, 1, 1, [[1]]))


def test_glued_exact_squares_stay_exact(rng):
    # paste two pushout squares side by side along the shared edge
    for field in FIELDS:
        for _ in range(20):
            f = rand_linmap(rng, field, 2, rng.randint(1, 3))
            fp = rand_linmap(rng, field, 2, rng.randint(1, 3))
            left = _pushout_square(f, fp)
            h = rand_linmap(rng, field, left.f.dst.dim, rng.randint(0, 3))
            right = _pushout_square(h, left.g)
            glued = SquareDiagram(
                compose(right.f, left.f),
                left.f_prime,
                right.g,
                compose(right.g_prime, left.g_prime),
            )
            assert is_exact_square(glued)
