"""The nine advertised guarantees, one test per criterion.

Every test prints one "ACCEPTANCE n: PASS" line on success so a log scan
gives the scorecard. All counts and dimension ranges are stated inline;
all randomness is seeded, so reruns perform identical work. Dimensions are
integers and arithmetic is exact, so every comparison is equality, never
a tolerance.
"""

import itertools
import json
import random

import pytest

from abcosp.abcat import (
    LinMap,
    SquareDiagram,
    VecObj,
    compose,
    identity,
    is_exact_at_middle,
    is_exact_square,
    square_complex,
)
from abcosp.brown import (
    BrownFunctor,
    chain_homology_cospan,
    chain_homology_span,
    class_payload,
    cospanical_extend,
    homology_cospan,
    iota_cospanical,
    iota_spanical,
    spanical_extend,
)
from abcosp.cospan import (
    Cospan,
    canonical_cosp,
    canonical_span,
    compose_cosp,
    compose_span,
    dagger_cosp,
    dagger_span,
    equiv_cosp,
    equiv_span,
    iota_cosp,
    leq_cosp,
    leq_span,
    lower_bound,
    tensor_cosp,
    transpose_cosp,
    transpose_span,
    upper_bound,
)
from abcosp.cw import (
    augmented_chain,
    closure_and_validate,
    homology_dims,
    iota_space,
    make_simplicial_map,
    mv_exactness_check,
    simplicial_cone,
    space_compose_chain_model,
    t_sigma_chain,
    t_sigma_of_chain,
)
from abcosp.exactlin import GF2, GF3, QQ, Matrix, image_basis, matrix_to_rows, rank
from abcosp.generators import (
    bits_to_matrix,
    brute_force_leq_gf2,
    brute_force_upper_bound_gf2,
    enum_cospans_gf2,
    enum_gf2_bits,
    rand_commuting_square,
    rand_composable_space_cospans,
    rand_cospan,
    rand_cospan_chain,
    rand_leq_pair,
    rand_triad,
)

FIELDS = (GF2, GF3, QQ)


def _passed(n):
    print(f"ACCEPTANCE {n}: PASS")


def _linmaps_gf2(a, b):
    src, dst = VecObj(GF2, a), VecObj(GF2, b)
    for bits in enum_gf2_bits(b, a):
        yield LinMap(src, dst, bits_to_matrix(GF2, bits, a))


def test_acceptance_1_exact_square_criterion():
    # the two exactness routes must agree on every commuting square over
    # GF(2) with corners of dim <= 2: exhaustive at dim <= 1, then seeded
    # samples up to the 10^5 cap
    checked = exact = 0
    for a, b, c, d in itertools.product(range(2), repeat=4):
        for f in _linmaps_gf2(a, b):
            for fp in _linmaps_gf2(a, c):
                for g in _linmaps_gf2(b, d):
                    for gp in _linmaps_gf2(c, d):
                        if compose(g, f) != compose(gp, fp):
                            continue
                        sq = SquareDiagram(f, fp, g, gp)
                        direct = is_exact_square(sq)
                        assert direct == is_exact_at_middle(square_complex(sq))
                        checked += 1
                        exact += direct
    rng = random.Random(20260815)
    while checked < 100_000:
        sq = rand_commuting_square(rng, GF2, 2)
        direct = is_exact_square(sq)
        assert direct == is_exact_at_middle(square_complex(sq))
        checked += 1
        exact += direct
    assert checked == 100_000
    assert 0 < exact < checked  # both verdicts exercised
    _passed(1)


@pytest.fixture(scope="module")
def gf2_pool():
    # every GF(2) cospan with feet dims <= 2 and bulk <= 2, grouped by feet
    return {
        (a0, a1): list(enum_cospans_gf2(GF2, a0, a1, 2))
        for a0 in range(3)
        for a1 in range(3)
    }


def test_acceptance_2_preorder_decision(gf2_pool):
    pairs = positives = 0
    for group in gf2_pool.values():
        for c in group:
            for d in group:
                w = brute_force_leq_gf2(c, d)
                g = leq_cosp(c, d)
                assert (g is not None) == w, (c, d)
                pairs += 1
                if g is None:
                    continue
                positives += 1
                assert rank(g.mat) == c.bulk.dim
                assert g.mat @ c.f0.mat == d.f0.mat
                assert g.mat @ c.f1.mat == d.f1.mat
    assert pairs == 86_617 and sum(len(g) for g in gf2_pool.values()) == 499
    assert 0 < positives < pairs
    _passed(2)


def test_acceptance_3_equivalence_decision(gf2_pool):
    pairs = 0
    for group in gf2_pool.values():
        for c in group:
            for d in group:
                eq = equiv_cosp(c, d)
                assert eq == brute_force_upper_bound_gf2(c, d), (c, d)
                ub, lb = upper_bound(c, d), lower_bound(c, d)
                assert (ub is not None) == (lb is not None) == eq
                pairs += 1
    assert pairs == 86_617
    _passed(3)


def test_acceptance_4_category_laws():
    cospans_made = {2: 0, 3: 0, 0: 0}
    for field in FIELDS:
        rng = random.Random(911 + field.characteristic)
        for _ in range(150):
            c0, c1, c2 = rand_cospan_chain(rng, field, 3, 3, 4)
            d0, d1 = rand_cospan_chain(rng, field, 2, 3, 4)
            cospans_made[field.characteristic] += 5
            assert equiv_cosp(
                compose_cosp(compose_cosp(c0, c1), c2),
                compose_cosp(c0, compose_cosp(c1, c2)),
            )
            u0 = iota_cosp(identity(c0.foot0))
            u1 = iota_cosp(identity(c0.foot1))
            assert equiv_cosp(compose_cosp(u0, c0), c0)
            assert equiv_cosp(compose_cosp(c0, u1), c0)
            assert equiv_cosp(
                dagger_cosp(compose_cosp(c0, c1)),
                compose_cosp(dagger_cosp(c1), dagger_cosp(c0)),
            )
            assert equiv_cosp(
                compose_cosp(tensor_cosp(c0, d0), tensor_cosp(c1, d1)),
                tensor_cosp(compose_cosp(c0, c1), compose_cosp(d0, d1)),
            )
            low, high = rand_leq_pair(rng, field, 3, 4)
            pre = rand_cospan(rng, field, rng.randint(0, 3), low.foot0.dim, 4)
            post = rand_cospan(rng, field, low.foot1.dim, rng.randint(0, 3), 4)
            side = rand_cospan(rng, field, rng.randint(0, 3), rng.randint(0, 3), 4)
            cospans_made[field.characteristic] += 5
            assert leq_cosp(low, high) is not None
            assert leq_cosp(compose_cosp(low, post), compose_cosp(high, post)) is not None
            assert leq_cosp(compose_cosp(pre, low), compose_cosp(pre, high)) is not None
            assert leq_cosp(tensor_cosp(low, side), tensor_cosp(high, side)) is not None
            assert leq_cosp(tensor_cosp(side, low), tensor_cosp(side, high)) is not None
    assert all(n >= 1000 for n in cospans_made.values())
    _passed(4)


def _negate_second_block(cls):
    # the canonical kernel with its second-foot rows negated, re-canonicalized
    a0 = cls.A0.dim
    rows = [
        tuple(cls.K.entry(i, j) for j in range(cls.K.cols))
        if i < a0
        else tuple(-cls.K.entry(i, j) for j in range(cls.K.cols))
        for i in range(cls.K.rows)
    ]
    m = Matrix(cls.K.field, cls.K.rows, cls.K.cols, tuple(rows))
    return image_basis(m)


def test_acceptance_5_transposition_theorem():
    for field in FIELDS:
        rng = random.Random(1733 + field.characteristic)
        for _ in range(150):
            c0, c1 = rand_cospan_chain(rng, field, 2, 3, 4)
            assert equiv_cosp(transpose_span(transpose_cosp(c0)), c0)
            assert equiv_span(
                transpose_cosp(compose_cosp(c0, c1)),
                compose_span(transpose_cosp(c0), transpose_cosp(c1)),
            )
            assert canonical_span(transpose_cosp(dagger_cosp(c0))) == canonical_span(
                dagger_span(transpose_cosp(c0))
            )
            # the span class of the transpose is the cospan class up to the
            # sign flip on the second foot
            assert canonical_span(transpose_cosp(c0)).K == _negate_second_block(
                canonical_cosp(c0)
            )
    _passed(5)


def _sphere(n):
    verts = n + 2
    top = list(range(verts))
    return closure_and_validate(
        verts, [top[:i] + top[i + 1 :] for i in range(verts)]
    )


def test_acceptance_6_homology_goldens():
    for n in (0, 1, 2):
        K = _sphere(n)
        for field in FIELDS:
            assert homology_dims(augmented_chain(K, field)) == {n: 1}
            assert homology_dims(augmented_chain(simplicial_cone(K), field)) == {}
    path = closure_and_validate(3, [[0, 1], [1, 2]])
    for field in FIELDS:
        assert homology_dims(augmented_chain(simplicial_cone(path), field)) == {}
    _passed(6)


def test_acceptance_7_mayer_vietoris():
    rng = random.Random(4903)
    for i in range(500):
        T, K0, K1, L = rand_triad(rng, 8)
        field = FIELDS[i % 3]
        for q in range(4):
            assert mv_exactness_check(T, K0, K1, L, q, field), (i, q)
    _passed(7)


def test_acceptance_8_brown_extension():
    rng = random.Random(6007)
    for i in range(200):
        c, d = rand_composable_space_cospans(rng, 8)
        field = FIELDS[i % 3]
        for q in (0, 1, 2):
            E = BrownFunctor(field, q)
            lhs = compose_cosp(homology_cospan(E, c), homology_cospan(E, d))
            cc = space_compose_chain_model(c, d, field)
            rhs = chain_homology_cospan(E, cc)
            g = leq_cosp(lhs, rhs)
            assert g is not None, (i, q)
            assert rank(g.mat) == lhs.bulk.dim
            assert g.mat @ lhs.f0.mat == rhs.f0.mat
            assert g.mat @ lhs.f1.mat == rhs.f1.mat
            assert canonical_cosp(lhs) == canonical_cosp(rhs)
            if q >= 1:
                sa = chain_homology_span(E, t_sigma_chain(c, field))
                sb = chain_homology_span(E, t_sigma_chain(d, field))
                lhs_sp = compose_span(sa, sb)
                rhs_sp = chain_homology_span(E, t_sigma_of_chain(cc))
                x = leq_span(lhs_sp, rhs_sp)
                assert x is not None, (i, q)
                assert rank(x.mat) == lhs_sp.bulk.dim
                assert lhs_sp.g0.mat @ x.mat == rhs_sp.g0.mat
                assert lhs_sp.g1.mat @ x.mat == rhs_sp.g1.mat
                assert canonical_span(lhs_sp) == canonical_span(rhs_sp)
            for m in (c.f0, c.f1, d.f0, d.f1):
                assert cospanical_extend(E, iota_space(m)).cls == iota_cospanical(E, m)
                if q >= 1:
                    assert spanical_extend(E, iota_space(m)).cls == iota_spanical(
                        E, m
                    )
    _passed(8)


def test_acceptance_9_worked_instance():
    frozen_q0 = '{"foot0":1,"foot1":1,"kernel":[[1,0],[0,1]]}'
    frozen_q1 = '{"foot0":0,"foot1":0,"kernel":[]}'
    s0 = closure_and_validate(2, [[0], [1]])
    edge = closure_and_validate(2, [[0, 1]])
    f = make_simplicial_map(s0, edge, (0, 1))
    arc = Cospan(f, f)
    for field in FIELDS:
        for q, frozen in ((0, frozen_q0), (1, frozen_q1)):
            E = BrownFunctor(field, q)
            runs = []
            for _ in range(2):
                cls = canonical_cosp(
                    chain_homology_cospan(E, space_compose_chain_model(arc, arc, field))
                )
                runs.append(
                    json.dumps(
                        class_payload(cls), sort_keys=True, separators=(",", ":")
                    )
                )
            assert runs[0] == runs[1] == frozen, (field, q)
    # the small worked composition pair, frozen the same way
    for field in (GF2, QQ):
        A = VecObj(field, 1)
        c = Cospan(
            LinMap(A, A, Matrix.from_rows(field, [[1]])),
            LinMap(A, A, Matrix.from_rows(field, [[0]])),
        )
        d = Cospan(
            LinMap(A, A, Matrix.from_rows(field, [[1]])),
            LinMap(A, A, Matrix.from_rows(field, [[1]])),
        )
        cls = canonical_cosp(compose_cosp(c, d))
        assert matrix_to_rows(cls.K) == [[0], [1]]
    _passed(9)
