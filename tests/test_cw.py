"""Simplicial complexes, chain models, homology, Mayer-Vietoris.

Homology goldens below (spheres, cones, wedges, the circle built from two
arcs) are classical values, written down before running anything.
"""

import random

import pytest

from abcosp.cw import (
    BadVertexIndex,
    ChainCospan,
    ChainSpan,
    InvalidMap,
    NotATriad,
    SpaceCospan,
    augmented_chain,
    chain_compose,
    chain_cospan_of,
    chain_direct_sum,
    chain_identity,
    chain_map_of,
    closure_and_validate,
    compose_chain_cospans,
    compose_simplicial,
    conjugate_sign,
    constant_map,
    dimension_filter,
    homology,
    homology_dims,
    identity_simplicial_map,
    inclusion_map,
    induced_on_homology,
    iota_space,
    make_chain_complex,
    make_chain_map,
    make_simplicial_map,
    mapping_cone,
    mv_exactness_check,
    point_complex,
    simplicial_cone,
    space_compose_chain_model,
    subdivide_edge,
    suspension_shift,
    suspension_shift_map,
    t_sigma_chain,
    t_sigma_of_chain,
    wedge,
    wedge_map,
)
from abcosp.exactlin import GF2, GF3, QQ, Matrix, hstack, matrix_to_rows, rank, vstack
from abcosp.generators import (
    rand_complex,
    rand_composable_space_cospans,
    rand_simplicial_map,
    rand_triad,
)

FIELDS = (GF2, GF3, QQ)


def circle():
    return closure_and_validate(3, [[0, 1], [1, 2], [0, 2]])


def s0():
    return closure_and_validate(2, [[0], [1]])


def edge():
    return closure_and_validate(2, [[0, 1]])


def sphere2():
    return closure_and_validate(4, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])


class TestComplexes:
    def test_circle_closure(self):
        K = circle()
        assert K.dim == 1
        assert len(K.simplices(0)) == 3 and len(K.simplices(1)) == 3

    def test_point(self):
        assert point_complex().dim == 0

    def test_full_triangle_has_seven_faces(self):
        K = closure_and_validate(3, [[0, 1, 2]])
        assert sum(len(K.simplices(q)) for q in range(K.dim + 1)) == 7

    def test_vertex_bound_checked(self):
        with pytest.raises(BadVertexIndex):
            closure_and_validate(2, [[0, 2]])

    def test_every_vertex_present(self):
        K = closure_and_validate(3, [[1, 2]])
        assert K.simplices(0) == ((0,), (1,), (2,))


class TestAugmentedChain:
    def test_point_acyclic(self):
        for f in FIELDS:
            assert homology_dims(augmented_chain(point_complex(), f)) == {}

    def test_circle_ranks(self):
        C = augmented_chain(circle(), QQ)
        assert C.dim(1) == 3 and C.dim(0) == 3
        assert rank(C.diff_mat(1)) == 2
        assert homology_dims(C) == {1: 1}

    def test_s0(self):
        for f in FIELDS:
            assert homology_dims(augmented_chain(s0(), f)) == {0: 1}

    def test_spheres_all_fields(self):
        for f in FIELDS:
            assert homology_dims(augmented_chain(sphere2(), f)) == {2: 1}

    def test_differential_squares_to_zero(self):
        C = augmented_chain(sphere2(), GF3)
        for q in range(0, 3):
            prod = C.diff_mat(q) @ C.diff_mat(q + 1)
            assert prod.is_zero()


class TestSimplicialMaps:
    def test_image_must_be_simplex(self):
        L = closure_and_validate(3, [[0, 1], [2]])
        with pytest.raises(InvalidMap):
            make_simplicial_map(edge(), L, (0, 2))

    def test_basepoint_preserved(self):
        with pytest.raises(InvalidMap):
            make_simplicial_map(s0(), s0(), (1, 0))

    def test_identity_chain_map(self):
        K = circle()
        for f in FIELDS:
            cm = chain_map_of(identity_simplicial_map(K), f)
            assert cm == chain_identity(augmented_chain(K, f))

    def test_collapse_kills_positive_degrees(self):
        cm = chain_map_of(constant_map(circle(), point_complex()), QQ)
        assert cm.comp_mat(1).is_zero()

    def test_swap_signs_on_circle(self):
        # swapping the two non-base vertices reverses exactly one edge
        K = circle()
        swap = make_simplicial_map(K, K, (0, 2, 1))
        cm = chain_map_of(swap, QQ)
        assert matrix_to_rows(cm.comp_mat(1)) == [
            [0, 1, 0],
            [1, 0, 0],
            [0, 0, -1],
        ]

    def test_functorial(self):
        K = circle()
        swap = make_simplicial_map(K, K, (0, 2, 1))
        collapse = constant_map(K, point_complex())
        lhs = chain_map_of(compose_simplicial(collapse, swap), GF3)
        rhs = chain_compose(chain_map_of(collapse, GF3), chain_map_of(swap, GF3))
        assert lhs == rhs


class TestWedge:
    def test_point_is_unit(self):
        K = circle()
        w = wedge(point_complex(), K)
        assert w.complex == K

    def test_s0_wedge_s0(self):
        w = wedge(s0(), s0())
        for f in FIELDS:
            assert homology_dims(augmented_chain(w.complex, f)) == {0: 2}

    def test_homology_additive(self):
        w = wedge(circle(), s0())
        assert homology_dims(augmented_chain(w.complex, QQ)) == {0: 1, 1: 1}

    def test_block_identification(self):
        w = wedge(circle(), circle())
        for f in (GF2, QQ):
            c0 = chain_map_of(w.incl0, f)
            c1 = chain_map_of(w.incl1, f)
            W = augmented_chain(w.complex, f)
            # positive degrees: simplices split cleanly, so the block map is an iso
            block = hstack(c0.comp_mat(1), c1.comp_mat(1))
            assert block.rows == block.cols == W.dim(1)
            assert rank(block) == W.dim(1)
            # degree 0 only identifies the two basepoints
            block0 = hstack(c0.comp_mat(0), c1.comp_mat(0))
            assert block0.cols == block0.rows + 1
            assert rank(block0) == W.dim(0)
            # on homology the identification is an iso in every degree
            for q in (0, 1):
                h = hstack(
                    induced_on_homology(c0, q).mat, induced_on_homology(c1, q).mat
                )
                assert h.rows == h.cols and rank(h) == h.rows

    def test_wedge_of_identities(self):
        w = wedge(s0(), circle())
        m = wedge_map(w, w, identity_simplicial_map(s0()), identity_simplicial_map(circle()))
        assert m == identity_simplicial_map(w.complex)


class TestSuspension:
    def test_shift_of_s0(self):
        for f in FIELDS:
            S = suspension_shift(augmented_chain(s0(), f))
            assert homology_dims(S) == {1: 1}

    def test_double_shift_is_plain_shift_by_two(self):
        C = augmented_chain(circle(), GF3)
        twice = suspension_shift(suspension_shift(C))
        expected = make_chain_complex(
            GF3,
            {q + 2: C.dim(q) for q in C.degrees()},
            {q + 2: C.diff_mat(q) for q in C.degrees() if C.dim(q) and C.dim(q - 1)},
        )
        assert twice == expected

    def test_conjugate_is_involution(self):
        C = suspension_shift(augmented_chain(circle(), QQ))
        cs = conjugate_sign(C)
        assert chain_compose(cs, cs) == chain_identity(C)

    def test_shifted_map_commutes(self):
        K = circle()
        swap = make_simplicial_map(K, K, (0, 2, 1))
        sm = suspension_shift_map(chain_map_of(swap, QQ))
        assert sm.src == suspension_shift(augmented_chain(K, QQ))


class TestMappingCone:
    def test_cone_of_identity_acyclic(self):
        for f in FIELDS:
            C = augmented_chain(circle(), f)
            cone, incl, proj = mapping_cone(chain_identity(C))
            assert homology_dims(cone) == {}
            assert incl.dst == cone and proj.src == cone

    def test_cone_of_zero_point_map(self):
        P = augmented_chain(point_complex(), QQ)
        z = make_chain_map(
            P, P, {q: Matrix.zeros(QQ, P.dim(q), P.dim(q)) for q in P.degrees()}
        )
        cone, _, _ = mapping_cone(z)
        assert homology_dims(cone) == {}

    def test_cone_of_sphere_inclusion(self):
        # S^0 into a contractible edge: the cone carries the suspension circle
        incl = inclusion_map(s0(), edge())
        for f in FIELDS:
            cone, _, _ = mapping_cone(chain_map_of(incl, f))
            assert homology_dims(cone) == {1: 1}

    def test_projection_and_inclusion_are_chain_maps(self):
        incl = inclusion_map(s0(), edge())
        cone, i, p = mapping_cone(chain_map_of(incl, QQ))
        # construction went through make_chain_map, which validates commuting
        assert i.dst == cone and p.src == cone


def endpoints_cospan(field_unused=None):
    return SpaceCospan(
        make_simplicial_map(s0(), edge(), (0, 1)),
        make_simplicial_map(s0(), edge(), (0, 1)),
    )


class TestSpaceCompose:
    def test_two_arcs_make_a_circle(self):
        lam = endpoints_cospan()
        for f in FIELDS:
            comp = space_compose_chain_model(lam, lam, f)
            assert homology_dims(comp.bulk) == {1: 1}

    def test_gluing_along_point_is_wedge(self):
        pt = point_complex()
        c = SpaceCospan(constant_map(pt, edge()), constant_map(pt, edge()))
        comp = space_compose_chain_model(c, c, QQ)
        assert homology_dims(comp.bulk) == {}

    def test_identity_units_preserve_homology(self):
        lam = endpoints_cospan()
        L = lam.middle
        for f in (GF2, QQ):
            left = space_compose_chain_model(iota_space(identity_simplicial_map(s0())), lam, f)
            right = space_compose_chain_model(lam, iota_space(identity_simplicial_map(s0())), f)
            want = homology_dims(augmented_chain(L, f))
            assert homology_dims(left.bulk) == want
            assert homology_dims(right.bulk) == want

    def test_legs_land_in_bulk(self):
        lam = endpoints_cospan()
        comp = space_compose_chain_model(lam, lam, GF3)
        assert comp.leg0.dst == comp.bulk and comp.leg1.dst == comp.bulk


class TestTSigma:
    def test_identity_cospan_gives_isos(self):
        lam = iota_space(identity_simplicial_map(s0()))
        for f in FIELDS:
            ts = t_sigma_chain(lam, f)
            p0 = induced_on_homology(ts.p0, 1)
            p1 = induced_on_homology(ts.p1, 1)
            assert p0.src.dim == p0.dst.dim == 1 and rank(p0.mat) == 1
            assert p1.src.dim == p1.dst.dim == 1 and rank(p1.mat) == 1

    def test_cone_point_side_vanishes(self):
        lam = SpaceCospan(
            make_simplicial_map(s0(), edge(), (0, 1)),
            constant_map(point_complex(), edge()),
        )
        ts = t_sigma_chain(lam, QQ)
        assert homology_dims(ts.mid).get(1) == 1
        p0 = induced_on_homology(ts.p0, 1)
        p1 = induced_on_homology(ts.p1, 1)
        assert p0.src.dim == 1 and p0.dst.dim == 1 and rank(p0.mat) == 1
        assert p1.dst.dim == 0

    def test_two_point_feet(self):
        pt = point_complex()
        L = circle()
        lam = SpaceCospan(constant_map(pt, L), constant_map(pt, L))
        ts = t_sigma_chain(lam, GF2)
        assert homology_dims(ts.mid) == homology_dims(augmented_chain(L, GF2))
        for q in (1, 2):
            assert induced_on_homology(ts.p0, q).dst.dim == 0
            assert induced_on_homology(ts.p1, q).dst.dim == 0


class TestHomologyMaps:
    def test_identity_induces_identity(self):
        K = circle()
        ind = induced_on_homology(chain_map_of(identity_simplicial_map(K), QQ), 1)
        assert matrix_to_rows(ind.mat) == [[1]]

    def test_collapse_induces_zero(self):
        ind = induced_on_homology(
            chain_map_of(constant_map(circle(), point_complex()), GF2), 1
        )
        assert ind.dst.dim == 0

    def test_homology_reps_are_cycles(self):
        C = augmented_chain(sphere2(), GF3)
        hd = homology(C, 2)
        assert (C.diff_mat(2) @ hd.reps).is_zero()


class TestMayerVietoris:
    def test_circle_from_two_arcs(self):
        L = circle()
        K0 = closure_and_validate(3, [[0, 1]])
        K1 = closure_and_validate(3, [[1, 2], [0, 2]])
        T = closure_and_validate(3, [[0], [1]])
        for f in FIELDS:
            for q in range(0, 4):
                assert mv_exactness_check(T, K0, K1, L, q, f)

    def test_degenerate_triad(self):
        L = circle()
        for q in range(0, 3):
            assert mv_exactness_check(L, L, L, L, q, GF2)

    def test_triangle_split_along_edge(self):
        L = closure_and_validate(3, [[0, 1, 2]])
        K0 = L
        K1 = closure_and_validate(3, [[0, 1]])
        T = K1
        for q in range(0, 4):
            assert mv_exactness_check(T, K0, K1, L, q, QQ)

    def test_union_must_match(self):
        L = circle()
        K0 = closure_and_validate(3, [[0, 1]])
        K1 = closure_and_validate(3, [[1, 2]])
        T = closure_and_validate(3, [[1]])
        with pytest.raises(NotATriad):
            mv_exactness_check(T, K0, K1, L, 0, GF2)

    def test_intersection_must_match(self):
        L = circle()
        K0 = closure_and_validate(3, [[0, 1], [0, 2]])
        K1 = closure_and_validate(3, [[1, 2], [0, 2]])
        T = closure_and_validate(3, [[0], [1]])  # misses vertex 2 and edge 02
        with pytest.raises(NotATriad):
            mv_exactness_check(T, K0, K1, L, 1, GF2)

    def test_random_triads_exact(self, rng):
        for i in range(25):
            T, K0, K1, L = rand_triad(rng, 7)
            f = FIELDS[i % 3]
            for q in range(0, 3):
                assert mv_exactness_check(T, K0, K1, L, q, f)


class TestDimensionFilter:
    def test_worked_example(self):
        lam = SpaceCospan(
            make_simplicial_map(s0(), edge(), (0, 1)),
            constant_map(point_complex(), edge()),
        )
        assert dimension_filter(lam, 1)
        assert not dimension_filter(lam, 0)
        assert dimension_filter(lam, float("inf"))

    def test_feet_must_stay_one_lower(self):
        lam = SpaceCospan(
            identity_simplicial_map(edge()),
            identity_simplicial_map(edge()),
        )
        assert not dimension_filter(lam, 1)  # feet have dim 1 > d-1
        assert dimension_filter(lam, 2)


class TestQuasiIsomorphicVariants:
    def test_edge_subdivision_preserves_homology(self):
        for K in (circle(), closure_and_validate(3, [[0, 1, 2]])):
            sub = subdivide_edge(K, 0, 1)
            for f in (GF2, QQ):
                assert homology_dims(augmented_chain(sub, f)) == homology_dims(
                    augmented_chain(K, f)
                )

    def test_cones_are_contractible(self):
        for K in (s0(), circle(), sphere2()):
            cone = simplicial_cone(K)
            assert homology_dims(augmented_chain(cone, GF3)) == {}

    def test_cone_rank_identity(self, rng):
        # dim H_q(cone f) = dim coker H_q(f) + dim ker H_{q-1}(f)
        for i in range(15):
            f = FIELDS[i % 3]
            src = rand_complex(rng, 6)
            dst = rand_complex(rng, 6)
            cm = chain_map_of(rand_simplicial_map(rng, src, dst), f)
            cone, _, _ = mapping_cone(cm)
            for q in range(0, 3):
                hq = induced_on_homology(cm, q)
                hq1 = induced_on_homology(cm, q - 1)
                coker = hq.dst.dim - rank(hq.mat)
                kerd = hq1.src.dim - rank(hq1.mat)
                assert homology(cone, q).space.dim == coker + kerd


class TestChainValidation:
    def test_non_complex_rejected(self):
        I = Matrix.identity(QQ, 1)
        with pytest.raises(ValueError):
            make_chain_complex(QQ, {0: 1, 1: 1, 2: 1}, {1: I, 2: I})

    def test_non_commuting_map_rejected(self):
        C = augmented_chain(s0(), GF2)
        bad = {0: Matrix.from_rows(GF2, [[1, 0], [0, 0]])}
        with pytest.raises(ValueError):
            make_chain_map(C, C, bad)


# Reference gluing: the composite of validated structural maps that
# compose_chain_cospans and t_sigma_of_chain used to build, kept here so the
# block construction can be checked against it value for value.


def _ref_sum_maps(C, D):
    """The direct sum C + D with its injections and projections."""
    f, S = C.field, chain_direct_sum(C, D)

    def unit(n, above, below):
        return vstack(
            Matrix.zeros(f, above, n), Matrix.identity(f, n), Matrix.zeros(f, below, n)
        )

    i0 = make_chain_map(C, S, {q: unit(n, 0, D.dim(q)) for q, n in C.dims})
    i1 = make_chain_map(D, S, {q: unit(n, C.dim(q), 0) for q, n in D.dims})
    p0 = make_chain_map(S, C, {q: unit(n, 0, D.dim(q)).transpose() for q, n in C.dims})
    p1 = make_chain_map(S, D, {q: unit(n, C.dim(q), 0).transpose() for q, n in D.dims})
    return S, i0, i1, p0, p1


def ref_compose_chain_cospans(c, d):
    S, i0, i1, _, _ = _ref_sum_maps(c.bulk, d.bulk)
    neg = make_chain_map(d.leg0.src, d.leg0.dst, {q: -m for q, m in d.leg0.comps})
    degs = {q for q, _ in c.leg1.comps + neg.comps}
    psi = make_chain_map(
        c.leg1.src, S, {q: vstack(c.leg1.comp_mat(q), neg.comp_mat(q)) for q in degs}
    )
    _, incl, _ = mapping_cone(psi)
    return ChainCospan(
        chain_compose(incl, chain_compose(i0, c.leg0)),
        chain_compose(incl, chain_compose(i1, d.leg1)),
    )


def ref_t_sigma_of_chain(c):
    S, _, _, p0, p1 = _ref_sum_maps(c.leg0.src, c.leg1.src)
    degs = {q for q, _ in c.leg0.comps + c.leg1.comps}
    phi = make_chain_map(
        S, c.bulk, {q: hstack(c.leg0.comp_mat(q), c.leg1.comp_mat(q)) for q in degs}
    )
    _, _, proj = mapping_cone(phi)
    pi0, pi1 = suspension_shift_map(p0), suspension_shift_map(p1)
    return ChainSpan(
        chain_compose(conjugate_sign(pi0.dst), chain_compose(pi0, proj)),
        chain_compose(pi1, proj),
    )


def _fixed_pairs():
    pt = point_complex()
    lam = endpoints_cospan()
    unit = iota_space(identity_simplicial_map(s0()))
    tip = SpaceCospan(constant_map(pt, edge()), constant_map(pt, edge()))
    ends = make_simplicial_map(s0(), edge(), (0, 1))
    half = SpaceCospan(ends, constant_map(pt, edge()))
    return [(lam, lam), (unit, lam), (lam, unit), (tip, tip), (half, tip)]


class TestGluingMatchesReference:
    @pytest.mark.parametrize("field", FIELDS, ids=("GF2", "GF3", "QQ"))
    @pytest.mark.parametrize("seed", range(8))
    def test_random_pairs(self, field, seed):
        c, d = rand_composable_space_cospans(random.Random(seed), 8)
        self._check(chain_cospan_of(c, field), chain_cospan_of(d, field))

    @pytest.mark.parametrize("field", FIELDS, ids=("GF2", "GF3", "QQ"))
    def test_fixed_pairs(self, field):
        for c, d in _fixed_pairs():
            self._check(chain_cospan_of(c, field), chain_cospan_of(d, field))

    @staticmethod
    def _check(cc, dc):
        glued = compose_chain_cospans(cc, dc)
        assert glued == ref_compose_chain_cospans(cc, dc)
        for x in (cc, dc, glued):
            assert t_sigma_of_chain(x) == ref_t_sigma_of_chain(x)
