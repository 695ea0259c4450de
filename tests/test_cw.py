"""Simplicial complexes, chain models, homology, Mayer-Vietoris.

Homology goldens below (spheres, cones, wedges, the circle built from two
arcs) are classical values, written down before running anything.
"""

import dataclasses
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from abcosp.cw import (
    BadVertexIndex,
    _cone_block,
    ChainMap,
    InvalidMap,
    NotATriad,
    augmented_chain,
    chain_cospan_of,
    chain_direct_sum,
    chain_map_of,
    closure_and_validate,
    compose_chain_cospans,
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
    t_sigma_chain,
    t_sigma_of_chain,
    wedge,
    wedge_map,
)
from abcosp.abcat import LinMap, VecObj
from abcosp.cospan import (
    Cospan,
    Span,
    dagger_cosp,
    dagger_span,
    tensor_cosp,
    tensor_span,
    transpose_cosp,
)
from abcosp.exactlin import GF2, GF3, QQ, Matrix, hstack, matrix_to_rows, rank, vstack
from abcosp.generators import (
    rand_complex,
    rand_composable_space_cospans,
    rand_matrix,
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


# Reference maps: composites, identities and shifts built from their
# definitions, for checking the library's chain maps against.


def compose_simplicial(g, f):
    if f.dst != g.src:
        raise InvalidMap("simplicial maps do not compose")
    return make_simplicial_map(
        f.src, g.dst, tuple(g.vertex_map[w] for w in f.vertex_map)
    )


def chain_identity(C):
    return make_chain_map(
        C, C, {q: Matrix.identity(C.field, d) for q, d in C.dims}
    )


def chain_compose(g, f):
    if f.dst != g.src:
        raise ValueError("chain maps do not compose")
    degs = set(q for q, _ in f.comps) | set(q for q, _ in g.comps)
    return make_chain_map(
        f.src, g.dst, {q: g.comp_mat(q) @ f.comp_mat(q) for q in degs}
    )


def suspension_shift_map(f):
    """The same components one degree higher, between shifted complexes."""
    return make_chain_map(
        suspension_shift(f.src),
        suspension_shift(f.dst),
        {q + 1: m for q, m in f.comps},
    )


def conjugate_sign(C):
    """Negation of the identity; the chain shadow of reversing the
    suspension coordinate."""
    return make_chain_map(
        C, C, {q: -Matrix.identity(C.field, d) for q, d in C.dims}
    )


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
    return Cospan(
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
        c = Cospan(constant_map(pt, edge()), constant_map(pt, edge()))
        comp = space_compose_chain_model(c, c, QQ)
        assert homology_dims(comp.bulk) == {}

    def test_identity_units_preserve_homology(self):
        lam = endpoints_cospan()
        L = lam.bulk
        for f in (GF2, QQ):
            left = space_compose_chain_model(iota_space(identity_simplicial_map(s0())), lam, f)
            right = space_compose_chain_model(lam, iota_space(identity_simplicial_map(s0())), f)
            want = homology_dims(augmented_chain(L, f))
            assert homology_dims(left.bulk) == want
            assert homology_dims(right.bulk) == want

    def test_legs_land_in_bulk(self):
        lam = endpoints_cospan()
        comp = space_compose_chain_model(lam, lam, GF3)
        assert comp.f0.dst == comp.bulk and comp.f1.dst == comp.bulk


class TestTSigma:
    def test_identity_cospan_gives_isos(self):
        lam = iota_space(identity_simplicial_map(s0()))
        for f in FIELDS:
            ts = t_sigma_chain(lam, f)
            p0 = induced_on_homology(ts.g0, 1)
            p1 = induced_on_homology(ts.g1, 1)
            assert p0.src.dim == p0.dst.dim == 1 and rank(p0.mat) == 1
            assert p1.src.dim == p1.dst.dim == 1 and rank(p1.mat) == 1

    def test_cone_point_side_vanishes(self):
        lam = Cospan(
            make_simplicial_map(s0(), edge(), (0, 1)),
            constant_map(point_complex(), edge()),
        )
        ts = t_sigma_chain(lam, QQ)
        assert homology_dims(ts.bulk).get(1) == 1
        p0 = induced_on_homology(ts.g0, 1)
        p1 = induced_on_homology(ts.g1, 1)
        assert p0.src.dim == 1 and p0.dst.dim == 1 and rank(p0.mat) == 1
        assert p1.dst.dim == 0

    def test_two_point_feet(self):
        pt = point_complex()
        L = circle()
        lam = Cospan(constant_map(pt, L), constant_map(pt, L))
        ts = t_sigma_chain(lam, GF2)
        assert homology_dims(ts.bulk) == homology_dims(augmented_chain(L, GF2))
        for q in (1, 2):
            assert induced_on_homology(ts.g0, q).dst.dim == 0
            assert induced_on_homology(ts.g1, q).dst.dim == 0


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
        lam = Cospan(
            make_simplicial_map(s0(), edge(), (0, 1)),
            constant_map(point_complex(), edge()),
        )
        assert dimension_filter(lam, 1)
        assert not dimension_filter(lam, 0)
        assert dimension_filter(lam, float("inf"))

    def test_feet_must_stay_one_lower(self):
        lam = Cospan(
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


# Reference chain-map check: every degree with two dense products, absent
# blocks built as zero matrices, as make_chain_map did before it multiplied
# stored blocks only.


def _nonzero_blocks(comps):
    return tuple(sorted(
        (q, m) for q, m in comps.items() if m.rows and m.cols and not m.is_zero()
    ))


def reference_commute_failure(src, dst, comps):
    """The message of the first degree where the dense check fails, or None."""
    cm = ChainMap(src, dst, _nonzero_blocks(comps))
    for q in sorted(set(src.degrees()) | set(dst.degrees())):
        left = dst.diff_mat(q) @ cm.comp_mat(q)
        right = cm.comp_mat(q - 1) @ src.diff_mat(q)
        if left != right:
            return f"chain map fails to commute at degree {q}"
    return None


def check_against_reference(src, dst, comps):
    """make_chain_map accepts exactly when the reference does, and fails with
    its message; returns that message or None."""
    expected = reference_commute_failure(src, dst, comps)
    if expected is None:
        expected_map = ChainMap(src, dst, _nonzero_blocks(comps))
        assert make_chain_map(src, dst, comps) == expected_map
    else:
        with pytest.raises(ValueError) as err:
            make_chain_map(src, dst, comps)
        assert str(err.value) == expected
    return expected


def _perturbed(rng, src, dst, comps):
    """``comps`` with one degree replaced, zeroed, dropped or nudged."""
    comps = dict(comps)
    q = rng.randint(-1, max(src.degrees() + dst.degrees()) + 1)
    shape = (dst.dim(q), src.dim(q))
    kind = rng.choice(("random", "zero", "drop", "nudge", "keep"))
    if kind == "random":
        comps[q] = rand_matrix(rng, src.field, *shape)
    elif kind == "zero":
        comps[q] = Matrix.zeros(src.field, *shape)
    elif kind == "drop":
        comps.pop(q, None)
    elif kind == "nudge" and all(shape):
        rows = [list(r) for r in comps.get(q, Matrix.zeros(src.field, *shape)).entries]
        i, j = rng.randrange(shape[0]), rng.randrange(shape[1])
        rows[i][j] += 1
        comps[q] = Matrix.from_rows(src.field, rows, shape[1])
    return comps


class TestChainMapCheckMatchesReference:
    @pytest.mark.parametrize("field", FIELDS, ids=("GF2", "GF3", "QQ"))
    def test_seeded_random_maps(self, field):
        rng = random.Random(90210 + field.characteristic)
        outcomes = {"accepted": 0, "rejected": 0}
        for _ in range(150):
            K, L = rand_complex(rng, 6), rand_complex(rng, 6)
            f = chain_map_of(rand_simplicial_map(rng, K, L), field)
            comps = dict(f.comps)
            for _ in range(rng.randint(0, 2)):
                comps = _perturbed(rng, f.src, f.dst, comps)
            failure = check_against_reference(f.src, f.dst, comps)
            outcomes["rejected" if failure else "accepted"] += 1
        assert min(outcomes.values()) >= 20, outcomes

    @pytest.mark.parametrize("field", FIELDS, ids=("GF2", "GF3", "QQ"))
    def test_unrelated_complexes(self, field):
        rng = random.Random(4242 + field.characteristic)
        for _ in range(60):
            src = augmented_chain(rand_complex(rng, 5), field)
            dst = augmented_chain(rand_complex(rng, 5), field)
            comps = {
                q: rand_matrix(rng, field, dst.dim(q), n)
                for q, n in src.dims
                if rng.random() < 0.7
            }
            check_against_reference(src, dst, comps)

    def test_left_side_absent_right_nonzero(self):
        # edge -> two points: no d_1 in the target, but f_0 d_1 is the
        # boundary of the edge
        for field in FIELDS:
            src, dst = augmented_chain(edge(), field), augmented_chain(s0(), field)
            comps = {q: Matrix.identity(field, n) for q, n in dst.dims}
            msg = check_against_reference(src, dst, comps)
            assert msg == "chain map fails to commute at degree 1"

    def test_right_side_absent_left_nonzero(self):
        # two points -> edge with f_{-1} absent: the augmentation of the
        # image is nonzero
        for field in FIELDS:
            src, dst = augmented_chain(s0(), field), augmented_chain(edge(), field)
            comps = {0: Matrix.identity(field, 2)}
            msg = check_against_reference(src, dst, comps)
            assert msg == "chain map fails to commute at degree 0"

    def test_both_sides_present_and_unequal(self):
        for field in FIELDS:
            C = augmented_chain(s0(), field)
            comps = {
                0: Matrix.from_rows(field, [[1, 0], [0, 0]]),
                -1: Matrix.identity(field, 1),
            }
            msg = check_against_reference(C, C, comps)
            assert msg == "chain map fails to commute at degree 0"

    def test_both_sides_absent_pass(self):
        for field in FIELDS:
            pt, C = augmented_chain(point_complex(), field), augmented_chain(circle(), field)
            assert check_against_reference(pt, C, {}) is None
            assert check_against_reference(C, pt, {-1: Matrix.zeros(field, 1, 1)}) is None

    def test_zero_dimensional_degrees(self):
        for field in FIELDS:
            zero = make_chain_complex(field, {}, {})
            C = augmented_chain(circle(), field)
            into = {q: Matrix.zeros(field, n, 0) for q, n in C.dims}
            out_of = {q: Matrix.zeros(field, 0, n) for q, n in C.dims}
            assert check_against_reference(zero, C, into) is None
            assert check_against_reference(C, zero, out_of) is None
            # a gap at degree 0: C_1 -> C_0 = 0 -> C_{-1}
            gap = make_chain_complex(field, {1: 1, 0: 0, -1: 1}, {})
            ident = {1: Matrix.identity(field, 1), -1: Matrix.identity(field, 1)}
            assert check_against_reference(gap, gap, ident) is None
            msg = check_against_reference(gap, augmented_chain(edge(), field), {
                1: Matrix.identity(field, 1), -1: Matrix.identity(field, 1),
            })
            assert msg == "chain map fails to commute at degree 1"


class TestChainHashOnce:
    """``ChainComplex``, ``ChainMap`` and the arrow pairs ``Cospan`` and
    ``Span`` hash once and keep the dataclass hash contract."""

    @staticmethod
    def _routes(field):
        """Each value with equal values built by other routes, and its field
        names."""
        K = circle()
        C = augmented_chain(K, field)
        rebuilt = make_chain_complex(field, dict(C.dims), dict(C.diffs))
        summed = chain_direct_sum(C, make_chain_complex(field, {}, {}))
        ident = chain_map_of(identity_simplicial_map(K), field)

        half = Fraction(1, 2) if field == QQ else 1

        def lin(src, dst, rows):
            return LinMap(VecObj(field, src), VecObj(field, dst),
                          Matrix.from_rows(field, rows))

        def cosp():
            return Cospan(lin(1, 2, [[1], [half]]), lin(2, 2, [[1, 0], [0, 1]]))

        def span():
            return Span(lin(1, 1, [[1]]), lin(1, 2, [[1], [half]]))

        c, s = cosp(), span()
        zero = VecObj(field, 0)
        empty = LinMap(zero, zero, Matrix.zeros(field, 0, 0))
        return [
            (C, [rebuilt, summed], ["field", "dims", "diffs"]),
            (ident, [chain_identity(C), chain_identity(summed)],
             ["src", "dst", "comps"]),
            (c, [cosp(), dagger_cosp(dagger_cosp(c)),
                 tensor_cosp(c, Cospan(empty, empty))], ["f0", "f1"]),
            (s, [span(), dagger_span(dagger_span(s)), transpose_cosp(c),
                 tensor_span(s, Span(empty, empty))], ["g0", "g1"]),
        ]

    @pytest.mark.parametrize("field", FIELDS, ids=("GF2", "GF3", "QQ"))
    def test_equal_values_from_different_routes_hash_equal(self, field):
        for x, ys, _ in self._routes(field):
            for y in ys:
                assert y == x and y is not x
                assert hash(y) == hash(x)
                key = tuple(getattr(y, a.name) for a in dataclasses.fields(y))
                assert hash(y) == hash(key)
                assert [hash(y) for _ in range(3)] == [hash(x)] * 3

    def test_cached_hash_is_not_part_of_the_value(self):
        for x, (y, *_), names in self._routes(QQ):
            before = repr(x)
            hash(x)
            assert repr(x) == before == repr(y)
            assert x == y and y == x
            assert [a.name for a in dataclasses.fields(x)] == names

    def test_lru_cache_hits_on_an_equal_distinct_key(self):
        @lru_cache(maxsize=None)
        def probe(x):
            return object()

        for x, (y, *_), _ in self._routes(GF3):
            assert probe(x) is probe(y)
        assert (probe.cache_info().hits, probe.cache_info().misses) == (4, 4)

    def test_a_second_hash_of_an_arrow_pair_hashes_no_leg(self, monkeypatch):
        # canonical_cosp and canonical_span look the same pair up many times
        _, _, (c, *_), (s, *_) = self._routes(QQ)
        first = hash(c), hash(s)
        calls = []
        real = LinMap.__hash__

        def counted(f):
            calls.append(f)
            return real(f)

        monkeypatch.setattr(LinMap, "__hash__", counted)
        assert (hash(c), hash(s)) == first
        assert calls == []


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
    neg = make_chain_map(d.f0.src, d.f0.dst, {q: -m for q, m in d.f0.comps})
    degs = {q for q, _ in c.f1.comps + neg.comps}
    psi = make_chain_map(
        c.f1.src, S, {q: vstack(c.f1.comp_mat(q), neg.comp_mat(q)) for q in degs}
    )
    _, incl, _ = mapping_cone(psi)
    return Cospan(
        chain_compose(incl, chain_compose(i0, c.f0)),
        chain_compose(incl, chain_compose(i1, d.f1)),
    )


def ref_t_sigma_of_chain(c):
    S, _, _, p0, p1 = _ref_sum_maps(c.f0.src, c.f1.src)
    degs = {q for q, _ in c.f0.comps + c.f1.comps}
    phi = make_chain_map(
        S, c.bulk, {q: hstack(c.f0.comp_mat(q), c.f1.comp_mat(q)) for q in degs}
    )
    _, _, proj = mapping_cone(phi)
    pi0, pi1 = suspension_shift_map(p0), suspension_shift_map(p1)
    return Span(
        chain_compose(conjugate_sign(pi0.dst), chain_compose(pi0, proj)),
        chain_compose(pi1, proj),
    )


def _fixed_pairs():
    pt = point_complex()
    lam = endpoints_cospan()
    unit = iota_space(identity_simplicial_map(s0()))
    tip = Cospan(constant_map(pt, edge()), constant_map(pt, edge()))
    ends = make_simplicial_map(s0(), edge(), (0, 1))
    half = Cospan(ends, constant_map(pt, edge()))
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


# Reference chain builders: matrices built with from_rows, hstack, vstack and
# explicit zero blocks, as the library built them before it wrote entry
# tuples directly and assembled blocks with block_matrix.


def ref_augmented_chain(K, field):
    dims = {-1: 1}
    diffs = {}
    for q in range(K.dim + 1):
        dims[q] = len(K.simplices(q))
    if dims[0]:
        diffs[0] = Matrix.from_rows(field, [[1] * dims[0]])
    for q in range(1, K.dim + 1):
        below = {s: i for i, s in enumerate(K.simplices(q - 1))}
        rows = [[0] * dims[q] for _ in range(dims[q - 1])]
        for j, s in enumerate(K.simplices(q)):
            for i in range(len(s)):
                rows[below[s[:i] + s[i + 1:]]][j] = -1 if i % 2 else 1
        diffs[q] = Matrix.from_rows(field, rows, dims[q])
    return make_chain_complex(field, dims, diffs)


def _sign(seq):
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])
    return -1 if inversions % 2 else 1


def ref_chain_map_of(f, field):
    src, dst = ref_augmented_chain(f.src, field), ref_augmented_chain(f.dst, field)
    comps = {-1: Matrix.identity(field, 1)}
    for q in range(f.src.dim + 1):
        rows = [[0] * src.dim(q) for _ in range(dst.dim(q))]
        target = {t: i for i, t in enumerate(f.dst.simplices(q))}
        for j, s in enumerate(f.src.simplices(q)):
            images = [f.vertex_map[v] for v in s]
            if len(set(images)) == len(images):
                rows[target[tuple(sorted(images))]][j] = _sign(images)
        comps[q] = Matrix.from_rows(field, rows, src.dim(q))
    return make_chain_map(src, dst, comps)


def ref_cone_block(phi, q):
    dst, src, f = phi.dst, phi.src, phi.src.field
    top = hstack(dst.diff_mat(q), phi.comp_mat(q - 1))
    bottom = hstack(Matrix.zeros(f, src.dim(q - 2), dst.dim(q)), -src.diff_mat(q - 1))
    return vstack(top, bottom)


def _cone_degrees(phi):
    return sorted(set(phi.dst.degrees()) | {q + 1 for q in phi.src.degrees()})


def ref_mapping_cone(phi):
    src, dst, f = phi.src, phi.dst, phi.src.field
    degs = _cone_degrees(phi)
    cone = make_chain_complex(
        f,
        {q: dst.dim(q) + src.dim(q - 1) for q in degs},
        {q: ref_cone_block(phi, q) for q in degs},
    )
    incl = {
        q: vstack(Matrix.identity(f, n), Matrix.zeros(f, src.dim(q - 1), n))
        for q, n in dst.dims
    }
    proj = {
        q + 1: hstack(Matrix.zeros(f, n, dst.dim(q + 1)), Matrix.identity(f, n))
        for q, n in src.dims
    }
    return (
        cone,
        make_chain_map(dst, cone, incl),
        make_chain_map(cone, suspension_shift(src), proj),
    )


def ref_chain_direct_sum(C, D):
    f = C.field
    degs = sorted(set(C.degrees()) | set(D.degrees()))
    dims = {q: C.dim(q) + D.dim(q) for q in degs}

    def diagonal(a, b):
        return vstack(
            hstack(a, Matrix.zeros(f, a.rows, b.cols)),
            hstack(Matrix.zeros(f, b.rows, a.cols), b),
        )

    diffs = {
        q: diagonal(C.diff_mat(q), D.diff_mat(q))
        for q in degs
        if dims.get(q, 0) and dims.get(q - 1, 0)
    }
    return make_chain_complex(f, dims, diffs)


def _same_value(a, b):
    return a == b and repr(a) == repr(b)


def _random_maps(field, seed, count):
    """Seeded random simplicial maps and their induced chain maps."""
    rng = random.Random(seed)
    for _ in range(count):
        K, L = rand_complex(rng, 6), rand_complex(rng, 6)
        f = rand_simplicial_map(rng, K, L)
        yield f, chain_map_of(f, field)


class TestChainBuildersMatchReference:
    @pytest.mark.parametrize("field", FIELDS, ids=("GF2", "GF3", "QQ"))
    def test_augmented_chain_and_chain_map_of(self, field):
        for f, cm in _random_maps(field, 5150 + field.characteristic, 60):
            ref = ref_augmented_chain(f.src, field)
            assert _same_value(augmented_chain(f.src, field), ref)
            assert _same_value(cm, ref_chain_map_of(f, field))
        for K in (point_complex(), s0(), circle(), sphere2()):
            assert _same_value(augmented_chain(K, field), ref_augmented_chain(K, field))
            ident = identity_simplicial_map(K)
            ref = ref_chain_map_of(ident, field)
            assert _same_value(chain_map_of(ident, field), ref)

    @pytest.mark.parametrize("field", FIELDS, ids=("GF2", "GF3", "QQ"))
    def test_cone_blocks_and_mapping_cone(self, field):
        for _, phi in _random_maps(field, 6160 + field.characteristic, 60):
            for q in _cone_degrees(phi):
                assert _same_value(_cone_block(phi, q), ref_cone_block(phi, q))
            assert _same_value(mapping_cone(phi), ref_mapping_cone(phi))

    @pytest.mark.parametrize("field", FIELDS, ids=("GF2", "GF3", "QQ"))
    def test_cone_of_perturbed_maps(self, field):
        # cones of maps between unrelated complexes, with dropped and
        # random components: the blocks need not form a complex, so only
        # the differentials are compared
        rng = random.Random(7170 + field.characteristic)
        for _ in range(60):
            src = augmented_chain(rand_complex(rng, 5), field)
            dst = augmented_chain(rand_complex(rng, 5), field)
            comps = tuple(
                (q, rand_matrix(rng, field, dst.dim(q), n))
                for q, n in src.dims
                if dst.dim(q) and rng.random() < 0.6
            )
            phi = ChainMap(src, dst, comps)
            for q in _cone_degrees(phi):
                assert _same_value(_cone_block(phi, q), ref_cone_block(phi, q))

    @pytest.mark.parametrize("field", FIELDS, ids=("GF2", "GF3", "QQ"))
    def test_chain_direct_sum(self, field):
        rng = random.Random(8180 + field.characteristic)
        zero = make_chain_complex(field, {}, {})
        for _ in range(60):
            C = augmented_chain(rand_complex(rng, 6), field)
            D = suspension_shift(augmented_chain(rand_complex(rng, 6), field))
            for a, b in ((C, D), (D, C), (C, zero), (zero, D), (C, C)):
                assert _same_value(chain_direct_sum(a, b), ref_chain_direct_sum(a, b))
