"""Reduced-homology functor and its two extensions to space cospans."""

import pytest

from abcosp.brown import (
    BrownFunctor,
    DegreeTooLow,
    ExtendedMorphism,
    brown_morphism,
    brown_object,
    class_payload,
    cospanical_extend,
    iota_cospanical,
    iota_spanical,
    spanical_extend,
    suspended_morphism,
    verify_extension_dagger,
    verify_extension_functoriality,
    verify_extension_monoidal,
    verify_transposition_compatibility,
)
from abcosp.cospan import Cospan, canonical_cosp, compose_cosp, dagger_cosp, iota_cosp
from abcosp.cw import (
    chain_map_of,
    closure_and_validate,
    constant_map,
    identity_simplicial_map,
    induced_on_homology,
    iota_space,
    make_chain_map,
    make_simplicial_map,
    point_complex,
    suspension_shift,
    wedge,
)
from abcosp.exactlin import GF2, GF3, QQ, matrix_to_rows
from abcosp.generators import rand_composable_space_cospans, rand_space_cospan

FIELDS = (GF2, GF3, QQ)


def circle():
    return closure_and_validate(3, [[0, 1], [1, 2], [0, 2]])


def s0():
    return closure_and_validate(2, [[0], [1]])


def edge():
    return closure_and_validate(2, [[0, 1]])


def arc_cospan():
    # an arc seen as a cospan from its endpoint pair to itself
    f = make_simplicial_map(s0(), edge(), (0, 1))
    return Cospan(f, f)


def collapsed_cospan():
    return Cospan(
        make_simplicial_map(s0(), edge(), (0, 1)),
        constant_map(point_complex(), edge()),
    )


class TestObjectsAndMorphisms:
    def test_circle_has_one_loop(self):
        for f in FIELDS:
            E = BrownFunctor(f, 1)
            assert brown_object(E, circle()).dim == 1
            assert brown_object(E, point_complex()).dim == 0

    def test_point_vanishes_in_all_degrees(self):
        for q in range(0, 3):
            assert brown_object(BrownFunctor(GF2, q), point_complex()).dim == 0

    def test_wedge_additivity(self):
        w = wedge(s0(), s0())
        assert brown_object(BrownFunctor(QQ, 0), w.complex).dim == 2

    def test_identity_morphism(self):
        E = BrownFunctor(QQ, 1)
        m = brown_morphism(E, identity_simplicial_map(circle()))
        assert matrix_to_rows(m.mat) == [[1]]

    def test_swap_reverses_orientation(self):
        K = circle()
        swap = make_simplicial_map(K, K, (0, 2, 1))
        assert matrix_to_rows(brown_morphism(BrownFunctor(QQ, 1), swap).mat) == [[-1]]
        assert matrix_to_rows(brown_morphism(BrownFunctor(GF2, 1), swap).mat) == [[1]]


class TestCospanicalExtension:
    def test_identity_cospan_class(self):
        lam = iota_space(identity_simplicial_map(s0()))
        ext = cospanical_extend(BrownFunctor(QQ, 0), lam)
        assert ext.kind == "cospan"
        assert (ext.feet[0].dim, ext.feet[1].dim) == (1, 1)
        assert matrix_to_rows(ext.cls.K) == [[1], [-1]]
        ext2 = cospanical_extend(BrownFunctor(GF2, 0), lam)
        assert matrix_to_rows(ext2.cls.K) == [[1], [1]]

    def test_collapsed_cospan_class(self):
        ext = cospanical_extend(BrownFunctor(QQ, 0), collapsed_cospan())
        assert (ext.feet[0].dim, ext.feet[1].dim) == (1, 0)
        assert matrix_to_rows(ext.cls.K) == [[1]]

    def test_arc_cospan_class(self):
        # contractible middle: the class remembers nothing, kernel is everything
        for f in FIELDS:
            ext = cospanical_extend(BrownFunctor(f, 0), arc_cospan())
            assert matrix_to_rows(ext.cls.K) == [[1, 0], [0, 1]]
            high = cospanical_extend(BrownFunctor(f, 1), arc_cospan())
            assert (high.feet[0].dim, high.feet[1].dim) == (0, 0)

    def test_matches_iota_dagger_composite(self):
        # the extension of any cospan equals iota(f1)-dagger after iota(f0),
        # which pins it down among monoidal dagger-preserving extensions
        lam = arc_cospan()
        for f in FIELDS:
            for q in (0, 1):
                E = BrownFunctor(f, q)
                ext = cospanical_extend(E, lam)
                composite = compose_cosp(
                    iota_cosp(brown_morphism(E, lam.f0)),
                    dagger_cosp(iota_cosp(brown_morphism(E, lam.f1))),
                )
                assert ext.cls == canonical_cosp(composite)


class TestSpanicalExtension:
    def test_needs_positive_degree(self):
        with pytest.raises(DegreeTooLow):
            spanical_extend(BrownFunctor(GF2, 0), arc_cospan())
        with pytest.raises(DegreeTooLow):
            iota_spanical(
                BrownFunctor(GF2, 0), identity_simplicial_map(s0())
            )

    def test_identity_cospan_class(self):
        lam = iota_space(identity_simplicial_map(s0()))
        for f in FIELDS:
            ext = spanical_extend(BrownFunctor(f, 1), lam)
            assert ext.kind == "span"
            assert (ext.feet[0].dim, ext.feet[1].dim) == (1, 1)
            assert matrix_to_rows(ext.cls.K) == [[1], [1]]

    def test_collapsed_cospan_class(self):
        ext = spanical_extend(BrownFunctor(QQ, 1), collapsed_cospan())
        assert (ext.feet[0].dim, ext.feet[1].dim) == (1, 0)
        assert matrix_to_rows(ext.cls.K) == [[1]]


class TestIotaCompatibility:
    def maps(self):
        K = circle()
        return (
            identity_simplicial_map(K),
            make_simplicial_map(K, K, (0, 2, 1)),
            constant_map(K, point_complex()),
            make_simplicial_map(s0(), edge(), (0, 1)),
        )

    def test_cospanical(self):
        for f in (GF2, QQ):
            for q in (0, 1):
                E = BrownFunctor(f, q)
                for m in self.maps():
                    assert (
                        cospanical_extend(E, iota_space(m)).cls
                        == iota_cospanical(E, m)
                    )

    def test_spanical(self):
        for f in (GF3, QQ):
            for q in (1, 2):
                E = BrownFunctor(f, q)
                for m in self.maps():
                    assert (
                        spanical_extend(E, iota_space(m)).cls
                        == iota_spanical(E, m)
                    )


class TestSuspendedMorphism:
    def test_matches_shifted_chain_map(self, rng):
        # reading one degree down equals homology of the suspended chain map
        maps = list(TestIotaCompatibility().maps())
        for _ in range(6):
            lam = rand_space_cospan(rng, 5)
            maps += [lam.f0, lam.f1]
        for f in FIELDS:
            for q in (1, 2, 3):
                E = BrownFunctor(f, q)
                for m in maps:
                    cm = chain_map_of(m, f)
                    shifted_map = make_chain_map(
                        suspension_shift(cm.src),
                        suspension_shift(cm.dst),
                        {d + 1: x for d, x in cm.comps},
                    )
                    shifted = induced_on_homology(shifted_map, q)
                    got = suspended_morphism(E, m)
                    assert got == shifted and repr(got) == repr(shifted)


def assert_passed(report, check):
    assert report["check"] == check
    assert report["failures"] == []
    assert report["passed"] is True


class TestVerifiers:
    def test_functoriality_on_circle_gluing(self):
        lam = arc_cospan()
        for f in FIELDS:
            for q in (0, 1):
                report = verify_extension_functoriality(BrownFunctor(f, q), lam, lam)
                assert_passed(report, "functoriality")
                assert report["char"] == f.characteristic and report["q"] == q

    def test_dagger(self):
        lam = collapsed_cospan()
        for f in FIELDS:
            assert_passed(
                verify_extension_dagger(BrownFunctor(f, 0), lam), "dagger"
            )
            assert_passed(
                verify_extension_dagger(BrownFunctor(f, 1), dagger_cosp(lam)),
                "dagger",
            )

    def test_monoidal_on_independent_cospans(self):
        for f in (GF2, QQ):
            report = verify_extension_monoidal(
                BrownFunctor(f, 0), arc_cospan(), collapsed_cospan()
            )
            assert_passed(report, "monoidal")

    def test_transposition(self):
        lam = arc_cospan()
        for f in FIELDS:
            for q in (1, 2):
                assert_passed(
                    verify_transposition_compatibility(BrownFunctor(f, q), lam),
                    "transposition",
                )

    def test_random_sweep(self, rng):
        for i in range(12):
            f = FIELDS[i % 3]
            c, d = rand_composable_space_cospans(rng, 5)
            E = BrownFunctor(f, i % 2)
            assert verify_extension_functoriality(E, c, d)["passed"]
            assert verify_extension_dagger(E, rand_space_cospan(rng, 5))["passed"]


class TestExtendedMorphism:
    def test_feet_must_match_class(self):
        ext = cospanical_extend(BrownFunctor(GF2, 0), collapsed_cospan())
        with pytest.raises(ValueError):
            ExtendedMorphism(
                (ext.feet[1], ext.feet[0]), ext.cls, "cospan", ext.provenance
            )

    def test_kind_is_checked(self):
        ext = cospanical_extend(BrownFunctor(GF2, 0), arc_cospan())
        with pytest.raises(ValueError):
            ExtendedMorphism(ext.feet, ext.cls, "bogus", ext.provenance)

    def test_payload_shape(self):
        ext = cospanical_extend(BrownFunctor(QQ, 0), collapsed_cospan())
        assert class_payload(ext.cls) == {
            "foot0": 1,
            "foot1": 0,
            "kernel": [[1]],
        }
