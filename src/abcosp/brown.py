"""Reduced homology as a functor into vector spaces, and its two extensions
from maps of spaces to cospans of spaces.

The cospanical extension sends a cospan of spaces to the canonical class of
the induced cospan on homology. The spanical extension first turns the
cospan around at chain level (suspend, cone, project) and records the
canonical class of the induced span one degree up. The verify_* operations
recheck the laws both extensions are supposed to satisfy on concrete
instances and return plain-dict reports instead of raising, so a failing law
surfaces as data with the offending classes attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .abcat import LinMap, VecObj, is_epi, is_mono
from .cospan import (
    CanonicalClass,
    Cospan,
    Span,
    canonical_cosp,
    canonical_span,
    compose_cosp,
    compose_span,
    dagger_cosp,
    iota_cosp,
    iota_span,
    leq_cosp,
    leq_span,
    tensor_cosp,
    transpose_cosp,
)
from .cw import (
    ChainCospan,
    ChainSpan,
    SimplicialComplex,
    SimplicialMap,
    SpaceCospan,
    augmented_chain,
    chain_cospan_of,
    chain_map_of,
    compose_chain_cospans,
    dagger_space,
    homology,
    induced_on_homology,
    t_sigma_chain,
    t_sigma_of_chain,
    wedge_space_cospans,
)
from .exactlin import Field, Matrix, direct_sum, hstack, image_basis, matrix_to_rows


class DegreeTooLow(ValueError):
    """The spanical extension needs degree at least one."""


@dataclass(frozen=True)
class BrownFunctor:
    """Reduced homology with ``field`` coefficients in one fixed degree."""

    field: Field
    q: int

    def __post_init__(self) -> None:
        if self.q < 0:
            raise ValueError("homology degree must be nonnegative")


def brown_object(E: BrownFunctor, K: SimplicialComplex) -> VecObj:
    return homology(augmented_chain(K, E.field), E.q).space


def brown_morphism(E: BrownFunctor, f: SimplicialMap) -> LinMap:
    return induced_on_homology(chain_map_of(f, E.field), E.q)


def homology_cospan(E: BrownFunctor, c: SpaceCospan) -> Cospan:
    """The induced cospan on homology, legs into the middle complex."""
    return Cospan(brown_morphism(E, c.f0), brown_morphism(E, c.f1))


def chain_homology_cospan(E: BrownFunctor, c: ChainCospan) -> Cospan:
    return Cospan(
        induced_on_homology(c.leg0, E.q), induced_on_homology(c.leg1, E.q)
    )


def chain_homology_span(E: BrownFunctor, s: ChainSpan) -> Span:
    return Span(induced_on_homology(s.p0, E.q), induced_on_homology(s.p1, E.q))


def suspended_morphism(E: BrownFunctor, f: SimplicialMap) -> LinMap:
    """What the map induces between suspended homology spaces at degree q.

    Suspension raises every degree by one and negates the differentials,
    which leaves each reduced echelon form, and so each homology
    representative, as it was. The map is therefore read one degree down.
    """
    return induced_on_homology(chain_map_of(f, E.field), E.q - 1)


def suspended_homology_cospan(E: BrownFunctor, c: SpaceCospan) -> Cospan:
    return Cospan(suspended_morphism(E, c.f0), suspended_morphism(E, c.f1))


@dataclass(frozen=True)
class ExtendedMorphism:
    """A morphism class produced by one of the two extensions.

    ``feet`` are the homology spaces at the two ends; ``cls`` is the
    canonical class (cospan flavored for the cospanical extension, span
    flavored for the spanical one); ``provenance`` keeps the space cospan
    the class came from.
    """

    feet: Tuple[VecObj, VecObj]
    cls: CanonicalClass
    kind: str
    provenance: SpaceCospan

    def __post_init__(self) -> None:
        if self.kind not in ("cospan", "span"):
            raise ValueError("kind must be 'cospan' or 'span'")
        if self.feet != (self.cls.A0, self.cls.A1):
            raise ValueError("feet must match the canonical class feet")


def cospanical_extend(E: BrownFunctor, c: SpaceCospan) -> ExtendedMorphism:
    """Canonical class of the induced homology cospan."""
    cls = canonical_cosp(homology_cospan(E, c))
    return ExtendedMorphism((cls.A0, cls.A1), cls, "cospan", c)


def spanical_extend(E: BrownFunctor, c: SpaceCospan) -> ExtendedMorphism:
    """Canonical class of the span induced by the turned-around cospan.

    The feet are homology of the suspended ends one degree up, so the
    degree must be at least 1; below that the suspended picture has no
    content and DegreeTooLow is raised.
    """
    if E.q < 1:
        raise DegreeTooLow("spanical extension needs q >= 1")
    cls = canonical_span(chain_homology_span(E, t_sigma_chain(c, E.field)))
    return ExtendedMorphism((cls.A0, cls.A1), cls, "span", c)


def composite_chain_cospan(
    E: BrownFunctor, c: SpaceCospan, d: SpaceCospan
) -> ChainCospan:
    return compose_chain_cospans(
        chain_cospan_of(c, E.field), chain_cospan_of(d, E.field)
    )


def iota_cospanical(E: BrownFunctor, f: SimplicialMap) -> CanonicalClass:
    """Canonical class of the one-legged cospan on a plain map's homology."""
    return canonical_cosp(iota_cosp(brown_morphism(E, f)))


def iota_spanical(E: BrownFunctor, f: SimplicialMap) -> CanonicalClass:
    """Canonical class of the one-legged span on the suspended map."""
    if E.q < 1:
        raise DegreeTooLow("spanical extension needs q >= 1")
    return canonical_span(iota_span(suspended_morphism(E, f)))


def class_payload(cls: CanonicalClass) -> dict:
    return {
        "foot0": cls.A0.dim,
        "foot1": cls.A1.dim,
        "kernel": matrix_to_rows(cls.K),
    }


def _mismatch(name: str, left: CanonicalClass, right: CanonicalClass) -> dict:
    """A failure entry naming a law whose two sides gave different classes."""
    return {"name": name, "left": class_payload(left), "right": class_payload(right)}


def _report(E: BrownFunctor, check: str, failures: list) -> dict:
    return {
        "check": check,
        "char": E.field.characteristic,
        "q": E.q,
        "passed": not failures,
        "failures": failures,
    }


def verify_extension_functoriality(
    E: BrownFunctor, c: SpaceCospan, d: SpaceCospan
) -> dict:
    """Composite of images against image of the composite, both flavors.

    For the cospanical side the composite of the induced homology cospans
    must sit below the homology of the glued chain model, and the canonical
    classes must agree outright. At degree one and above the same is checked
    for the spanical side through the turned-around models. Failures carry
    the offending canonical classes.
    """
    failures = []
    a, b = homology_cospan(E, c), homology_cospan(E, d)
    lhs = compose_cosp(a, b)
    cc = composite_chain_cospan(E, c, d)
    rhs = chain_homology_cospan(E, cc)
    left, right = canonical_cosp(lhs), canonical_cosp(rhs)
    if leq_cosp(lhs, rhs) is None:
        failures.append(_mismatch("cospanical_leq", left, right))
    if left != right:
        failures.append(_mismatch("cospanical_class_equality", left, right))
    if E.q >= 1:
        sa = chain_homology_span(E, t_sigma_chain(c, E.field))
        sb = chain_homology_span(E, t_sigma_chain(d, E.field))
        lhs_sp = compose_span(sa, sb)
        rhs_sp = chain_homology_span(E, t_sigma_of_chain(cc))
        left, right = canonical_span(lhs_sp), canonical_span(rhs_sp)
        if leq_span(lhs_sp, rhs_sp) is None:
            failures.append(_mismatch("spanical_leq", left, right))
        if left != right:
            failures.append(_mismatch("spanical_class_equality", left, right))
    return _report(E, "functoriality", failures)


def verify_extension_dagger(E: BrownFunctor, c: SpaceCospan) -> dict:
    """Extending the flipped cospan against flipping the extended one."""
    failures = []
    left = cospanical_extend(E, dagger_space(c)).cls
    right = canonical_cosp(dagger_cosp(homology_cospan(E, c)))
    if left != right:
        failures.append(_mismatch("dagger_class_equality", left, right))
    return _report(E, "dagger", failures)


def verify_extension_monoidal(
    E: BrownFunctor, c: SpaceCospan, d: SpaceCospan
) -> dict:
    """Extension of a wedge against the sum of extensions.

    Homology of a wedge is identified with the direct sum through the maps
    the two inclusions induce; that identification must be invertible on
    both feet, and transporting the canonical class of the summed cospan
    through it must give exactly the class of the wedge cospan.
    """
    failures = []
    wsp, w0, w1, _ = wedge_space_cospans(c, d)
    blocks = []
    for name, w in (("foot0", w0), ("foot1", w1)):
        m0 = brown_morphism(E, w.incl0)
        m1 = brown_morphism(E, w.incl1)
        phi = LinMap(
            VecObj(E.field, m0.src.dim + m1.src.dim),
            m0.dst,
            hstack(m0.mat, m1.mat),
        )
        if not (is_mono(phi) and is_epi(phi)):
            failures.append(
                {
                    "name": f"wedge_identification_not_iso_{name}",
                    "matrix": matrix_to_rows(phi.mat),
                }
            )
        blocks.append(phi)
    if not failures:
        left = canonical_cosp(homology_cospan(E, wsp))
        summed = canonical_cosp(
            tensor_cosp(homology_cospan(E, c), homology_cospan(E, d))
        )
        transport = direct_sum(blocks[0].mat, blocks[1].mat)
        moved = CanonicalClass(
            blocks[0].dst, blocks[1].dst, image_basis(transport @ summed.K)
        )
        if moved != left:
            failures.append(_mismatch("monoidal_class_equality", left, moved))
    return _report(E, "monoidal", failures)


def verify_transposition_compatibility(E: BrownFunctor, c: SpaceCospan) -> dict:
    """Turning around after suspending against the spanical extension."""
    failures = []
    if E.q < 1:
        raise DegreeTooLow("transposition comparison needs q >= 1")
    left = spanical_extend(E, c).cls
    right = canonical_span(transpose_cosp(suspended_homology_cospan(E, c)))
    if left != right:
        failures.append(_mismatch("transposition_class_equality", left, right))
    return _report(E, "transposition", failures)
