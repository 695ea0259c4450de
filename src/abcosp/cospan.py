"""Cospans and spans of linear maps, their preorder, equivalence and
transposition.

A cospan is a pair of maps into a shared bulk, a span a pair of maps out of a
shared bulk. Two cospans with the same feet are compared through the kernel
of the joint map ``[f0 | f1]``: the preorder holds exactly when the kernels
agree and the left bulk is no larger, and equivalence holds exactly when the
kernels agree. Both facts are validated against brute-force witness searches
in the test suite before being relied on. The span side mirrors everything
with images instead of kernels.

Transposition swaps the two pictures: the span attached to a cospan lives on
the kernel of the joint map, the cospan attached to a span on the cokernel.
To make the transposed square commute strictly the second kernel component
carries a minus sign; over GF(2) the sign is invisible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .abcat import (
    CompositionMismatch,
    LinMap,
    VecObj,
    biproduct,
    cokernel,
    compose,
    identity,
    injection0,
    injection1,
    is_mono,
    kernel,
)
from .exactlin import (
    Matrix,
    extend_columns,
    hstack,
    image_basis,
    kernel_basis,
    rref,
    solve_right,
    vstack,
)


class FootMismatch(ValueError):
    """The two sides do not share the required feet."""


@dataclass(frozen=True)
class Cospan:
    """A pair of maps ``f0: A0 -> B`` and ``f1: A1 -> B`` into one bulk."""

    f0: LinMap
    f1: LinMap

    def __post_init__(self) -> None:
        if self.f0.dst != self.f1.dst:
            raise FootMismatch("cospan legs must share their target")

    @property
    def foot0(self) -> VecObj:
        return self.f0.src

    @property
    def foot1(self) -> VecObj:
        return self.f1.src

    @property
    def bulk(self) -> VecObj:
        return self.f0.dst


@dataclass(frozen=True)
class Span:
    """A pair of maps ``g0: C -> A0`` and ``g1: C -> A1`` out of one bulk."""

    g0: LinMap
    g1: LinMap

    def __post_init__(self) -> None:
        if self.g0.src != self.g1.src:
            raise FootMismatch("span legs must share their source")

    @property
    def foot0(self) -> VecObj:
        return self.g0.dst

    @property
    def foot1(self) -> VecObj:
        return self.g1.dst

    @property
    def bulk(self) -> VecObj:
        return self.g0.src


@dataclass(frozen=True)
class CanonicalClass:
    """The canonical invariant of a (co)span: a subspace of ``A0 (+) A1``.

    ``K`` holds the canonical column basis of the subspace. For cospans it is
    the kernel of the joint map, for spans the image of the joint map; either
    way equality of classes is plain equality of this dataclass.
    """

    A0: VecObj
    A1: VecObj
    K: Matrix

    def __post_init__(self) -> None:
        if self.K.rows != self.A0.dim + self.A1.dim:
            raise FootMismatch("class ambient must be the sum of the feet")


@dataclass(frozen=True)
class BoundWitness:
    """A bound cospan together with its two comparison monomorphisms.

    For an upper bound the witnesses map the input bulks into the bound's
    bulk; for a lower bound they map the bound's bulk into the input bulks.
    """

    bound: Cospan
    w_left: LinMap
    w_right: LinMap


def joint_map(c: Cospan) -> LinMap:
    """The joint map ``[f0 | f1] : A0 (+) A1 -> B`` of a cospan."""
    src = VecObj(c.bulk.field, c.foot0.dim + c.foot1.dim)
    return LinMap(src, c.bulk, hstack(c.f0.mat, c.f1.mat))


def joint_span_map(s: Span) -> LinMap:
    """The joint map ``(g0, g1) : C -> A0 (+) A1`` of a span (no signs)."""
    dst = VecObj(s.bulk.field, s.foot0.dim + s.foot1.dim)
    return LinMap(s.bulk, dst, vstack(s.g0.mat, s.g1.mat))


def iota_cosp(f: LinMap) -> Cospan:
    """The cospan ``(f, id)`` attached to a single map."""
    return Cospan(f, identity(f.dst))


def iota_span(f: LinMap) -> Span:
    """The span ``(id, f)`` attached to a single map."""
    return Span(identity(f.src), f)


def dagger_cosp(c: Cospan) -> Cospan:
    return Cospan(c.f1, c.f0)


def dagger_span(s: Span) -> Span:
    return Span(s.g1, s.g0)


def tensor_cosp(c: Cospan, d: Cospan) -> Cospan:
    """Blockwise sum of two cospans; feet and bulk are direct sums."""
    return Cospan(biproduct(c.f0, d.f0), biproduct(c.f1, d.f1))


def tensor_span(s: Span, t: Span) -> Span:
    return Span(biproduct(s.g0, t.g0), biproduct(s.g1, t.g1))


def compose_cosp(c: Cospan, d: Cospan) -> Cospan:
    """Pushout-style composition of cospans sharing the middle foot.

    The new bulk is the cokernel of ``(f1 (+) -f'0) . diagonal`` on the shared
    foot; the legs are the original outer legs pushed into the quotient.
    """
    if c.f1.src != d.f0.src:
        raise CompositionMismatch("cospans do not share the middle foot")
    mid = c.f1.src
    u = LinMap(
        mid,
        VecObj(mid.field, c.bulk.dim + d.bulk.dim),
        vstack(c.f1.mat, -d.f0.mat),
    )
    q = cokernel(u)
    i0 = injection0(c.bulk, d.bulk)
    i1 = injection1(c.bulk, d.bulk)
    g0 = compose(q, compose(i0, c.f0))
    g1 = compose(q, compose(i1, d.f1))
    return Cospan(g0, g1)


def compose_span(s: Span, t: Span) -> Span:
    """Pullback-style composition of spans sharing the middle foot."""
    if s.g1.dst != t.g0.dst:
        raise CompositionMismatch("spans do not share the middle foot")
    mid = s.g1.dst
    z = LinMap(
        VecObj(mid.field, s.bulk.dim + t.bulk.dim),
        mid,
        hstack(s.g1.mat, -t.g0.mat),
    )
    j = kernel(z)
    top = j.mat.take_rows(range(s.bulk.dim))
    bottom = j.mat.take_rows(range(s.bulk.dim, s.bulk.dim + t.bulk.dim))
    h0 = LinMap(j.src, s.foot0, s.g0.mat @ top)
    h1 = LinMap(j.src, t.foot1, t.g1.mat @ bottom)
    return Span(h0, h1)


@lru_cache(maxsize=None)
def canonical_cosp(c: Cospan) -> CanonicalClass:
    """Canonical class of a cospan: the kernel of the joint map, presented in
    the canonical column basis."""
    K = image_basis(kernel_basis(joint_map(c).mat))
    return CanonicalClass(c.foot0, c.foot1, K)


@lru_cache(maxsize=None)
def canonical_span(s: Span) -> CanonicalClass:
    """Canonical class of a span: the image of the joint map."""
    K = image_basis(joint_span_map(s).mat)
    return CanonicalClass(s.foot0, s.foot1, K)


def _check_feet_cosp(c: Cospan, d: Cospan) -> None:
    if c.foot0 != d.foot0 or c.foot1 != d.foot1:
        raise FootMismatch("cospans must share both feet")


def _check_feet_span(s: Span, t: Span) -> None:
    if s.foot0 != t.foot0 or s.foot1 != t.foot1:
        raise FootMismatch("spans must share both feet")


def equiv_cosp(c: Cospan, d: Cospan) -> bool:
    """Whether the two cospans are equivalent (equal canonical classes)."""
    _check_feet_cosp(c, d)
    return canonical_cosp(c) == canonical_cosp(d)


def equiv_span(s: Span, t: Span) -> bool:
    """Whether the two spans are equivalent (equal canonical classes)."""
    _check_feet_span(s, t)
    return canonical_span(s) == canonical_span(t)


def _mono_witness(v: Matrix, vp: Matrix) -> Optional[Matrix]:
    """A full-column-rank ``G`` with ``G @ v == vp``, when one exists.

    Exists exactly when the two matrices have equal kernels and ``v`` has no
    more rows than ``vp``. Built by sending the pivot columns of ``v`` to the
    matching columns of ``vp`` and a greedy unit complement of the image of
    ``v`` to a greedy unit complement of the image of ``vp``, i.e.
    ``G = Q @ inverse(P)`` with ``P = [v_J | E]`` and ``Q = [vp_J | E']``.

    Each complement is read off one elimination, of ``[v_J | I]`` and of
    ``[vp_J | I]``: a unit is a pivot exactly when it is independent of the
    columns before it, which is the greedy rule. The identity block of the
    first reduced form is the row operation taking ``P`` to the identity, so
    it is ``inverse(P)`` itself.
    """
    field = v.field
    b, bp = v.rows, vp.rows
    if b > bp:
        return None
    if image_basis(kernel_basis(v)) != image_basis(kernel_basis(vp)):
        return None
    J = rref(v).pivots
    r = len(J)
    _, red = extend_columns(v.take_cols(J), Matrix.identity(field, b))
    Pinv = Matrix(field, b, b, tuple(row[r:] for row in red.R.entries))
    vpJ = vp.take_cols(J)
    units = Matrix.identity(field, bp)
    Ep, _ = extend_columns(vpJ, units)
    G = hstack(vpJ, units.take_cols(Ep[:b - r])) @ Pinv
    if (G @ v) != vp:
        raise AssertionError("internal defect: assembled witness fails")
    return G


def leq_cosp(c: Cospan, d: Cospan) -> Optional[LinMap]:
    """A monomorphism of bulks commuting with both legs, or None.

    ``c`` precedes ``d`` exactly when the joint kernels agree and the bulk of
    ``c`` is no larger than the bulk of ``d``; the decision and witness are
    validated against exhaustive enumeration in the test suite.
    """
    _check_feet_cosp(c, d)
    if c.bulk.dim > d.bulk.dim:
        return None
    if canonical_cosp(c) != canonical_cosp(d):
        return None
    G = _mono_witness(joint_map(c).mat, joint_map(d).mat)
    if G is None:
        raise AssertionError("internal defect: decision and witness disagree")
    return LinMap(c.bulk, d.bulk, G)


def leq_span(s: Span, t: Span) -> Optional[LinMap]:
    """An epimorphism ``t.bulk -> s.bulk`` commuting with both legs, or None.

    The span preorder mirrors the cospan one with images in place of kernels:
    it holds exactly when the joint images agree and the bulk of ``s`` is no
    larger than the bulk of ``t``.
    """
    _check_feet_span(s, t)
    if s.bulk.dim > t.bulk.dim:
        return None
    if canonical_span(s) != canonical_span(t):
        return None
    X = _mono_witness(
        joint_span_map(s).mat.transpose(), joint_span_map(t).mat.transpose()
    )
    if X is None:
        raise AssertionError("internal defect: decision and witness disagree")
    return LinMap(t.bulk, s.bulk, X.transpose())


def minimal_rep(c: Cospan) -> Cospan:
    """The smallest representative of the class of ``c``.

    Its bulk is the coimage of the joint map: the feet sum modulo the joint
    kernel, with legs induced by the coordinate inclusions.
    """
    kv = kernel(joint_map(c))
    q = cokernel(kv)
    i0 = injection0(c.foot0, c.foot1)
    i1 = injection1(c.foot0, c.foot1)
    return Cospan(compose(q, i0), compose(q, i1))


def upper_bound(c: Cospan, d: Cospan) -> Optional[BoundWitness]:
    """A common upper bound of two cospans, when the pair has one.

    The candidate bulk is the cokernel of the stacked joint maps on the feet
    sum; it is a genuine bound exactly when both comparison maps out of the
    input bulks are mono, which happens exactly when the classes agree.
    """
    _check_feet_cosp(c, d)
    v, vp = joint_map(c), joint_map(d)
    feet = v.src
    u = LinMap(
        feet,
        VecObj(feet.field, c.bulk.dim + d.bulk.dim),
        vstack(v.mat, -vp.mat),
    )
    q = cokernel(u)
    m_left = compose(q, injection0(c.bulk, d.bulk))
    m_right = compose(q, injection1(c.bulk, d.bulk))
    if not (is_mono(m_left) and is_mono(m_right)):
        return None
    bound = Cospan(compose(m_left, c.f0), compose(m_left, c.f1))
    return BoundWitness(bound, m_left, m_right)


def lower_bound(c: Cospan, d: Cospan) -> Optional[BoundWitness]:
    """A common lower bound of two cospans, when the pair has one.

    Built from the upper bound: the new bulk is the kernel of the folded
    difference of the two comparison maps, and the legs are the diagonal leg
    pairs factored through that kernel. Exists exactly when the upper bound
    does.
    """
    ub = upper_bound(c, d)
    if ub is None:
        return None
    bsum = VecObj(c.bulk.field, c.bulk.dim + d.bulk.dim)
    z = LinMap(bsum, ub.w_left.dst, hstack(ub.w_left.mat, -ub.w_right.mat))
    j = kernel(z)
    h0 = vstack(c.f0.mat, d.f0.mat)
    h1 = vstack(c.f1.mat, d.f1.mat)
    x0 = solve_right(j.mat, h0)
    x1 = solve_right(j.mat, h1)
    if x0 is None or x1 is None:
        raise AssertionError("internal defect: legs do not factor through")
    l0 = LinMap(c.foot0, j.src, x0)
    l1 = LinMap(c.foot1, j.src, x1)
    u_left = LinMap(j.src, c.bulk, j.mat.take_rows(range(c.bulk.dim)))
    u_right = LinMap(
        j.src, d.bulk,
        j.mat.take_rows(range(c.bulk.dim, c.bulk.dim + d.bulk.dim)),
    )
    return BoundWitness(Cospan(l0, l1), u_left, u_right)


def transpose_cosp(c: Cospan) -> Span:
    """The span on the kernel of the joint map.

    The kernel is presented in the same canonical basis the class machinery
    uses, so transposes of equal classes are bit-identical. Legs are the two
    components of the kernel inclusion, the second one negated so that
    ``f0 . g0 == f1 . g1`` holds strictly.
    """
    K = canonical_cosp(c).K
    mid = VecObj(c.bulk.field, K.cols)
    a0 = c.foot0.dim
    g0 = LinMap(mid, c.foot0, K.take_rows(range(a0)))
    g1 = LinMap(
        mid, c.foot1,
        -(K.take_rows(range(a0, a0 + c.foot1.dim))),
    )
    return Span(g0, g1)


def transpose_span(s: Span) -> Cospan:
    """The cospan on the cokernel of the signed joint map.

    Dual to ``transpose_cosp``: the bulk is the cokernel of ``(g0, -g1)`` and
    the legs are the coordinate inclusions pushed into the quotient, so that
    ``f0 . g0 == f1 . g1`` holds strictly.
    """
    w = LinMap(
        s.bulk,
        VecObj(s.bulk.field, s.foot0.dim + s.foot1.dim),
        vstack(s.g0.mat, -s.g1.mat),
    )
    q = cokernel(w)
    i0 = injection0(s.foot0, s.foot1)
    i1 = injection1(s.foot0, s.foot1)
    return Cospan(compose(q, i0), compose(q, i1))
