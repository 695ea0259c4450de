"""Cospans and spans, and for linear maps their preorder, equivalence and
transposition.

A cospan is a pair of maps into a shared bulk, a span a pair of maps out of a
shared bulk. The two pair types hold any arrows with a ``src`` and a ``dst``
(linear maps here, chain maps and simplicial maps in ``cw``); the operations
below take linear legs. Two cospans with the same feet are compared through
the kernel of the joint map ``[f0 | f1]``: the preorder holds exactly when the
kernels agree and the left bulk is no larger, and equivalence holds exactly
when the kernels agree. Both facts are validated against brute-force witness
searches in the test suite before being relied on. The span side mirrors
everything with images instead of kernels.

Transposition swaps the two pictures: the span attached to a cospan lives on
the kernel of the joint map, the cospan attached to a span on the cokernel.
To make the transposed square commute strictly the second kernel component
carries a minus sign; over GF(2) the sign is invisible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Optional

from .abcat import (
    CompositionMismatch,
    LinMap,
    VecObj,
    biproduct,
    cokernel,
    compose,
    identity,
    is_mono,
    kernel,
    pullback,
    pushout,
)
from .exactlin import (
    Matrix,
    extend_columns,
    hash_once,
    hstack,
    image_basis,
    kernel_rref,
    rref,
    solve_right,
    vstack,
)


class FootMismatch(ValueError):
    """The two sides do not share the required feet."""


@hash_once
@dataclass(frozen=True)
class Cospan:
    """A pair of arrows ``f0: A0 -> B`` and ``f1: A1 -> B`` into one bulk:
    linear maps, chain maps or simplicial maps."""

    f0: Any
    f1: Any

    def __post_init__(self) -> None:
        if self.f0.dst != self.f1.dst:
            raise FootMismatch("cospan legs must share their target")

    @property
    def foot0(self):
        return self.f0.src

    @property
    def foot1(self):
        return self.f1.src

    @property
    def bulk(self):
        return self.f0.dst


@hash_once
@dataclass(frozen=True)
class Span:
    """A pair of arrows ``g0: C -> A0`` and ``g1: C -> A1`` out of one bulk:
    linear maps or chain maps."""

    g0: Any
    g1: Any

    def __post_init__(self) -> None:
        if self.g0.src != self.g1.src:
            raise FootMismatch("span legs must share their source")

    @property
    def foot0(self):
        return self.g0.dst

    @property
    def foot1(self):
        return self.g1.dst

    @property
    def bulk(self):
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
    """Composition of cospans sharing the middle foot, by pushout.

    The new bulk is the pushout of ``c.f1`` and ``d.f0`` over the shared
    foot; the legs are the outer legs ``c.f0`` and ``d.f1`` pushed into it.
    """
    if c.f1.src != d.f0.src:
        raise CompositionMismatch("cospans do not share the middle foot")
    q0, q1 = pushout(c.f1, d.f0)
    return Cospan(compose(q0, c.f0), compose(q1, d.f1))


def compose_span(s: Span, t: Span) -> Span:
    """Composition of spans sharing the middle foot, by pullback.

    The new bulk is the pullback of ``s.g1`` and ``t.g0`` over the shared
    foot; the legs are the outer legs ``s.g0`` and ``t.g1`` pulled back.
    """
    if s.g1.dst != t.g0.dst:
        raise CompositionMismatch("spans do not share the middle foot")
    p0, p1 = pullback(s.g1, t.g0)
    return Span(compose(s.g0, p0), compose(t.g1, p1))


@lru_cache(maxsize=None)
def canonical_cosp(c: Cospan) -> CanonicalClass:
    """Canonical class of a cospan: the kernel of the joint map, presented in
    the canonical column basis.

    The columns are the reduced row echelon basis of the kernel, read off one
    elimination by ``kernel_rref``."""
    K = kernel_rref(joint_map(c).mat).transpose()
    return CanonicalClass(c.foot0, c.foot1, K)


@lru_cache(maxsize=None)
def canonical_span(s: Span) -> CanonicalClass:
    """Canonical class of a span: the image of the joint map."""
    K = image_basis(joint_span_map(s).mat)
    return CanonicalClass(s.foot0, s.foot1, K)


def _check_feet_cosp(c: Cospan, d: Cospan) -> None:
    # tuple comparison tests identity before ``==``, so shared feet cost no
    # dataclass ``__eq__`` call
    if (c.f0.src, c.f1.src) != (d.f0.src, d.f1.src):
        raise FootMismatch("cospans must share both feet")


def _check_feet_span(s: Span, t: Span) -> None:
    if (s.g0.dst, s.g1.dst) != (t.g0.dst, t.g1.dst):
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

    Existence is read off the same eliminations, not off the canonical
    classes, so a caller that decided through the classes gets an
    independent cross-check. ``E'`` has ``bp - r`` units exactly when
    ``vp_J`` is independent, so ``ker vp`` is no larger than ``ker v``;
    ``G @ v == vp`` puts ``ker v`` inside ``ker vp``. Both together make the
    kernels equal and ``G`` mono.
    """
    field = v.field
    b, bp = v.rows, vp.rows
    if b > bp:
        return None
    J = rref(v).pivots
    r = len(J)
    _, red = extend_columns(v.take_cols(J), Matrix.identity(field, b))
    Pinv = Matrix(field, b, b, tuple(row[r:] for row in red.R.entries))
    vpJ = vp.take_cols(J)
    units = Matrix.identity(field, bp)
    Ep, _ = extend_columns(vpJ, units)
    if len(Ep) != bp - r:
        return None
    G = hstack(vpJ, units.take_cols(Ep[:b - r])) @ Pinv
    return G if G @ v == vp else None


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
    kernel, with legs the column blocks of the quotient map over each foot.
    """
    q = cokernel(kernel(joint_map(c))).mat
    a0 = c.foot0.dim
    bulk = VecObj(c.bulk.field, q.rows)
    return Cospan(
        LinMap(c.foot0, bulk, q.take_cols(range(a0))),
        LinMap(c.foot1, bulk, q.take_cols(range(a0, a0 + c.foot1.dim))),
    )


def upper_bound(c: Cospan, d: Cospan) -> Optional[BoundWitness]:
    """A common upper bound of two cospans, when the pair has one.

    A bound exists exactly when the canonical classes agree, so that is the
    decision. Only then is the bound built: its bulk is the pushout of the
    two joint maps over the feet sum, and the comparison maps out of the
    input bulks are mono because the joint kernels are equal. A comparison
    map that is not mono is an internal defect.
    """
    _check_feet_cosp(c, d)
    if canonical_cosp(c) != canonical_cosp(d):
        return None
    m_left, m_right = pushout(joint_map(c), joint_map(d))
    if not (is_mono(m_left) and is_mono(m_right)):
        raise AssertionError("internal defect: pushout comparison map is not mono")
    bound = Cospan(compose(m_left, c.f0), compose(m_left, c.f1))
    return BoundWitness(bound, m_left, m_right)


def lower_bound(c: Cospan, d: Cospan) -> Optional[BoundWitness]:
    """A common lower bound of two cospans, when the pair has one.

    Built from the upper bound: the new bulk is the pullback of its two
    comparison maps, and the legs are the leg pairs ``(f0, f0')`` and
    ``(f1, f1')`` factored through that pullback. Exists exactly when the
    upper bound does, i.e. when the canonical classes agree.
    """
    ub = upper_bound(c, d)
    if ub is None:
        return None
    u_left, u_right = pullback(ub.w_left, ub.w_right)
    j = vstack(u_left.mat, u_right.mat)
    x0 = solve_right(j, vstack(c.f0.mat, d.f0.mat))
    x1 = solve_right(j, vstack(c.f1.mat, d.f1.mat))
    if x0 is None or x1 is None:
        raise AssertionError("internal defect: legs do not factor through")
    bound = Cospan(LinMap(c.foot0, u_left.src, x0), LinMap(c.foot1, u_left.src, x1))
    return BoundWitness(bound, u_left, u_right)


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
    """The cospan on the pushout of the two legs.

    Dual to ``transpose_cosp``: the bulk is the pushout of ``g0`` and ``g1``,
    the cokernel of ``(g0, -g1)``, so that ``f0 . g0 == f1 . g1`` holds
    strictly.
    """
    return Cospan(*pushout(s.g0, s.g1))
