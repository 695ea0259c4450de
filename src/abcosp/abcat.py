"""Finite-dimensional vector spaces over a fixed field, as an abelian category.

Objects are dimensions, morphisms are matrices in the column-vector
convention (``compose(g, f)`` multiplies ``g.mat @ f.mat``). Kernels and
cokernels return canonical representatives so equal inputs give bit-identical
outputs. The zero-dimensional object is the biproduct unit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import (
    Field,
    Matrix,
    direct_sum,
    hstack,
    kernel_basis,
    kernel_rref,
    rank,
    solve_left,
    solve_right,
    vstack,
)


class CompositionMismatch(ValueError):
    """Source and target objects do not line up."""


class NonCommutingSquare(ValueError):
    """A square diagram that was required to commute does not."""


@dataclass(frozen=True)
class VecObj:
    """A finite-dimensional vector space, identified by its dimension."""

    field: Field
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")


@dataclass(frozen=True)
class LinMap:
    """A linear map ``src -> dst`` carried by a ``dst.dim x src.dim`` matrix."""

    src: VecObj
    dst: VecObj
    mat: Matrix

    def __post_init__(self) -> None:
        if self.src.field != self.dst.field or self.mat.field != self.src.field:
            raise CompositionMismatch("field mismatch inside a linear map")
        if (self.mat.rows, self.mat.cols) != (self.dst.dim, self.src.dim):
            raise CompositionMismatch(
                f"matrix {self.mat.rows}x{self.mat.cols} does not fit "
                f"{self.src.dim} -> {self.dst.dim}"
            )


def identity(A: VecObj) -> LinMap:
    return LinMap(A, A, Matrix.identity(A.field, A.dim))


def compose(g: LinMap, f: LinMap) -> LinMap:
    if f.dst != g.src:
        raise CompositionMismatch(
            f"cannot compose through {f.dst} vs {g.src}"
        )
    return LinMap(f.src, g.dst, g.mat @ f.mat)


def obj_sum(A: VecObj, B: VecObj) -> VecObj:
    if A.field != B.field:
        raise CompositionMismatch("biproduct needs one field")
    return VecObj(A.field, A.dim + B.dim)


def biproduct(f: LinMap, g: LinMap) -> LinMap:
    """Block diagonal sum ``f (+) g`` on both source and target."""
    return LinMap(obj_sum(f.src, g.src), obj_sum(f.dst, g.dst),
                  direct_sum(f.mat, g.mat))


def is_mono(f: LinMap) -> bool:
    return rank(f.mat) == f.src.dim


def is_epi(f: LinMap) -> bool:
    return rank(f.mat) == f.dst.dim


def kernel(f: LinMap) -> LinMap:
    """The kernel as a canonical monomorphism into ``f.src``."""
    K = kernel_basis(f.mat)
    return LinMap(VecObj(f.src.field, K.cols), f.src, K)


def cokernel(f: LinMap) -> LinMap:
    """The cokernel as a canonical epimorphism out of ``f.dst``.

    Its rows are the reduced row echelon basis of the left null space of
    ``f``, that is ``kernel_rref`` of the transpose: one elimination of the
    ``src x dst`` matrix. These are the dual coordinates along the unit
    vectors that complete the image greedily in increasing coordinate order,
    the pivots of that echelon basis. Equal images therefore give
    bit-identical cokernel matrices, and ``cokernel(f) . f == 0``.
    """
    Q = kernel_rref(f.mat.transpose())
    return LinMap(f.dst, VecObj(f.mat.field, Q.rows), Q)


def pushout(f: LinMap, g: LinMap) -> tuple[LinMap, LinMap]:
    """The pushout ``B -> P <- C`` of ``f: A -> B`` and ``g: A -> C``.

    ``P`` is the canonical cokernel of ``[f; -g]``, and the two maps are its
    column blocks over ``B`` and over ``C``, so ``q0 . f == q1 . g``.
    """
    if f.src != g.src:
        raise CompositionMismatch(f"pushout needs one source, got {f.src} vs {g.src}")
    b = f.dst.dim
    q = cokernel(LinMap(f.src, obj_sum(f.dst, g.dst), vstack(f.mat, -g.mat)))
    q0 = LinMap(f.dst, q.dst, q.mat.take_cols(range(b)))
    q1 = LinMap(g.dst, q.dst, q.mat.take_cols(range(b, b + g.dst.dim)))
    return q0, q1


def pullback(f: LinMap, g: LinMap) -> tuple[LinMap, LinMap]:
    """The pullback ``B <- P -> C`` of ``f: B -> D`` and ``g: C -> D``.

    ``P`` is the canonical kernel of ``[f | -g]``, and the two maps are its
    row blocks in ``B`` and in ``C``, so ``f . p0 == g . p1``.
    """
    if f.dst != g.dst:
        raise CompositionMismatch(f"pullback needs one target, got {f.dst} vs {g.dst}")
    b = f.src.dim
    j = kernel(LinMap(obj_sum(f.src, g.src), f.dst, hstack(f.mat, -g.mat)))
    p0 = LinMap(j.src, f.src, j.mat.take_rows(range(b)))
    p1 = LinMap(j.src, g.src, j.mat.take_rows(range(b, b + g.src.dim)))
    return p0, p1


@dataclass(frozen=True)
class SquareDiagram:
    """A square of maps ``f: A->B``, ``f_prime: A->C``, ``g: B->D``,
    ``g_prime: C->D``. Commutativity is not an invariant of the type; it is
    checked by the operations that need it."""

    f: LinMap
    f_prime: LinMap
    g: LinMap
    g_prime: LinMap

    def __post_init__(self) -> None:
        if self.f.src != self.f_prime.src:
            raise CompositionMismatch("square needs a shared source corner")
        if self.g.src != self.f.dst or self.g_prime.src != self.f_prime.dst:
            raise CompositionMismatch("square sides do not line up")
        if self.g.dst != self.g_prime.dst:
            raise CompositionMismatch("square needs a shared target corner")


@dataclass(frozen=True)
class ThreeTermComplex:
    """Maps ``u: X->Y`` and ``v: Y->Z`` with ``v . u == 0``."""

    u: LinMap
    v: LinMap

    def __post_init__(self) -> None:
        if self.u.dst != self.v.src:
            raise CompositionMismatch("three-term complex does not line up")
        if not compose(self.v, self.u).mat.is_zero():
            raise ValueError("not a complex: v . u is nonzero")


def square_complex(sq: SquareDiagram) -> ThreeTermComplex:
    """The three-term complex of a commuting square.

    ``u = [f; -f']`` stacks the two maps out of ``A`` and ``v = [g | g']``
    joins the two maps into ``D``, so ``v . u = g.f - g'.f'``. The one
    product ``v . u`` that ``ThreeTermComplex`` checks is the commutation
    check: a square that does not commute raises ``NonCommutingSquare``.
    """
    A = sq.f.src
    mid = obj_sum(sq.f.dst, sq.f_prime.dst)
    u = LinMap(A, mid, vstack(sq.f.mat, -sq.f_prime.mat))
    v = LinMap(mid, sq.g.dst, hstack(sq.g.mat, sq.g_prime.mat))
    try:
        return ThreeTermComplex(u, v)
    except ValueError as exc:
        raise NonCommutingSquare("square_complex needs a commuting square") from exc


def is_exact_at_middle(c: ThreeTermComplex) -> bool:
    """Whether ``ker v`` equals ``im u`` as subspaces of the middle object.

    ``ThreeTermComplex`` guarantees ``v . u == 0``, so ``im u`` lies in
    ``ker v``, and a subspace equals a space containing it exactly when their
    dimensions agree: ``rank u == dim Y - rank v``.
    """
    return rank(c.u.mat) + rank(c.v.mat) == c.u.dst.dim


def kernel_comparison(sq: SquareDiagram) -> LinMap:
    """The induced map ``ker(f') -> ker(g)`` of a commuting square."""
    kf = kernel(sq.f_prime)
    kg = kernel(sq.g)
    through = compose(sq.f, kf)
    X = solve_right(kg.mat, through.mat)
    if X is None:
        raise NonCommutingSquare("square does not commute on ker(f')")
    return LinMap(kf.src, kg.src, X)


def cokernel_comparison(sq: SquareDiagram) -> LinMap:
    """The induced map ``cok(f') -> cok(g)`` of a commuting square."""
    cf = cokernel(sq.f_prime)
    cg = cokernel(sq.g)
    through = compose(cg, sq.g_prime)
    G = solve_left(cf.mat, through.mat)
    if G is None:
        raise NonCommutingSquare("square does not commute on cok(f')")
    return LinMap(cf.dst, cg.dst, G)


def is_exact_square(sq: SquareDiagram) -> bool:
    """Exactness of a commuting square.

    Decided by middle exactness of ``square_complex`` and cross-checked
    against the direct criterion (kernel comparison epi and cokernel
    comparison mono); a disagreement would be an internal defect and raises.
    """
    middle = is_exact_at_middle(square_complex(sq))
    direct = is_epi(kernel_comparison(sq)) and is_mono(cokernel_comparison(sq))
    if middle != direct:
        raise AssertionError(
            "internal cross-check failed: the two exactness criteria disagree"
        )
    return middle
