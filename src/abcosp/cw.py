"""Finite pointed simplicial complexes, chain complexes and homology.

Complexes are stored by dimension as lexicographically sorted tuples of
vertex tuples; vertex 0 is always the basepoint. Chain complexes are
augmented (degree -1 holds one copy of the field), so the homology computed
here is reduced homology and a point has none at all.

The geometric constructions that matter downstream are modeled at chain
level. Gluing two cospans of spaces along their shared foot becomes the
mapping cone of a difference of induced chain maps, and suspension becomes a
degree shift with negated differentials. Both models compute the homology of
the honest topological constructions, which is all that later stages consume.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .abcat import LinMap, ThreeTermComplex, VecObj, is_exact_at_middle
from .cospan import Cospan, FootMismatch, Span
from .exactlin import (
    Field,
    Matrix,
    block_matrix,
    extend_columns,
    hash_once,
    hstack,
    image_basis,
    kernel_basis,
    solve_right,
    vstack,
)


class BadVertexIndex(ValueError):
    """A simplex mentions a vertex outside the declared range."""


class NotATriad(ValueError):
    """The given complexes do not form a subcomplex triad."""


class InvalidMap(ValueError):
    """A vertex assignment that is not simplicial or not pointed."""


Simplex = Tuple[int, ...]


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite pointed simplicial complex.

    ``n_vertices`` bounds the vertex indices; sharing one ambient numbering
    lets several subcomplexes of one complex coexist, so the actual vertices
    are the 0-simplices, not the full range. ``by_dim[q]`` lists the
    q-simplices in lexicographic order, each a strictly increasing vertex
    tuple. The basepoint is vertex 0 and is always present.
    """

    n_vertices: int
    by_dim: Tuple[Tuple[Simplex, ...], ...]

    def __post_init__(self) -> None:
        if self.n_vertices < 1:
            raise BadVertexIndex("a pointed complex needs at least vertex 0")
        if not self.by_dim or (0,) not in self.by_dim[0]:
            raise BadVertexIndex("basepoint vertex 0 is missing")

    @property
    def dim(self) -> int:
        return len(self.by_dim) - 1

    def simplices(self, q: int) -> Tuple[Simplex, ...]:
        if 0 <= q < len(self.by_dim):
            return self.by_dim[q]
        return ()

    @property
    def vertices(self) -> Tuple[int, ...]:
        return tuple(s[0] for s in self.by_dim[0])


@lru_cache(maxsize=None)
def simplex_set(K: SimplicialComplex) -> frozenset:
    """All simplices of ``K`` as one set, dimensions mixed."""
    return frozenset(s for level in K.by_dim for s in level)


@lru_cache(maxsize=None)
def _index_of(K: SimplicialComplex, q: int) -> Dict[Simplex, int]:
    return {s: i for i, s in enumerate(K.simplices(q))}


def _complex_from_set(
    n_vertices: int, simplices: Iterable[Simplex]
) -> SimplicialComplex:
    # Input must already be face closed, with sorted vertex tuples.
    pool = set(simplices)
    pool.add((0,))
    top = max(len(s) for s in pool)
    by_dim = tuple(
        tuple(sorted(s for s in pool if len(s) == q + 1)) for q in range(top)
    )
    return SimplicialComplex(n_vertices, by_dim)


def closure_and_validate(
    n_vertices: int, maximal: Iterable[Iterable[int]]
) -> SimplicialComplex:
    """Build a complex as the face closure of the given simplices.

    Vertex indices must lie in ``[0, n_vertices)``. The basepoint 0-simplex
    is always added, repeated vertices within a simplex are collapsed, and
    simplices are sorted lexicographically per dimension so every matrix
    derived later is deterministic.
    """
    if n_vertices < 1:
        raise BadVertexIndex("need at least one vertex for the basepoint")
    closed = {(0,)}
    for raw in maximal:
        vs = sorted(set(raw))
        if not vs:
            continue
        if vs[0] < 0 or vs[-1] >= n_vertices:
            raise BadVertexIndex(
                f"simplex {tuple(raw)} exceeds vertex range [0, {n_vertices})"
            )
        for k in range(1, len(vs) + 1):
            closed.update(itertools.combinations(vs, k))
    return _complex_from_set(n_vertices, closed)


def point_complex() -> SimplicialComplex:
    return closure_and_validate(1, [(0,)])


@dataclass(frozen=True)
class SimplicialMap:
    """A pointed simplicial map given by a total vertex assignment.

    ``vertex_map[v]`` is the image of vertex ``v``. The basepoint goes to
    the basepoint and every simplex image is a simplex of the target.
    """

    src: SimplicialComplex
    dst: SimplicialComplex
    vertex_map: Tuple[int, ...]

    def __post_init__(self) -> None:
        vm = self.vertex_map
        if len(vm) != self.src.n_vertices:
            raise InvalidMap("vertex_map length must equal src.n_vertices")
        if vm[0] != 0:
            raise InvalidMap("basepoint must map to basepoint")
        targets = simplex_set(self.dst)
        for level in self.src.by_dim:
            for s in level:
                image = tuple(sorted(set(vm[v] for v in s)))
                if image not in targets:
                    raise InvalidMap(
                        f"image {image} of simplex {s} is not in the target"
                    )


def make_simplicial_map(
    src: SimplicialComplex, dst: SimplicialComplex, vertex_map: Sequence[int]
) -> SimplicialMap:
    """Validate a vertex assignment; slots at unused indices become 0."""
    vm = list(vertex_map)
    if len(vm) != src.n_vertices:
        raise InvalidMap("vertex_map length must equal src.n_vertices")
    used = set(src.vertices)
    vm = [vm[v] if v in used else 0 for v in range(src.n_vertices)]
    return SimplicialMap(src, dst, tuple(vm))


def identity_simplicial_map(K: SimplicialComplex) -> SimplicialMap:
    return make_simplicial_map(K, K, tuple(range(K.n_vertices)))


def constant_map(src: SimplicialComplex, dst: SimplicialComplex) -> SimplicialMap:
    """The pointed map collapsing everything to the basepoint."""
    return make_simplicial_map(src, dst, (0,) * src.n_vertices)


def inclusion_map(sub: SimplicialComplex, sup: SimplicialComplex) -> SimplicialMap:
    """The inclusion of a subcomplex under one shared vertex numbering."""
    if sub.n_vertices != sup.n_vertices:
        raise InvalidMap("inclusion needs one shared vertex numbering")
    if not simplex_set(sub) <= simplex_set(sup):
        raise InvalidMap("not a subcomplex")
    return make_simplicial_map(sub, sup, tuple(range(sub.n_vertices)))


def _stored(blocks: Tuple[Tuple[int, Matrix], ...], q: int) -> Optional[Matrix]:
    """The stored block of degree ``q`` in ``diffs`` or ``comps``, or None
    when it is absent (zero)."""
    for deg, m in blocks:
        if deg == q:
            return m
    return None


@hash_once
@dataclass(frozen=True)
class ChainComplex:
    """Finitely supported chain complex with exact matrix differentials.

    ``dims`` holds the degrees with nonzero spaces, ``diffs`` the nonzero
    differentials; anything absent is zero, so equal complexes have equal
    representations. Degree -1 is the augmentation slot.
    """

    field: Field
    dims: Tuple[Tuple[int, int], ...]
    diffs: Tuple[Tuple[int, Matrix], ...]

    def dim(self, q: int) -> int:
        for deg, d in self.dims:
            if deg == q:
                return d
        return 0

    def diff_mat(self, q: int) -> Matrix:
        m = _stored(self.diffs, q)
        if m is None:
            return Matrix.zeros(self.field, self.dim(q - 1), self.dim(q))
        return m

    def degrees(self) -> Tuple[int, ...]:
        return tuple(deg for deg, _ in self.dims)


def make_chain_complex(
    field: Field, dims: Dict[int, int], diffs: Dict[int, Matrix]
) -> ChainComplex:
    """Validate shapes and the boundary identity, then freeze the complex."""
    kept = {q: d for q, d in dims.items() if d > 0}
    kept_diffs = {}
    for q, m in diffs.items():
        expect = (kept.get(q - 1, 0), kept.get(q, 0))
        if (m.rows, m.cols) != expect:
            raise ValueError(
                f"differential at degree {q} has shape {(m.rows, m.cols)}, "
                f"expected {expect}"
            )
        if m.field != field:
            raise ValueError("differential over the wrong field")
        if m.rows and m.cols and not m.is_zero():
            kept_diffs[q] = m
    for q, m in kept_diffs.items():
        below = kept_diffs.get(q - 1)
        if below is not None and not (below @ m).is_zero():
            raise ValueError(f"boundary identity fails at degree {q}")
    return ChainComplex(
        field,
        tuple(sorted(kept.items())),
        tuple(sorted(kept_diffs.items())),
    )


@hash_once
@dataclass(frozen=True)
class ChainMap:
    """A degreewise linear map of chain complexes commuting with d."""

    src: ChainComplex
    dst: ChainComplex
    comps: Tuple[Tuple[int, Matrix], ...]

    def comp_mat(self, q: int) -> Matrix:
        m = _stored(self.comps, q)
        if m is None:
            return Matrix.zeros(self.src.field, self.dst.dim(q), self.src.dim(q))
        return m


def make_chain_map(
    src: ChainComplex, dst: ChainComplex, comps: Dict[int, Matrix]
) -> ChainMap:
    """Validate shapes and the commuting condition, then freeze the map."""
    if src.field != dst.field:
        raise ValueError("chain map over mismatched fields")
    kept = {}
    for q, m in comps.items():
        expect = (dst.dim(q), src.dim(q))
        if (m.rows, m.cols) != expect:
            raise ValueError(
                f"component at degree {q} has shape {(m.rows, m.cols)}, "
                f"expected {expect}"
            )
        if m.rows and m.cols and not m.is_zero():
            kept[q] = m
    # d_q f_q == f_{q-1} d_q at every degree, from the stored blocks only:
    # a side with an absent (zero) factor is zero and is not multiplied out
    d_dst, d_src = dict(dst.diffs), dict(src.diffs)
    for q in sorted(set(src.degrees()) | set(dst.degrees())):
        left = _product(d_dst.get(q), kept.get(q))
        right = _product(kept.get(q - 1), d_src.get(q))
        if left is None or right is None:
            other = right if left is None else left
            commutes = other is None or other.is_zero()
        else:
            commutes = left == right
        if not commutes:
            raise ValueError(f"chain map fails to commute at degree {q}")
    return ChainMap(src, dst, tuple(sorted(kept.items())))


def _product(a: Optional[Matrix], b: Optional[Matrix]) -> Optional[Matrix]:
    """``a @ b``, or None when either factor is absent."""
    return None if a is None or b is None else a @ b


def chain_direct_sum(C: ChainComplex, D: ChainComplex) -> ChainComplex:
    """The blockwise direct sum of two chain complexes, ``C`` first."""
    if C.field != D.field:
        raise ValueError("direct sum over mismatched fields")
    degs = sorted(set(C.degrees()) | set(D.degrees()))
    dims = {q: C.dim(q) + D.dim(q) for q in degs}
    diffs = {
        q: block_matrix(
            C.field,
            (C.dim(q - 1), D.dim(q - 1)),
            (C.dim(q), D.dim(q)),
            {(0, 0): _stored(C.diffs, q), (1, 1): _stored(D.diffs, q)},
        )
        for q in degs
        if dims.get(q, 0) and dims.get(q - 1, 0)
    }
    return make_chain_complex(C.field, dims, diffs)


@lru_cache(maxsize=None)
def augmented_chain(K: SimplicialComplex, field: Field) -> ChainComplex:
    """The augmented simplicial chain complex of ``K`` over ``field``.

    Degree q has one basis vector per q-simplex in the stored order. Degree
    -1 is one copy of the field; the degree-0 differential is the
    augmentation, so homology of this complex is reduced homology. Boundary
    faces are signed alternately over the increasing vertex order.
    """
    z, one, minus = field.zero(), field.one(), field.coerce(-1)
    dims = {-1: 1}
    diffs: Dict[int, Matrix] = {}
    for q in range(K.dim + 1):
        dims[q] = len(K.simplices(q))
    if dims[0]:
        diffs[0] = Matrix(field, 1, dims[0], ((one,) * dims[0],))
    for q in range(1, K.dim + 1):
        below = _index_of(K, q - 1)
        rows = [[z] * dims[q] for _ in range(dims[q - 1])]
        for j, s in enumerate(K.simplices(q)):
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                rows[below[face]][j] = minus if i % 2 else one
        diffs[q] = Matrix(field, dims[q - 1], dims[q], tuple(map(tuple, rows)))
    return make_chain_complex(field, dims, diffs)


def _permutation_sign(seq: Sequence[int]) -> int:
    inversions = sum(
        1
        for a in range(len(seq))
        for b in range(a + 1, len(seq))
        if seq[a] > seq[b]
    )
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def chain_map_of(f: SimplicialMap, field: Field) -> ChainMap:
    """The chain map induced by a simplicial map.

    A simplex goes to its image simplex with the sign of the vertex
    permutation, or to 0 when the image is degenerate. Degree -1 carries the
    identity of the augmentation slot.
    """
    src = augmented_chain(f.src, field)
    dst = augmented_chain(f.dst, field)
    z, one, minus = field.zero(), field.one(), field.coerce(-1)
    comps: Dict[int, Matrix] = {-1: Matrix.identity(field, 1)}
    vm = f.vertex_map
    for q in range(f.src.dim + 1):
        rows = [[z] * src.dim(q) for _ in range(dst.dim(q))]
        target = _index_of(f.dst, q)
        for j, s in enumerate(f.src.simplices(q)):
            images = [vm[v] for v in s]
            if len(set(images)) < len(images):
                continue
            t = tuple(sorted(images))
            rows[target[t]][j] = one if _permutation_sign(images) > 0 else minus
        comps[q] = Matrix(field, dst.dim(q), src.dim(q), tuple(map(tuple, rows)))
    return make_chain_map(src, dst, comps)


@dataclass(frozen=True)
class Wedge:
    """A wedge sum with the two canonical inclusions.

    The first summand keeps its vertex numbers; vertex v > 0 of the second
    becomes ``first.n_vertices + v - 1``, and both basepoints become 0.
    """

    complex: SimplicialComplex
    incl0: SimplicialMap
    incl1: SimplicialMap


def _wedge_renumber(n_first: int, v: int) -> int:
    return 0 if v == 0 else n_first + v - 1


def wedge(K: SimplicialComplex, Kp: SimplicialComplex) -> Wedge:
    """Disjoint union with the basepoints identified."""
    n = K.n_vertices + Kp.n_vertices - 1
    simplices = set(simplex_set(K))
    for s in simplex_set(Kp):
        simplices.add(tuple(sorted(_wedge_renumber(K.n_vertices, v) for v in s)))
    W = _complex_from_set(n, simplices)
    incl0 = make_simplicial_map(
        K, W, tuple(range(K.n_vertices))
    )
    incl1 = make_simplicial_map(
        Kp,
        W,
        tuple(_wedge_renumber(K.n_vertices, v) for v in range(Kp.n_vertices)),
    )
    return Wedge(W, incl0, incl1)


def wedge_map(
    wsrc: Wedge, wdst: Wedge, f: SimplicialMap, g: SimplicialMap
) -> SimplicialMap:
    """The wedge of two pointed maps, one per summand."""
    if f.src != wsrc.incl0.src or g.src != wsrc.incl1.src:
        raise InvalidMap("map sources do not match the wedge summands")
    if f.dst != wdst.incl0.src or g.dst != wdst.incl1.src:
        raise InvalidMap("map targets do not match the wedge summands")
    n0 = f.src.n_vertices
    m0 = f.dst.n_vertices
    vm = []
    for v in range(wsrc.complex.n_vertices):
        if v < n0:
            vm.append(f.vertex_map[v])
        else:
            vm.append(_wedge_renumber(m0, g.vertex_map[v - n0 + 1]))
    return make_simplicial_map(wsrc.complex, wdst.complex, tuple(vm))


def suspension_shift(C: ChainComplex) -> ChainComplex:
    """Raise every degree by one and negate the differentials.

    Applied to the augmented chain complex of K this computes the reduced
    homology of the suspension: the old augmentation slot becomes degree 0
    and is killed by the shifted augmentation, and homology moves up one
    degree. The sign keeps cone projections strict chain maps.
    """
    return make_chain_complex(
        C.field,
        {q + 1: d for q, d in C.dims},
        {q + 1: -m for q, m in C.diffs},
    )


def _cone_block(phi: ChainMap, q: int) -> Matrix:
    """The cone differential at degree q, ``[[d_dst, phi], [0, -d_src]]``,
    from the stored blocks of ``phi`` and its complexes."""
    dst, src = phi.dst, phi.src
    d_src = _stored(src.diffs, q - 1)
    return block_matrix(
        src.field,
        (dst.dim(q - 1), src.dim(q - 2)),
        (dst.dim(q), src.dim(q - 1)),
        {
            (0, 0): _stored(dst.diffs, q),
            (0, 1): _stored(phi.comps, q - 1),
            (1, 1): None if d_src is None else -d_src,
        },
    )


def _cone_complex(phi: ChainMap) -> ChainComplex:
    """The cone of a chain map: degree q is dst_q plus src_{q-1}, and the
    differential is the usual upper-triangular block matrix with -d on the
    shifted block."""
    src, dst = phi.src, phi.dst
    degs = sorted(set(dst.degrees()) | set(q + 1 for q in src.degrees()))
    dims = {q: dst.dim(q) + src.dim(q - 1) for q in degs}
    diffs = {q: _cone_block(phi, q) for q in degs}
    return make_chain_complex(src.field, dims, diffs)


def mapping_cone(phi: ChainMap) -> Tuple[ChainComplex, ChainMap, ChainMap]:
    """The cone of a chain map, with its two structural maps.

    Returns the cone, the inclusion of dst, and the projection to the
    shifted source.
    """
    src, dst = phi.src, phi.dst
    field = src.field
    cone = _cone_complex(phi)
    incl = {
        q: block_matrix(
            field, (n, src.dim(q - 1)), (n,), {(0, 0): Matrix.identity(field, n)}
        )
        for q, n in dst.dims
    }
    proj = {
        q + 1: block_matrix(
            field, (n,), (dst.dim(q + 1), n), {(0, 1): Matrix.identity(field, n)}
        )
        for q, n in src.dims
    }
    return (
        cone,
        make_chain_map(dst, cone, incl),
        make_chain_map(cone, suspension_shift(src), proj),
    )


def iota_space(f: SimplicialMap) -> Cospan:
    return Cospan(f, identity_simplicial_map(f.dst))


def wedge_space_cospans(c: Cospan, d: Cospan) -> Tuple[Cospan, Wedge, Wedge, Wedge]:
    """The wedge of two space cospans, legwise.

    Returns the wedge cospan together with the three wedges (left feet,
    right feet, bulks) so callers can reach the block identifications.
    """
    w0 = wedge(c.foot0, d.foot0)
    w1 = wedge(c.foot1, d.foot1)
    wl = wedge(c.bulk, d.bulk)
    return (
        Cospan(
            wedge_map(w0, wl, c.f0, d.f0), wedge_map(w1, wl, c.f1, d.f1)
        ),
        w0,
        w1,
        wl,
    )


@lru_cache(maxsize=None)
def chain_cospan_of(c: Cospan, field: Field) -> Cospan:
    """The cospan of chain maps a space cospan induces."""
    return Cospan(chain_map_of(c.f0, field), chain_map_of(c.f1, field))


def compose_chain_cospans(c: Cospan, d: Cospan) -> Cospan:
    """Glue two chain cospans along their shared foot F.

    The bulk is the cone of psi = (right leg of c, minus left leg of d) from
    F into the sum of the two bulks; it computes the homology of the double
    mapping cylinder. Degree q of the cone is ``Bc_q + Bd_q + F_{q-1}``, so
    the outer legs are block columns: ``[c.f0_q; 0; 0]`` and
    ``[0; d.f1_q; 0]``.
    """
    if c.foot1 != d.foot0:
        raise FootMismatch("chain cospans do not share their middle foot")
    F, Bc, Bd = c.foot1, c.bulk, d.bulk
    field = F.field
    top, bottom = dict(c.f1.comps), {q: -m for q, m in d.f0.comps}
    psi = make_chain_map(F, chain_direct_sum(Bc, Bd), {
        q: block_matrix(
            field, (Bc.dim(q), Bd.dim(q)), (F.dim(q),),
            {(0, 0): top.get(q), (1, 0): bottom.get(q)},
        )
        for q in top.keys() | bottom.keys()
    })
    cone = _cone_complex(psi)

    def leg(i: int, m: Matrix, q: int) -> Matrix:
        heights = (Bc.dim(q), Bd.dim(q), F.dim(q - 1))
        return block_matrix(field, heights, (m.cols,), {(i, 0): m})

    f0 = {q: leg(0, m, q) for q, m in c.f0.comps}
    f1 = {q: leg(1, m, q) for q, m in d.f1.comps}
    return Cospan(
        make_chain_map(c.foot0, cone, f0),
        make_chain_map(d.foot1, cone, f1),
    )


def space_compose_chain_model(c: Cospan, d: Cospan, field: Field) -> Cospan:
    """Chain model of the composite of two space cospans: their chain
    cospans glued along the chain complex of the shared foot."""
    return compose_chain_cospans(
        chain_cospan_of(c, field), chain_cospan_of(d, field)
    )


@lru_cache(maxsize=None)
def t_sigma_of_chain(c: Cospan) -> Span:
    """Turn a chain cospan around into a span between shifted feet.

    The span's bulk is the cone of phi = [f0 | f1] out of the foot sum
    ``A0 + A1`` into the cospan's bulk B, so degree q+1 of the cone is
    ``B_{q+1} + A0_q + A1_q``. The span legs go to the shifted feet and are
    block rows: ``-[0 | I | 0]`` to A0, with the suspension-coordinate sign,
    and ``[0 | 0 | I]`` to A1.
    """
    A0, A1, B = c.foot0, c.foot1, c.bulk
    field = B.field
    left, right = dict(c.f0.comps), dict(c.f1.comps)
    phi = make_chain_map(chain_direct_sum(A0, A1), B, {
        q: block_matrix(
            field, (B.dim(q),), (A0.dim(q), A1.dim(q)),
            {(0, 0): left.get(q), (0, 1): right.get(q)},
        )
        for q in left.keys() | right.keys()
    })
    cone = _cone_complex(phi)

    def leg(j: int, unit: Matrix, q: int) -> Matrix:
        widths = (B.dim(q + 1), A0.dim(q), A1.dim(q))
        return block_matrix(field, (unit.rows,), widths, {(0, j): unit})

    g0 = {q + 1: leg(1, -Matrix.identity(field, n), q) for q, n in A0.dims}
    g1 = {q + 1: leg(2, Matrix.identity(field, n), q) for q, n in A1.dims}
    return Span(
        make_chain_map(cone, suspension_shift(A0), g0),
        make_chain_map(cone, suspension_shift(A1), g1),
    )


def t_sigma_chain(c: Cospan, field: Field) -> Span:
    return t_sigma_of_chain(chain_cospan_of(c, field))


@dataclass(frozen=True)
class HomologyData:
    """Homology of one degree with a fixed basis of cycle representatives.

    ``reps`` holds the representative cycles as columns; ``boundaries`` is
    the canonical basis of the boundary subspace; ``basis`` is their
    concatenation, against which cycles are resolved into classes.
    """

    space: VecObj
    reps: Matrix
    boundaries: Matrix
    basis: Matrix


@lru_cache(maxsize=None)
def homology(C: ChainComplex, q: int) -> HomologyData:
    """Kernel of d_q modulo image of d_{q+1}, with canonical representatives.

    Representatives are chosen greedily from the canonical kernel basis: a
    kernel column is kept whenever it is independent of the boundaries and
    the representatives already kept. Those are the pivot columns past the
    boundaries in one elimination of ``[B | Z]``.
    """
    Z = kernel_basis(C.diff_mat(q))
    B = image_basis(C.diff_mat(q + 1))
    kept, _ = extend_columns(B, Z)
    reps = Z.take_cols(kept)
    return HomologyData(VecObj(C.field, reps.cols), reps, B, hstack(B, reps))


def homology_class(hd: HomologyData, cycles: Matrix) -> Matrix:
    """Coordinates of cycle columns in the representative basis."""
    coords = solve_right(hd.basis, cycles)
    if coords is None:
        raise ValueError("column is not a cycle of this degree")
    return coords.take_rows(range(hd.boundaries.cols, hd.basis.cols))


@lru_cache(maxsize=None)
def induced_on_homology(f: ChainMap, q: int) -> LinMap:
    """The map a chain map induces between homology spaces at degree q."""
    hs = homology(f.src, q)
    hd = homology(f.dst, q)
    m = _stored(f.comps, q)
    if m is None or not hs.reps.cols:
        images = Matrix.zeros(f.src.field, f.dst.dim(q), hs.reps.cols)
    else:
        images = m @ hs.reps
    return LinMap(hs.space, hd.space, homology_class(hd, images))


def homology_dims(C: ChainComplex) -> Dict[int, int]:
    """Dimensions of the nonzero homology spaces, by degree."""
    out = {}
    for q in C.degrees():
        h = homology(C, q).space.dim
        if h:
            out[q] = h
    return out


def mv_exactness_check(
    T: SimplicialComplex,
    K0: SimplicialComplex,
    K1: SimplicialComplex,
    L: SimplicialComplex,
    q: int,
    field: Field,
) -> bool:
    """Exactness of H_q(T) -> H_q(K0) + H_q(K1) -> H_q(L) at the middle.

    The complexes must form a triad: K0 and K1 are subcomplexes of L under
    one vertex numbering, their union is L and their intersection is T. The
    first map stacks the two inclusion-induced maps, the second subtracts
    one induced map from the other.
    """
    if not (T.n_vertices == K0.n_vertices == K1.n_vertices == L.n_vertices):
        raise NotATriad("triad parts must share one vertex numbering")
    s0, s1 = simplex_set(K0), simplex_set(K1)
    if s0 | s1 != simplex_set(L):
        raise NotATriad("K0 and K1 do not cover L")
    if s0 & s1 != simplex_set(T):
        raise NotATriad("K0 and K1 do not intersect in T")
    a = induced_on_homology(chain_map_of(inclusion_map(T, K0), field), q)
    b = induced_on_homology(chain_map_of(inclusion_map(T, K1), field), q)
    c = induced_on_homology(chain_map_of(inclusion_map(K0, L), field), q)
    d = induced_on_homology(chain_map_of(inclusion_map(K1, L), field), q)
    mid = VecObj(field, a.dst.dim + b.dst.dim)
    u = LinMap(a.src, mid, vstack(a.mat, b.mat))
    v = LinMap(mid, c.dst, hstack(c.mat, -d.mat))
    return is_exact_at_middle(ThreeTermComplex(u, v))


def dimension_filter(c: Cospan, d) -> bool:
    """Whether the feet of a space cospan stay below dimension ``d`` and its
    bulk stays at most ``d``. Infinity accepts everything."""
    if d == float("inf"):
        return True
    return c.foot0.dim <= d - 1 and c.foot1.dim <= d - 1 and c.bulk.dim <= d


def simplicial_cone(K: SimplicialComplex) -> SimplicialComplex:
    """The cone over K with the apex as a fresh last vertex. Contractible;
    the basepoint stays the basepoint of K."""
    apex = K.n_vertices
    return closure_and_validate(
        K.n_vertices + 1, [s + (apex,) for s in simplex_set(K)]
    )


def subdivide_edge(K: SimplicialComplex, u: int, v: int) -> SimplicialComplex:
    """Stellar subdivision of the edge (u, v) with a fresh midpoint vertex.

    Every simplex containing both endpoints splits in two; the result is
    homeomorphic to K, so all homology is unchanged.
    """
    u, v = min(u, v), max(u, v)
    if (u, v) not in simplex_set(K):
        raise BadVertexIndex(f"({u}, {v}) is not an edge of the complex")
    w = K.n_vertices
    out = []
    for s in simplex_set(K):
        if u in s and v in s:
            left = tuple(sorted(set(s) - {u})) + (w,)
            right = tuple(sorted(set(s) - {v})) + (w,)
            out.extend([left, right])
        else:
            out.append(s)
    return closure_and_validate(K.n_vertices + 1, out)
