"""Seeded random instances and tiny exhaustive oracles.

Everything here is deterministic in the passed rng or in the enumeration
order, so suites that consume these builders reproduce exactly from a seed.
The GF(2) helpers keep matrices as tuples of row bitmasks; they exist so the
brute-force oracles stay cheap enough to run against thousands of pairs.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterator, List, Sequence, Tuple

from .abcat import LinMap, SquareDiagram, VecObj, compose, pushout
from .cospan import Cospan, Span
from .cw import (
    SimplicialComplex,
    SimplicialMap,
    closure_and_validate,
    constant_map,
    make_simplicial_map,
    simplex_set,
)
from .exactlin import Field, Matrix, rank


def rand_scalar(rng: random.Random, field: Field):
    if field.characteristic:
        return field.coerce(rng.randrange(field.characteristic))
    return field.coerce(Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2))))


def rand_matrix(rng: random.Random, field: Field, rows: int, cols: int) -> Matrix:
    return Matrix(
        field,
        rows,
        cols,
        tuple(
            tuple(rand_scalar(rng, field) for _ in range(cols))
            for _ in range(rows)
        ),
    )


def rand_linmap(
    rng: random.Random, field: Field, src_dim: int, dst_dim: int
) -> LinMap:
    return LinMap(
        VecObj(field, src_dim),
        VecObj(field, dst_dim),
        rand_matrix(rng, field, dst_dim, src_dim),
    )


def rand_mono(rng: random.Random, field: Field, src_dim: int, dst_dim: int) -> LinMap:
    # Rejection sampling; quick at the tiny dimensions suites use.
    if src_dim > dst_dim:
        raise ValueError("no mono into a smaller space")
    while True:
        f = rand_linmap(rng, field, src_dim, dst_dim)
        if rank(f.mat) == src_dim:
            return f


def rand_cospan(
    rng: random.Random,
    field: Field,
    a0: int,
    a1: int,
    max_bulk: int,
) -> Cospan:
    b = rng.randint(0, max_bulk)
    return Cospan(
        rand_linmap(rng, field, a0, b), rand_linmap(rng, field, a1, b)
    )


def rand_span(
    rng: random.Random, field: Field, a0: int, a1: int, max_bulk: int
) -> Span:
    c = rng.randint(0, max_bulk)
    return Span(rand_linmap(rng, field, c, a0), rand_linmap(rng, field, c, a1))


def rand_cospan_chain(
    rng: random.Random,
    field: Field,
    n: int,
    max_feet: int,
    max_bulk: int,
) -> List[Cospan]:
    """n composable cospans along a random chain of feet dimensions."""
    feet = [rng.randint(0, max_feet) for _ in range(n + 1)]
    return [
        rand_cospan(rng, field, feet[i], feet[i + 1], max_bulk)
        for i in range(n)
    ]


def rand_leq_pair(
    rng: random.Random, field: Field, max_feet: int, max_bulk: int
) -> Tuple[Cospan, Cospan]:
    """A pair ordered by construction: the second bulk extends the first
    through a random mono."""
    a0, a1 = rng.randint(0, max_feet), rng.randint(0, max_feet)
    c = rand_cospan(rng, field, a0, a1, max_bulk)
    b = c.bulk.dim
    m = rand_mono(rng, field, b, b + rng.randint(0, 2))
    return c, Cospan(compose(m, c.f0), compose(m, c.f1))


def rand_commuting_square(
    rng: random.Random, field: Field, max_dim: int
) -> SquareDiagram:
    """A uniform-ish commuting square.

    The two maps out of the corner are free; every completion of them to a
    commuting square factors through their pushout, so sampling the factor
    reaches all completions. The factor is square exactly when that sample
    is mono, so both exact and inexact squares occur with healthy frequency.
    """
    a = rng.randint(0, max_dim)
    b = rng.randint(0, max_dim)
    c = rng.randint(0, max_dim)
    d = rng.randint(0, max_dim)
    f = rand_linmap(rng, field, a, b)
    f_prime = rand_linmap(rng, field, a, c)
    q0, q1 = pushout(f, f_prime)
    w = LinMap(q0.dst, VecObj(field, d), rand_matrix(rng, field, d, q0.dst.dim))
    return SquareDiagram(f, f_prime, compose(w, q0), compose(w, q1))


# GF(2) bitmask matrices: a matrix is a tuple of row ints, bit j of row i
# being the (i, j) entry. Column count travels separately.


def bits_from_matrix(m: Matrix) -> Tuple[int, ...]:
    return tuple(
        sum(1 << j for j in range(m.cols) if m.entry(i, j) == 1)
        for i in range(m.rows)
    )


def bits_to_matrix(field: Field, rows: Tuple[int, ...], cols: int) -> Matrix:
    return Matrix.from_rows(
        field, [[(r >> j) & 1 for j in range(cols)] for r in rows], cols
    )


def enum_gf2_bits(rows: int, cols: int) -> Iterator[Tuple[int, ...]]:
    """All rows x cols bitmask matrices in a fixed lexicographic order."""
    full = 1 << cols
    yield from itertools.product(range(full), repeat=rows)


def gf2_mul(a: Tuple[int, ...], b: Tuple[int, ...], b_cols: int) -> Tuple[int, ...]:
    """Product of bitmask matrices; a's width must equal len(b)."""
    cols_of_b = [
        sum(((b[i] >> j) & 1) << i for i in range(len(b)))
        for j in range(b_cols)
    ]
    out = []
    for row in a:
        bits = 0
        for j, col in enumerate(cols_of_b):
            if bin(row & col).count("1") & 1:
                bits |= 1 << j
        out.append(bits)
    return tuple(out)


def gf2_rank(rows: Sequence[int]) -> int:
    basis: List[int] = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
            basis.sort(reverse=True)
    return len(basis)


def enum_gf2_monos(src_dim: int, dst_dim: int) -> List[Tuple[int, ...]]:
    """Every full-column-rank dst x src bitmask matrix, fixed order."""
    out = []
    for rows in enum_gf2_bits(dst_dim, src_dim):
        cols = [
            sum(((rows[i] >> j) & 1) << i for i in range(dst_dim))
            for j in range(src_dim)
        ]
        if gf2_rank(cols) == src_dim:
            out.append(rows)
    return out


def brute_force_leq_gf2(c: Cospan, d: Cospan) -> bool:
    """Search every mono between the bulks for one commuting with the legs."""
    if c.f0.mat.field.characteristic != 2:
        raise ValueError("bitmask oracle works over GF(2) only")
    b, bp = c.bulk.dim, d.bulk.dim
    if b > bp:
        return False
    f0, f1 = bits_from_matrix(c.f0.mat), bits_from_matrix(c.f1.mat)
    t0, t1 = bits_from_matrix(d.f0.mat), bits_from_matrix(d.f1.mat)
    a0, a1 = c.f0.src.dim, c.f1.src.dim
    for g in enum_gf2_monos(b, bp):
        if gf2_mul(g, f0, a0) == t0 and gf2_mul(g, f1, a1) == t1:
            return True
    return False


def gf2_left_nullspace(rows: Sequence[int]) -> List[int]:
    """Basis of the left null space of a bitmask matrix.

    Returned entries are bitmasks over row indices: x is in the output when
    the rows selected by x sum to zero, and the outputs are independent
    (each introduces a fresh leading index), so subset sums enumerate the
    whole space.
    """
    basis: List[Tuple[int, int]] = []
    out: List[int] = []
    for i, r in enumerate(rows):
        combo = 1 << i
        for val, c in basis:
            nr = r ^ val
            if nr < r:
                r, combo = nr, combo ^ c
        if r:
            basis.append((r, combo))
            basis.sort(key=lambda t: -t[0])
        else:
            out.append(combo)
    return out


def brute_force_upper_bound_gf2(c: Cospan, d: Cospan) -> bool:
    """Search for a common extension of the two bulks.

    Wanted: monos g, g' from the two bulks into one space k^w agreeing on
    both legs. Any solution restricts to the join of the two images, so
    w equal to the sum of the bulk dimensions is enough; and the commuting
    constraints are linear, so rows of the stacked matrix [g | g'] must lie
    in an explicit null space, which cuts the enumeration down to that
    space's GF(2) points.
    """
    if c.f0.mat.field.characteristic != 2:
        raise ValueError("bitmask oracle works over GF(2) only")
    b, bp = c.bulk.dim, d.bulk.dim
    w = b + bp
    if w == 0:
        return True
    a0 = c.f0.src.dim
    joint_c = [r0 | (r1 << a0) for r0, r1 in zip(bits_from_matrix(c.f0.mat), bits_from_matrix(c.f1.mat))]
    joint_d = [r0 | (r1 << a0) for r0, r1 in zip(bits_from_matrix(d.f0.mat), bits_from_matrix(d.f1.mat))]
    null = gf2_left_nullspace(joint_c + joint_d)
    vectors = [0]
    for basis_vec in null:
        vectors += [v ^ basis_vec for v in vectors]
    mask_b = (1 << b) - 1
    # block ranks ignore row order and repeats, so multisets of rows suffice
    for rows in itertools.combinations_with_replacement(vectors, w):
        if gf2_rank([r & mask_b for r in rows]) != b:
            continue
        if gf2_rank([r >> b for r in rows]) == bp:
            return True
    return False


def enum_cospans_gf2(
    field: Field, a0: int, a1: int, max_bulk: int
) -> Iterator[Cospan]:
    """Every cospan with the given feet and bulk up to max_bulk, fixed order."""
    A0, A1 = VecObj(field, a0), VecObj(field, a1)
    for b in range(max_bulk + 1):
        B = VecObj(field, b)
        for bits0 in enum_gf2_bits(b, a0):
            m0 = bits_to_matrix(field, bits0, a0)
            for bits1 in enum_gf2_bits(b, a1):
                yield Cospan(
                    LinMap(A0, B, m0), LinMap(A1, B, bits_to_matrix(field, bits1, a1))
                )


def rand_complex(
    rng: random.Random, max_vertices: int, max_simplex: int = 3
) -> SimplicialComplex:
    n = rng.randint(1, max_vertices)
    maximal = []
    for _ in range(rng.randint(0, 6)):
        size = rng.randint(1, min(max_simplex + 1, n))
        maximal.append(rng.sample(range(n), size))
    return closure_and_validate(n, maximal)


def _maximal_simplices(K: SimplicialComplex) -> List[Tuple[int, ...]]:
    pool = simplex_set(K)
    return sorted(
        s
        for s in pool
        if not any(t != s and set(s) <= set(t) for t in pool)
    )


def rand_triad(
    rng: random.Random, max_vertices: int
) -> Tuple[SimplicialComplex, SimplicialComplex, SimplicialComplex, SimplicialComplex]:
    """A random subcomplex triad (T, K0, K1, L) on one vertex numbering.

    Every maximal simplex of a random L lands in K0, K1 or both, so the
    union is L; T is the literal intersection of the two halves.
    """
    L = rand_complex(rng, max_vertices)
    part0, part1 = [(0,)], [(0,)]
    for s in _maximal_simplices(L):
        where = rng.randrange(3)
        if where != 1:
            part0.append(s)
        if where != 0:
            part1.append(s)
    K0 = closure_and_validate(L.n_vertices, part0)
    K1 = closure_and_validate(L.n_vertices, part1)
    T = closure_and_validate(
        L.n_vertices, sorted(simplex_set(K0) & simplex_set(K1))
    )
    return T, K0, K1, L


def rand_simplicial_map(
    rng: random.Random,
    src: SimplicialComplex,
    dst: SimplicialComplex,
    tries: int = 40,
) -> SimplicialMap:
    """A random pointed simplicial map, or the constant map when sampling
    keeps missing (a sparse target makes valid assignments rare)."""
    verts = dst.vertices
    for _ in range(tries):
        vm = [0] * src.n_vertices
        for v in src.vertices:
            if v:
                vm[v] = rng.choice(verts)
        try:
            return make_simplicial_map(src, dst, vm)
        except ValueError:
            continue
    return constant_map(src, dst)


def rand_space_cospan(rng: random.Random, max_vertices: int) -> Cospan:
    L = rand_complex(rng, max_vertices)
    k0 = rand_complex(rng, max_vertices)
    k1 = rand_complex(rng, max_vertices)
    return Cospan(
        rand_simplicial_map(rng, k0, L), rand_simplicial_map(rng, k1, L)
    )


def rand_composable_space_cospans(
    rng: random.Random, max_vertices: int
) -> Tuple[Cospan, Cospan]:
    shared = rand_complex(rng, max_vertices)
    left = rand_complex(rng, max_vertices)
    right = rand_complex(rng, max_vertices)
    La = rand_complex(rng, max_vertices)
    Lb = rand_complex(rng, max_vertices)
    c = Cospan(
        rand_simplicial_map(rng, left, La), rand_simplicial_map(rng, shared, La)
    )
    d = Cospan(
        rand_simplicial_map(rng, shared, Lb), rand_simplicial_map(rng, right, Lb)
    )
    return c, d
