"""Rational results checked against GF(p) results, p = 2^31 - 1.

Reducing modulo a prime commutes with the reduced row echelon form and the
matrix product whenever the prime divides no denominator and no pivot minor
of the input. So a result over Q, reduced mod p, must equal the result over
GF(p) on the reduced input. The rational side runs the fraction-free
integer elimination and the GF(p) side the modular one; the reduction is
written here with plain integer arithmetic.

Each seeded pair is checked through ``rref`` (reduced form and pivots),
``kernel_basis`` and ``cokernel`` of a joint map,
``canonical_cosp(compose_cosp(c, d))`` (a pushout, then ``kernel_rref``),
both legs of ``transpose_cosp(c)`` (``kernel_rref`` of the joint map of
``c``), so ``kernel_rref`` is checked on two matrices per pair, and
``canonical_span`` of the composite of the two transposes (a pullback, then
``image_basis``).

The seeded cospans have entries in {0, +-1/2, +-1, +-2}, feet of dimension
at most 3 and bulks of at most 4, so every denominator and pivot minor is
far below p, and a disagreement is a defect.
"""

import random
from functools import lru_cache

from abcosp.abcat import LinMap, VecObj, cokernel
from abcosp.cospan import (
    Cospan,
    canonical_cosp,
    canonical_span,
    compose_cosp,
    compose_span,
    joint_map,
    transpose_cosp,
)
from abcosp.exactlin import QQ, Field, Matrix, kernel_basis, rref
from abcosp.generators import rand_cospan_chain

P = 2 ** 31 - 1
GFP = Field(P)


@lru_cache(maxsize=None)
def inverse(d: int) -> int:
    return pow(d, -1, P)


def reduce_matrix(M: Matrix) -> Matrix:
    return Matrix(GFP, M.rows, M.cols, tuple(
        tuple(x.numerator * inverse(x.denominator) % P for x in row)
        for row in M.entries
    ))


def reduce_linmap(f: LinMap) -> LinMap:
    return LinMap(VecObj(GFP, f.src.dim), VecObj(GFP, f.dst.dim), reduce_matrix(f.mat))


def reduce_cospan(c: Cospan) -> Cospan:
    return Cospan(reduce_linmap(c.f0), reduce_linmap(c.f1))


def test_rational_results_reduce_to_gfp_results():
    rng = random.Random(20261019)
    halves = 0
    for _ in range(2000):
        c, d = rand_cospan_chain(rng, QQ, 2, 3, 4)
        cp, dp = reduce_cospan(c), reduce_cospan(d)
        halves += any(x.denominator == 2 for x in c.f0.mat.entries for x in x)
        j, jp = joint_map(d), joint_map(dp)
        red, redp = rref(j.mat), rref(jp.mat)
        assert reduce_matrix(red.R) == redp.R and red.pivots == redp.pivots
        assert reduce_matrix(kernel_basis(j.mat)) == kernel_basis(jp.mat)
        assert reduce_matrix(cokernel(j).mat) == cokernel(jp).mat
        # the composite's bulk is a pushout, a cokernel; its class, and the
        # transpose of c, are kernel_rref of a joint map, transposed
        K = canonical_cosp(compose_cosp(c, d)).K
        assert reduce_matrix(K) == canonical_cosp(compose_cosp(cp, dp)).K
        t, tp = transpose_cosp(c), transpose_cosp(cp)
        assert reduce_matrix(t.g0.mat) == tp.g0.mat
        assert reduce_matrix(t.g1.mat) == tp.g1.mat
        # the composite span's bulk is a pullback, a kernel; its class is the
        # image basis of its joint map
        K = canonical_span(compose_span(t, transpose_cosp(d))).K
        assert reduce_matrix(K) == canonical_span(
            compose_span(tp, transpose_cosp(dp))
        ).K
    # non-integer entries do occur
    assert halves > 500
