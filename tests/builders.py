"""Builders that only the tests and the golden corpus generator use.

``tests/golden/generate.py`` imports them too, so moving or changing one
changes the regenerated corpus: keep the rng draws as they are.
"""

from __future__ import annotations

import random

from abcosp.abcat import LinMap, VecObj
from abcosp.cospan import Span
from abcosp.exactlin import Field, Matrix
from abcosp.generators import rand_linmap


def zero_map(A: VecObj, B: VecObj) -> LinMap:
    return LinMap(A, B, Matrix.zeros(A.field, B.dim, A.dim))


def rand_span(
    rng: random.Random, field: Field, a0: int, a1: int, max_bulk: int
) -> Span:
    c = rng.randint(0, max_bulk)
    return Span(rand_linmap(rng, field, c, a0), rand_linmap(rng, field, c, a1))
