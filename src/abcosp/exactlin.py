"""Exact dense linear algebra over GF(p) and the rationals.

Every operation in the layers above reduces to the functions in this module.
Entries are exact: residues in ``[0, p)`` for a prime ``p``, or ``Fraction``
values in lowest terms for characteristic zero. Floating point is never used
because rank decisions must be exact.

All canonical forms are derived from the reduced row echelon form, so two
equal subspaces always produce bit-identical basis matrices. Matrices are
immutable value objects and all operations are pure functions, safe for
concurrent use.

Over the rationals the two kernels, ``rref`` and the matrix product, compute
on Python ints: ``_integer_rows`` writes a matrix as integer rows over one
common denominator, the arithmetic runs on those rows, and ``Fraction``
objects are built once, for the stored output entries.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from typing import Mapping, Optional, Sequence, Tuple, Union

Scalar = Union[int, Fraction]

# The rational zero and one. ``Fraction`` is immutable, so every zero entry
# over Q can be this one object: tuple comparison of entries then stops at
# the identity test, and no ``Fraction`` is built per zero.
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


class FieldMismatch(ValueError):
    """Operands live over different fields."""


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin; these witness bases are exact far beyond 2^31.
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """A prime field GF(p), or the rationals when ``characteristic`` is 0."""

    characteristic: int

    def __post_init__(self) -> None:
        c = self.characteristic
        if isinstance(c, bool) or not isinstance(c, int):
            raise ValueError(f"characteristic must be an integer, got {c!r}")
        if c == 0:
            return
        if not (2 <= c < 2 ** 31 and _is_prime(c)):
            raise ValueError(
                f"characteristic must be 0 or a prime below 2^31, got {c}"
            )

    def zero(self) -> Scalar:
        return _Q_ZERO if self.characteristic == 0 else 0

    def one(self) -> Scalar:
        return _Q_ONE if self.characteristic == 0 else 1

    def coerce(self, value) -> Scalar:
        """Normalize ``value`` into this field.

        Rationals become ``Fraction`` in lowest terms with positive
        denominator; GF(p) values become residues in ``[0, p)``. Raises
        ``ValueError`` for entries that do not embed (for example a proper
        fraction handed to a finite field).
        """
        if self.characteristic == 0:
            return Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise ValueError(
                    f"{value} has no image in GF({self.characteristic})"
                )
            value = value.numerator
        if not isinstance(value, int):
            raise ValueError(f"bad scalar {value!r} for GF({self.characteristic})")
        return value % self.characteristic


QQ = Field(0)
GF2 = Field(2)
GF3 = Field(3)


def hash_once(cls):
    """Give a frozen dataclass a ``__hash__`` that is computed once.

    Apply it outside ``@dataclass(frozen=True)``. The class must have two or
    more fields, or ``TypeError`` is raised: ``attrgetter`` of one name
    returns the bare field, not a 1-tuple, so the stored hash would not be
    the dataclass's. The hash is the one the dataclass would compute,
    ``hash`` of the tuple of fields. It is stored as the instance attribute
    ``_hash`` on first use, out of sight of ``==``, ``repr`` and
    ``dataclasses.fields``. Values used as ``lru_cache`` keys are hashed on
    every lookup, and rehashing nested entry tuples is costly, above all
    ``Fraction.__hash__``.

    The class attribute ``_hash = None`` makes the first lookup a plain
    attribute read: catching an ``AttributeError`` there cost more than
    hashing a small GF(2) matrix. Reading ``self.__dict__`` would build a
    dict per instance, about three times the memory of the stored int.
    """
    names = [f.name for f in fields(cls)]
    if len(names) < 2:
        raise TypeError(
            f"hash_once needs two or more fields; {cls.__name__} has {len(names)}"
        )
    key = attrgetter(*names)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(key(self))
            object.__setattr__(self, "_hash", h)
        return h

    cls._hash = None
    cls.__hash__ = __hash__
    return cls


@hash_once
@dataclass(frozen=True)
class Matrix:
    """An immutable ``rows x cols`` matrix with exact entries.

    ``entries`` is a tuple of row tuples. Construct through ``from_rows``,
    ``zeros`` or ``identity`` so entries are normalized; direct construction
    assumes already normalized entries.
    """

    field: Field
    rows: int
    cols: int
    entries: Tuple[Tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ShapeError(f"negative shape ({self.rows}, {self.cols})")
        if len(self.entries) != self.rows or any(
            len(row) != self.cols for row in self.entries
        ):
            raise ShapeError("entry grid does not match declared shape")

    @classmethod
    def from_rows(
        cls, field: Field, rows: Sequence[Sequence], cols: Optional[int] = None
    ) -> "Matrix":
        data = [tuple(field.coerce(x) for x in row) for row in rows]
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ShapeError("ragged rows")
            if cols is not None and cols != width:
                raise ShapeError(f"declared cols {cols} but rows have {width}")
            cols = width
        elif cols is None:
            raise ShapeError("a 0-row matrix needs an explicit column count")
        return cls(field, len(data), cols, tuple(data))

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return cls(field, rows, cols, tuple((z,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return cls(
            field, n, n,
            tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)),
        )

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries[i][j]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field, self.cols, self.rows,
            tuple(zip(*self.entries)) if self.entries else tuple(
                () for _ in range(self.cols)
            ),
        )

    def is_zero(self) -> bool:
        # every nonzero entry, int or Fraction, is truthy
        return not any(map(any, self.entries))

    def take_cols(self, idxs: Sequence[int]) -> "Matrix":
        return Matrix(
            self.field, self.rows, len(idxs),
            tuple(tuple(row[j] for j in idxs) for row in self.entries),
        )

    def take_rows(self, idxs: Sequence[int]) -> "Matrix":
        return Matrix(
            self.field, len(idxs), self.cols,
            tuple(self.entries[i] for i in idxs),
        )

    def __neg__(self) -> "Matrix":
        p = self.field.characteristic
        if p == 0:
            data = tuple(tuple(-a if a else a for a in row) for row in self.entries)
        else:
            data = tuple(tuple((-a) % p for a in row) for row in self.entries)
        return Matrix(self.field, self.rows, self.cols, data)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        _check_same_field(self, other)
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        if self.rows == 0 or other.cols == 0:
            return Matrix.zeros(self.field, self.rows, other.cols)
        p = self.field.characteristic
        brows, d = (other.entries, 1) if p else _integer_rows(other.entries)
        zero = _Q_ZERO
        out = []
        for row in self.entries:
            # scale the row to integers, then add c * (row j of other) for
            # each nonzero entry c; zero entries cost nothing
            s = 1 if p else lcm(*(a.denominator for a in row))
            acc = [0] * other.cols
            for a, brow in zip(row, brows):
                if a:
                    c = a if p else a.numerator * (s // a.denominator)
                    acc = [u + c * v for u, v in zip(acc, brow)]
            if p:
                out.append(tuple(x % p for x in acc))
            else:
                s *= d
                out.append(tuple(Fraction(x, s) if x else zero for x in acc))
        return Matrix(self.field, self.rows, other.cols, tuple(out))


def _integer_rows(entries) -> Tuple[list, int]:
    """Integer rows ``N`` and one common denominator ``d`` with
    ``entries == N / d``, for rational entries."""
    d = lcm(*(x.denominator for row in entries for x in row))
    if d == 1:
        return [[x.numerator for x in row] for row in entries], 1
    return [[x.numerator * (d // x.denominator) for x in row] for row in entries], d


def _check_same_field(a: Matrix, b: Matrix) -> None:
    if a.field != b.field:
        raise FieldMismatch(f"{a.field} vs {b.field}")


def hstack(*ms: Matrix) -> Matrix:
    if not ms:
        raise ShapeError("hstack of nothing")
    first = ms[0]
    for m in ms[1:]:
        _check_same_field(first, m)
        if m.rows != first.rows:
            raise ShapeError("hstack needs equal row counts")
    cols = sum(m.cols for m in ms)
    data = tuple(
        tuple(x for m in ms for x in m.entries[i]) for i in range(first.rows)
    )
    return Matrix(first.field, first.rows, cols, data)


def vstack(*ms: Matrix) -> Matrix:
    if not ms:
        raise ShapeError("vstack of nothing")
    first = ms[0]
    for m in ms[1:]:
        _check_same_field(first, m)
        if m.cols != first.cols:
            raise ShapeError("vstack needs equal column counts")
    data = tuple(row for m in ms for row in m.entries)
    return Matrix(first.field, sum(m.rows for m in ms), first.cols, data)


@dataclass(frozen=True)
class Rref:
    """Reduced row echelon form together with pivot bookkeeping."""

    R: Matrix
    pivots: Tuple[int, ...]
    rank: int


def rref(M: Matrix) -> Rref:
    """The unique reduced row echelon form of ``M``.

    Pivot columns are strictly increasing, pivot entries are 1 and are the
    only nonzero entries in their columns.

    Over the rationals the elimination is fraction-free: it runs Gauss-Jordan
    on integer rows, replacing a row by ``a * row - f * pivot_row`` and then
    dividing it by the gcd of its entries. Those are invertible row
    operations, so the row space never changes, and each final pivot row is
    a nonzero multiple of the matching row of the RREF. Dividing it by its
    pivot gives that row exactly, because the RREF of a matrix is unique.
    """
    p = M.field.characteristic
    if p == 0:
        return _rref_rational(M)
    m, n = M.rows, M.cols
    rows = [list(r) for r in M.entries]
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = None
        for i in range(r, m):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rowr = [x * inv % p for x in rows[r]]
        rows[r] = rowr
        for i in range(m):
            f = rows[i][c]
            if i == r or f == 0:
                continue
            rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rowr)]
        pivots.append(c)
        r += 1
    R = Matrix(M.field, m, n, tuple(tuple(row) for row in rows))
    return Rref(R, tuple(pivots), r)


def _rref_rational(M: Matrix) -> Rref:
    m, n = M.rows, M.cols
    rows, _ = _integer_rows(M.entries)
    rows = [_primitive(row) for row in rows]
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = None
        for i in range(r, m):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rowr = rows[r]
        a = rowr[c]
        for i in range(m):
            f = rows[i][c]
            if i == r or f == 0:
                continue
            g = gcd(a, f)
            ai, fi = a // g, f // g
            rows[i] = _primitive([ai * x - fi * y for x, y in zip(rows[i], rowr)])
        pivots.append(c)
        r += 1
    # rows past the rank have been eliminated to zero
    zero = _Q_ZERO
    data = tuple(
        tuple(Fraction(x, row[c]) if x else zero for x in row)
        for row, c in zip(rows, pivots)
    ) + ((zero,) * n,) * (m - r)
    return Rref(Matrix(M.field, m, n, data), tuple(pivots), r)


def _primitive(row: list) -> list:
    """``row`` divided by the gcd of its entries; an all-zero row as is."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def rank(M: Matrix) -> int:
    return rref(M).rank


def extend_columns(base: Matrix, cands: Matrix) -> Tuple[Tuple[int, ...], Rref]:
    """Greedily extend the column span of ``base`` by columns of ``cands``.

    Candidate ``j`` is kept when it is independent of ``base`` and of the
    candidates kept before it. Those are exactly the pivot columns of
    ``rref([base | cands])`` past ``base``, so one elimination decides them
    all. Returns the kept candidate indices and that reduced form.
    """
    red = rref(hstack(base, cands))
    b = base.cols
    return tuple(pc - b for pc in red.pivots if pc >= b), red


def _null_vectors(M: Matrix) -> list:
    """The basis of ``ker M`` read off ``R = rref(M)``, one tuple per vector.

    For each free column ``f``, in increasing order, the vector is
    ``e_f - sum_i R[i][f] e_(pivot i)``: the negation is ``-v`` over Q and
    ``p - v`` over GF(p). ``R[i][f]`` is zero unless pivot ``i`` comes
    before ``f``, so each vector has its own free column as its last
    nonzero entry and zeros at every other free column.
    """
    red = rref(M)
    R, pivots = red.R.entries, red.pivots
    n = M.cols
    z, o = M.field.zero(), M.field.one()
    p = M.field.characteristic
    vecs = []
    k = 0  # the pivots before f, the only rows that can be nonzero at f
    for f in range(n):
        if k < red.rank and pivots[k] == f:
            k += 1
            continue
        vec = [z] * n
        vec[f] = o
        for pc, row in zip(pivots[:k], R):
            val = row[f]
            if val:
                vec[pc] = -val if p == 0 else p - val
        vecs.append(tuple(vec))
    return vecs


def kernel_basis(M: Matrix) -> Matrix:
    """Canonical basis of ``ker M``, one column per free variable.

    Free variables are taken in increasing column order and each is set to 1,
    so the output is a unique function of the kernel subspace. It is the
    echelon basis of the kernel in reversed coordinate order: each column
    read backwards, last column first, is a row of ``kernel_rref`` of ``M``
    with its columns reversed.
    """
    vecs = _null_vectors(M)
    data = tuple(zip(*vecs)) if vecs else ((),) * M.cols
    return Matrix(M.field, M.cols, len(vecs), data)


def kernel_rref(M: Matrix) -> Matrix:
    """The reduced row echelon basis of ``ker M``, one row per vector.

    One elimination does it: the null vectors of ``M`` with its columns
    reversed, each read backwards, in reverse order. A free column ``k`` of
    ``M`` gives a vector whose first nonzero entry is a 1 at ``k``, with
    zeros at every other free column, so the rows, taken in increasing
    ``k``, are the unique RREF of the kernel.
    """
    n = M.cols
    vecs = _null_vectors(
        Matrix(M.field, M.rows, n, tuple(row[::-1] for row in M.entries))
    )
    rows = tuple(vec[::-1] for vec in reversed(vecs))
    return Matrix(M.field, len(rows), n, rows)


def image_basis(M: Matrix) -> Matrix:
    """Canonical basis of the column span of ``M``.

    Concretely the nonzero rows of ``rref(transpose(M))`` written back as
    columns. This is the canonical form used to compare subspaces: the output
    depends only on the span, not on the presenting matrix.
    """
    red = rref(M.transpose())
    r = red.rank
    data = tuple(
        tuple(red.R.entries[j][i] for j in range(r)) for i in range(M.rows)
    )
    return Matrix(M.field, M.rows, r, data)


def subspace_contains(B1: Matrix, B2: Matrix) -> bool:
    """Whether ``span(B2)`` is a subspace of ``span(B1)`` (columns spans)."""
    _check_same_field(B1, B2)
    if B1.rows != B2.rows:
        raise ShapeError("ambient dimensions differ")
    return rank(hstack(B1, B2)) == rank(B1)


def subspace_equal(B1: Matrix, B2: Matrix) -> bool:
    """Whether two column spans coincide, decided on canonical forms."""
    _check_same_field(B1, B2)
    if B1.rows != B2.rows:
        raise ShapeError("ambient dimensions differ")
    return image_basis(B1) == image_basis(B2)


def solve_left(V: Matrix, W: Matrix) -> Optional[Matrix]:
    """One solution ``G`` of ``G @ V == W``, or None.

    A solution exists exactly when ``ker V`` is contained in ``ker W``. It is
    the transpose of the solution of ``V.T @ G.T == W.T``, so free variables
    of the transposed system are set to zero.
    """
    _check_same_field(V, W)
    if V.cols != W.cols:
        raise ShapeError("solve_left needs matching column counts")
    X = solve_right(V.transpose(), W.transpose())
    return None if X is None else X.transpose()


def solve_right(A: Matrix, B: Matrix) -> Optional[Matrix]:
    """One solution ``X`` of ``A @ X == B``, or None.

    A solution exists exactly when every column of ``B`` lies in the column
    span of ``A``. Free variables are set to zero.
    """
    _check_same_field(A, B)
    if A.rows != B.rows:
        raise ShapeError("solve_right needs matching row counts")
    aug = rref(hstack(A, B))
    n = A.cols
    if any(pc >= n for pc in aug.pivots):
        return None
    z = A.field.zero()
    x = [[z] * B.cols for _ in range(n)]
    for i, pc in enumerate(aug.pivots):
        for j in range(B.cols):
            x[pc][j] = aug.R.entries[i][n + j]
    return Matrix(A.field, n, B.cols, tuple(tuple(row) for row in x))


def block_matrix(
    field: Field,
    heights: Sequence[int],
    widths: Sequence[int],
    parts: Mapping[Tuple[int, int], Optional[Matrix]],
) -> Matrix:
    """The block matrix with ``parts[i, j]`` in block row ``i`` and block
    column ``j``, and zeros in every block ``parts`` leaves out or maps to
    None.

    Block row ``i`` is ``heights[i]`` rows high and block column ``j`` is
    ``widths[j]`` columns wide. Each row is written once, from the present
    blocks and shared zero runs. Raises ``FieldMismatch`` for a block over
    another field and ``ShapeError`` for a block of the wrong shape.
    """
    for (i, j), m in parts.items():
        if m is None:
            continue
        if m.field != field:
            raise FieldMismatch(f"{field} vs {m.field}")
        if not (0 <= i < len(heights) and 0 <= j < len(widths)):
            raise ShapeError(f"block ({i}, {j}) lies outside the block grid")
        if (m.rows, m.cols) != (heights[i], widths[j]):
            raise ShapeError(
                f"block ({i}, {j}) is {m.rows}x{m.cols}, "
                f"expected {heights[i]}x{widths[j]}"
            )
    z = field.zero()
    cols = sum(widths)
    data = []
    for i, h in enumerate(heights):
        blocks = [parts.get((i, j)) for j in range(len(widths))]
        if all(m is None for m in blocks):
            data.extend(((z,) * cols,) * h)
            continue
        columns = [
            ((z,) * w,) * h if m is None else m.entries
            for m, w in zip(blocks, widths)
        ]
        data.extend(sum(pieces, ()) for pieces in zip(*columns))
    return Matrix(field, sum(heights), cols, tuple(data))


def direct_sum(M: Matrix, N: Matrix) -> Matrix:
    """Block diagonal sum ``[[M, 0], [0, N]]``."""
    return block_matrix(
        M.field, (M.rows, N.rows), (M.cols, N.cols), {(0, 0): M, (1, 1): N}
    )


def scalar_to_token(field: Field, s: Scalar):
    """JSON-friendly form of one entry: int for GF(p) and integral rationals,
    the string ``"a/b"`` in lowest terms otherwise."""
    if field.characteristic != 0:
        return int(s)
    f = Fraction(s)
    if f.denominator == 1:
        return int(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def matrix_to_rows(M: Matrix) -> list:
    """Nested-list form of a matrix with JSON-friendly entries."""
    return [[scalar_to_token(M.field, x) for x in row] for row in M.entries]
