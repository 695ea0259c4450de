"""The three benchmark workloads: seeded input generation, the call a user
waits on, and an independent check of its output.

Item ``i`` of a workload depends only on the seed and on ``i`` (its own
``random.Random``), so a run can generate inputs in batches outside the timed
region and still see the same stream as any other run with that seed. The
library is reached only through module attributes looked up at call time, so
the tracer's patched functions are the ones that run.

The checks never call ``abcosp``: ranks and products are recomputed here
with plain exact arithmetic on the public ``entries`` of each matrix. That
keeps them independent of the code under test and out of the trace.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random
from fractions import Fraction

DEFAULT_SEED = 0
DIGEST_HEX = 8

# One item in five of gf2-preorder is an exact-square query, the rest are
# same-feet pairs; the mix of criteria 1 and 3 in the acceptance suite.
SQUARE_SHARE = 0.2


class CheckFailed(Exception):
    """An output disagrees with the independent recomputation."""


def item_rng(seed: int, i: int) -> random.Random:
    return random.Random(seed * 1_000_003 + i)


def digest(token) -> str:
    text = json.dumps(token, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_HEX]


# Independent exact arithmetic. ``p`` is the characteristic, 0 for Q.


def _mul(a, b, p):
    """Product of two library matrices as nested lists."""
    cols = [[row[j] for row in b.entries] for j in range(b.cols)]
    out = []
    for row in a.entries:
        if p:
            out.append([sum(x * y for x, y in zip(row, col)) % p for col in cols])
        else:
            out.append([sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols])
    return out


def _rank(rows, p) -> int:
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p) if p else 1 / Fraction(rows[r][c])
        for i in range(r + 1, len(rows)):
            f = rows[i][c] * inv
            if f:
                if p:
                    rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
                else:
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def _m(m):
    """Entries of a library matrix as nested lists."""
    return [list(row) for row in m.entries]


def _char(m) -> int:
    return m.field.characteristic


def _tok(m):
    return [m.rows, m.cols, [str(x) for row in m.entries for x in row]]


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _expect_mono(w, what: str) -> None:
    _expect(_rank(_m(w.mat), _char(w.mat)) == w.mat.cols, f"{what} is not mono")


def _expect_product(g, f, target, what: str) -> None:
    _expect(_mul(g.mat, f.mat, _char(g.mat)) == _m(target.mat), what)


def _joint_rows(c):
    return [r0 + r1 for r0, r1 in zip(_m(c.f0.mat), _m(c.f1.mat))]


class Workload:
    name = ""
    # Items generated at a time, outside the timed region; the first batch
    # is part of set-up.
    batch = 1
    # Items per second of a trace run's budget: a traced run processes
    # this many items per requested second, a fixed prefix of the stream,
    # so per-layer counts repeat exactly from run to run.
    trace_rate = 1.0
    # A timed run ends only after a whole number of this many items, so
    # that a stratified stream is always run in full strata.
    cycle = 1
    # peak_rss_mb is read after this many items, so that a faster commit,
    # which gets through more items and fills the unbounded caches further,
    # is not charged for it.
    rss_items = 200

    def __init__(self, ab, seed: int, caches):
        self.ab = ab
        self.seed = seed
        self.caches = caches

    def generate(self, start: int, count: int) -> list:
        return [self.item(i) for i in range(start, start + count)]

    def before(self) -> None:
        """Run before each item, outside the timed region."""

    def item(self, i: int):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, out):
        """Raise CheckFailed on a wrong output; return the digest token."""
        raise NotImplementedError


class Gf2Preorder(Workload):
    """Same-feet pairs from the exhaustive pool of GF(2) cospans with feet
    and bulk at most 2, mixed with seeded commuting GF(2) squares."""

    name = "gf2-preorder"
    batch = 2000
    trace_rate = 500.0
    rss_items = 10_000

    def __init__(self, ab, seed, caches):
        super().__init__(ab, seed, caches)
        gf2 = ab.exactlin.GF2
        self.groups = [
            list(ab.generators.enum_cospans_gf2(gf2, a0, a1, 2))
            for a0 in range(3)
            for a1 in range(3)
        ]
        self.ends = list(itertools.accumulate(len(g) ** 2 for g in self.groups))

    def item(self, i):
        rng = item_rng(self.seed, i)
        if rng.random() < SQUARE_SHARE:
            gf2 = self.ab.exactlin.GF2
            return ("square", self.ab.generators.rand_commuting_square(rng, gf2, 2))
        k = rng.randrange(self.ends[-1])
        g = bisect.bisect_right(self.ends, k)
        k -= self.ends[g - 1] if g else 0
        group = self.groups[g]
        return ("pair", group[k // len(group)], group[k % len(group)])

    def run(self, item):
        if item[0] == "square":
            return self.ab.abcat.is_exact_square(item[1])
        _, c, d = item
        C = self.ab.cospan
        return (
            C.equiv_cosp(c, d),
            C.leq_cosp(c, d),
            C.upper_bound(c, d),
            C.lower_bound(c, d),
        )

    def check(self, item, out):
        if item[0] == "square":
            return ["square", self._check_square(item[1], out)]
        _, c, d = item
        eq, w, ub, lb = out
        p = _char(c.f0.mat)
        jc, jd = _joint_rows(c), _joint_rows(d)
        # equal joint kernels iff equal joint row spaces
        same = _rank(jc, p) == _rank(jd, p) == _rank(jc + jd, p)
        _expect(eq is same, "equiv verdict")
        _expect((w is not None) == (same and c.bulk.dim <= d.bulk.dim), "leq verdict")
        _expect((ub is not None) == same and (lb is not None) == same, "bound existence")
        tok = ["pair", eq, None, None, None]
        if w is not None:
            _expect_mono(w, "leq witness")
            _expect_product(w, c.f0, d.f0, "leq witness on leg 0")
            _expect_product(w, c.f1, d.f1, "leq witness on leg 1")
            tok[2] = _tok(w.mat)
        if ub is not None:
            for wit, src in ((ub.w_left, c), (ub.w_right, d)):
                _expect_mono(wit, "upper bound witness")
                _expect_product(wit, src.f0, ub.bound.f0, "upper bound leg 0")
                _expect_product(wit, src.f1, ub.bound.f1, "upper bound leg 1")
            tok[3] = [_tok(m.mat) for m in (ub.bound.f0, ub.bound.f1, ub.w_left, ub.w_right)]
        if lb is not None:
            for wit, dst in ((lb.w_left, c), (lb.w_right, d)):
                _expect_mono(wit, "lower bound witness")
                _expect_product(wit, lb.bound.f0, dst.f0, "lower bound leg 0")
                _expect_product(wit, lb.bound.f1, dst.f1, "lower bound leg 1")
            tok[4] = [_tok(m.mat) for m in (lb.bound.f0, lb.bound.f1, lb.w_left, lb.w_right)]
        return tok

    @staticmethod
    def _check_square(sq, exact):
        p = _char(sq.f.mat)
        _expect(
            _mul(sq.g.mat, sq.f.mat, p) == _mul(sq.g_prime.mat, sq.f_prime.mat, p),
            "square does not commute",
        )
        u = _m(sq.f.mat) + [[(-x) % p for x in row] for row in _m(sq.f_prime.mat)]
        v = [r0 + r1 for r0, r1 in zip(_m(sq.g.mat), _m(sq.g_prime.mat))]
        middle = sq.f.dst.dim + sq.f_prime.dst.dim
        # ker v = im u exactly when the dimensions match, since v . u = 0
        _expect(exact is (_rank(u, p) + _rank(v, p) == middle), "exactness verdict")
        return exact


QQ_MAX_BULK = 4


def _draw_with_bulks(draw, want):
    """Draw cospan chains until the first two have bulk dimensions ``want``."""
    while True:
        chain = draw()
        if (chain[0].bulk.dim, chain[1].bulk.dim) == want:
            return chain


class QqLaws(Workload):
    """Seeded rational cospan chains (feet <= 3, bulk <= 4) put through the
    category and transposition laws and one leq decision.

    Items are stratified on the bulk dimensions of the first two cospans of
    the chain and of the side chain, which the laws compose: together they
    explain about 80% of the variance of the log of an item's time. Each
    chain is drawn from the generator until its pair of bulk dimensions is
    the one wanted. In every cycle of 25 items, each of the 25 equally likely
    pairs comes once for the chain and once for the side chain, and their
    pairing shifts by one from cycle to cycle. A timed run covers whole
    cycles, so the mix of item sizes is the same in every run.
    """

    name = "qq-laws"
    # Small, as in brown-verify: the first batch is part of set-up.
    batch = 5
    cycle = (QQ_MAX_BULK + 1) ** 2
    trace_rate = 12.0
    rss_items = 400

    def item(self, i):
        rng = item_rng(self.seed, i)
        G, qq = self.ab.generators, self.ab.exactlin.QQ
        k, turn = i % self.cycle, i // self.cycle
        chain = _draw_with_bulks(lambda: G.rand_cospan_chain(rng, qq, 3, 3, QQ_MAX_BULK),
                                 divmod(k, QQ_MAX_BULK + 1))
        side = _draw_with_bulks(lambda: G.rand_cospan_chain(rng, qq, 2, 3, QQ_MAX_BULK),
                                divmod((k + turn) % self.cycle, QQ_MAX_BULK + 1))
        pair = G.rand_leq_pair(rng, qq, 3, 4)
        return chain, side, pair

    def run(self, item):
        (c1, c2, c3), (d1, d2), (low, high) = item
        C = self.ab.cospan
        laws = (
            (
                C.canonical_cosp(C.compose_cosp(C.compose_cosp(c1, c2), c3)),
                C.canonical_cosp(C.compose_cosp(c1, C.compose_cosp(c2, c3))),
            ),
            (
                C.canonical_cosp(C.dagger_cosp(C.compose_cosp(c1, c2))),
                C.canonical_cosp(C.compose_cosp(C.dagger_cosp(c2), C.dagger_cosp(c1))),
            ),
            (
                C.canonical_cosp(C.compose_cosp(C.tensor_cosp(c1, d1), C.tensor_cosp(c2, d2))),
                C.canonical_cosp(C.tensor_cosp(C.compose_cosp(c1, c2), C.compose_cosp(d1, d2))),
            ),
            (
                C.canonical_cosp(C.transpose_span(C.transpose_cosp(c1))),
                C.canonical_cosp(c1),
            ),
            (
                C.canonical_span(C.transpose_cosp(C.compose_cosp(c1, c2))),
                C.canonical_span(C.compose_span(C.transpose_cosp(c1), C.transpose_cosp(c2))),
            ),
        )
        return laws, C.leq_cosp(low, high)

    def check(self, item, out):
        laws, w = out
        tok = []
        for k, (lhs, rhs) in enumerate(laws):
            left = [lhs.A0.dim, lhs.A1.dim, _tok(lhs.K)]
            _expect(left == [rhs.A0.dim, rhs.A1.dim, _tok(rhs.K)], f"law {k} fails")
            tok.append(left)
        low, high = item[2]
        _expect(w is not None, "leq pair ordered by construction")
        _expect(w.mat.rows == high.bulk.dim and w.mat.cols == low.bulk.dim, "leq witness shape")
        _expect_mono(w, "leq witness")
        _expect_product(w, low.f0, high.f0, "leq witness on leg 0")
        _expect_product(w, low.f1, high.f1, "leq witness on leg 1")
        tok.append(_tok(w.mat))
        return tok


def _maximal_simplices(K):
    """Maximal simplices of a face-closed complex, from public attributes."""
    out = []
    for q in range(K.dim + 1):
        faces = {f for s in K.simplices(q + 1) for f in itertools.combinations(s, q + 1)}
        out.extend(list(s) for s in K.simplices(q) if s not in faces)
    return out


def verify_document(c, d, char: int) -> bytes:
    """A one-shot ``abcosp verify`` document for the composable pair c, d."""
    names: dict = {}

    def complex_name(K):
        for name, known in names.items():
            if known == K:
                return name
        name = f"k{len(names)}"
        names[name] = K
        return name

    maps = {}
    for name, f in (("a0", c.f0), ("a1", c.f1), ("b0", d.f0), ("b1", d.f1)):
        maps[name] = {
            "src": complex_name(f.src),
            "dst": complex_name(f.dst),
            "vertices": list(f.vertex_map),
        }
    doc = {
        "version": "1",
        "field": {"char": char},
        "complexes": {
            name: {"n_vertices": K.n_vertices, "maximal": _maximal_simplices(K)}
            for name, K in names.items()
        },
        "maps": maps,
        "space_cospans": {"lam": {"f0": "a0", "f1": "a1"}, "mu": {"f0": "b0", "f1": "b1"}},
        "inputs": {"cospan": "lam", "then": "mu"},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


# Upper edges of 16 equally likely classes of the total simplex count of the
# five complexes in a ``rand_composable_space_cospans(rng, 8)`` pair, from
# 20,000 draws of random.Random(424242). Within a field and degree, the log
# of a document's cost is about 80% explained by this count.
SIZE_EDGES = (19, 25, 29, 33, 37, 40, 43, 46, 50, 53, 57, 61, 66, 72, 81)


def _total_simplices(*complexes) -> int:
    return sum(len(K.simplices(q)) for K in complexes for q in range(K.dim + 1))


class BrownVerify(Workload):
    """One-shot ``abcosp verify`` documents: a composable pair of random
    space cospans (at most 8 vertices) per document, fields cycling over
    GF(2), GF(3) and Q, degree cycling over 0 to 2.

    Documents are stratified: field, degree and size class cycle through
    all 144 combinations, and each pair is drawn from the generator until
    it falls in its size class. A run covers whole cycles, so every run
    sees the same mix of document sizes and the spread between seeds stays
    small, while the documents within a class keep the generator's own
    distribution.
    """

    name = "brown-verify"
    # One, because rejection sampling makes the cost of a batch vary with
    # the seed, and the first batch is part of set-up.
    batch = 1
    cycle = 3 * 3 * (len(SIZE_EDGES) + 1)
    trace_rate = 6.0

    def item(self, i):
        ab = self.ab
        rng = item_rng(self.seed, i)
        field = (ab.exactlin.GF2, ab.exactlin.GF3, ab.exactlin.QQ)[i % 3]
        q = (i // 3) % 3
        size_class = (i // 9) % (len(SIZE_EDGES) + 1)
        while True:
            c, d = ab.generators.rand_composable_space_cospans(rng, 8)
            size = _total_simplices(c.f0.src, c.f1.src, c.f0.dst, d.f0.dst, d.f1.src)
            if bisect.bisect_right(SIZE_EDGES, size) == size_class:
                break
        raw = verify_document(c, d, field.characteristic)
        back = ab.cli.parse_document(raw)
        if back.space_cospans != {"lam": c, "mu": d}:
            raise RuntimeError(f"document {i} does not parse back to its space cospans")
        return raw, q

    def before(self):
        # a one-shot `abcosp verify` process starts with empty caches
        self.caches.clear()

    def run(self, item):
        raw, q = item
        cli = self.ab.cli
        doc = cli.parse_document(raw)
        report = cli.run("verify", doc, {"q": q, "d": None, "seed": None})
        return cli.dumps_report(report)

    def check(self, item, out):
        raw, q = item
        rep = json.loads(out)
        _expect(rep["command"] == "verify" and rep["outcome"] == "pass", "verify outcome")
        checks = [r["check"] for r in rep["value"]["reports"]]
        want = ["dagger"] + (["transposition"] if q >= 1 else []) + ["functoriality", "monoidal"]
        _expect(checks == want, "verify report list")
        _expect(all(r["passed"] and not r["failures"] for r in rep["value"]["reports"]), "verify report")
        _expect(rep["inputs_digest"] == hashlib.sha256(raw).hexdigest(), "inputs digest")
        return hashlib.sha256(out.encode()).hexdigest()


WORKLOADS = {w.name: w for w in (Gf2Preorder, QqLaws, BrownVerify)}
