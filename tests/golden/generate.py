"""Regenerate the golden report corpus: ``python3 tests/golden/generate.py``.

Writes seeded documents to ``docs/`` and, for every (document, command,
flags) case, the exact stdout bytes and exit status of ``abcosp`` to
``expected.json``. ``tests/test_golden.py`` replays the cases. Regenerate
only when an output is meant to change, and record which output changed and
why alongside the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

from abcosp import abcat, cli, cospan, generators  # noqa: E402
from abcosp.exactlin import GF2, GF3, QQ, Field, matrix_to_rows  # noqa: E402

DOCS = HERE / "docs"
EXPECTED = HERE / "expected.json"

ALGEBRA = ("canon", "equiv", "leq", "compose", "transpose", "tensor", "dagger")
FIELDS = {"gf2": GF2, "gf3": GF3, "qq": QQ}


def _matrix(m):
    if m.rows == 0 or m.cols == 0:
        return {"rows": m.rows, "cols": m.cols, "entries": matrix_to_rows(m)}
    return matrix_to_rows(m)


def _linmap(f: abcat.LinMap) -> dict:
    return {"src": f.src.dim, "dst": f.dst.dim, "matrix": _matrix(f.mat)}


def algebra_doc(field: Field, left, right) -> dict:
    """A document holding two cospans or two spans (or one of each) named
    ``l`` and ``r`` and bound to the ``left``/``right`` roles."""
    doc = {"version": "1", "field": {"char": field.characteristic}}
    linmaps, tables = {}, {}
    for name, v in (("l", left), ("r", right)):
        if isinstance(v, cospan.Cospan):
            legs, table = (("f0", v.f0), ("f1", v.f1)), "cospans"
        else:
            legs, table = (("g0", v.g0), ("g1", v.g1)), "spans"
        entry = {}
        for leg, f in legs:
            linmaps[f"{name}_{leg}"] = _linmap(f)
            entry[leg] = f"{name}_{leg}"
        tables.setdefault(table, {})[name] = entry
    doc["linmaps"] = linmaps
    doc.update(tables)
    doc["inputs"] = {"left": "l", "right": "r"}
    return doc


def space_doc(field: Field, lam, mu, triad, with_then: bool) -> dict:
    """A document with space cospans ``lam``/``mu`` and a Mayer-Vietoris
    triad; ``complex`` names the target of ``lam``."""
    complexes: list = []

    def cname(K):
        if K not in complexes:
            complexes.append(K)
        return f"k{complexes.index(K)}"

    maps = {}

    def mname(m):
        name = f"m{len(maps)}"
        maps[name] = {"src": cname(m.src), "dst": cname(m.dst),
                      "vertices": list(m.vertex_map)}
        return name

    space = {}
    for name, sc in (("lam", lam), ("mu", mu)):
        space[name] = {"f0": mname(sc.f0), "f1": mname(sc.f1)}
    inputs = {
        "cospan": "lam",
        "complex": cname(lam.bulk),
        "triad": [cname(K) for K in triad],
    }
    if with_then:
        inputs["then"] = "mu"
    return {
        "version": "1",
        "field": {"char": field.characteristic},
        "complexes": {
            f"k{i}": {
                "n_vertices": K.n_vertices,
                "maximal": [list(s) for s in generators._maximal_simplices(K)],
            }
            for i, K in enumerate(complexes)
        },
        "maps": maps,
        "space_cospans": space,
        "inputs": inputs,
    }


def _epi_extension(rng, field: Field, s: cospan.Span) -> cospan.Span:
    """A span over a larger bulk that maps onto ``s`` through an epi."""
    b = s.bulk.dim
    m = generators.rand_mono(rng, field, b, b + rng.randint(0, 2))
    e = abcat.LinMap(m.dst, m.src, m.mat.transpose())
    return cospan.Span(abcat.compose(s.g0, e), abcat.compose(s.g1, e))


def _leq_fails_pair(rng, field: Field):
    while True:
        c, d = generators.rand_leq_pair(rng, field, 2, 3)
        if cospan.leq_cosp(d, c) is None:
            return d, c


def _zero_pair(rng, field: Field):
    """Zero-dimensional feet and bulks: 0 -> B <- 1 then 1 -> 0 <- 0."""
    c = generators.rand_cospan(rng, field, 0, 1, 0)
    d = cospan.Cospan(
        abcat.zero_map(abcat.VecObj(field, 1), abcat.VecObj(field, 0)),
        abcat.zero_map(abcat.VecObj(field, 0), abcat.VecObj(field, 0)),
    )
    return c, d


def algebra_cases(tag: str, field: Field, seed: int):
    rng = random.Random(seed)
    c, d = generators.rand_leq_pair(rng, field, 2, 3)
    assert cospan.leq_cosp(c, d) is not None
    yield f"{tag}-cospan-leq-holds", algebra_doc(field, c, d)
    c, d = _leq_fails_pair(rng, field)
    yield f"{tag}-cospan-leq-fails", algebra_doc(field, c, d)
    c1, c2 = generators.rand_cospan_chain(rng, field, 2, 2, 3)
    yield f"{tag}-cospan-chain", algebra_doc(field, c1, c2)
    yield f"{tag}-cospan-zero", algebra_doc(field, *_zero_pair(rng, field))
    s = generators.rand_span(rng, field, 2, 1, 3)
    t = _epi_extension(rng, field, s)
    assert cospan.leq_span(s, t) is not None
    yield f"{tag}-span-leq-holds", algebra_doc(field, s, t)
    yield f"{tag}-span-leq-reversed", algebra_doc(field, t, s)
    s1 = generators.rand_span(rng, field, 1, 2, 2)
    s2 = generators.rand_span(rng, field, 2, 0, 2)
    yield f"{tag}-span-chain", algebra_doc(field, s1, s2)
    z = cospan.transpose_cosp(_zero_pair(rng, field)[0])
    yield f"{tag}-span-zero", algebra_doc(field, z, z)
    yield f"{tag}-mixed-kinds", algebra_doc(field, c1, s1)


def space_cases(tag: str, field: Field, seed: int):
    rng = random.Random(seed)
    for i in range(2):
        lam, mu = generators.rand_composable_space_cospans(rng, 4)
        triad = generators.rand_triad(rng, 5)
        yield f"{tag}-space-{i}", space_doc(field, lam, mu, triad, with_then=True)
    lam, mu = generators.rand_composable_space_cospans(rng, 4)
    triad = generators.rand_triad(rng, 5)
    yield f"{tag}-space-no-then", space_doc(field, lam, mu, triad, with_then=False)


def circle_doc(char: int) -> dict:
    """The arc glued along its ends: the space cospan whose composite is the
    circle, with a circle triad."""
    return {
        "version": "1",
        "field": {"char": char},
        "complexes": {
            "s0": {"n_vertices": 2, "maximal": [[0], [1]]},
            "arc": {"n_vertices": 3, "maximal": [[0, 1], [1, 2]]},
            "circle": {"n_vertices": 3, "maximal": [[0, 1], [1, 2], [0, 2]]},
            "arc01": {"n_vertices": 3, "maximal": [[0, 1]]},
            "arc12": {"n_vertices": 3, "maximal": [[1, 2], [0, 2]]},
            "ends": {"n_vertices": 3, "maximal": [[0], [1]]},
        },
        "maps": {
            "e0": {"src": "s0", "dst": "arc", "vertices": [0, 2]},
            "incl": {"src": "s0", "dst": "circle", "vertices": [0, 1]},
            "idc": {"src": "circle", "dst": "circle", "vertices": [0, 1, 2]},
        },
        "space_cospans": {
            "glue": {"f0": "e0", "f1": "e0"},
            "lam": {"f0": "incl", "f1": "idc"},
            "mu": {"f0": "idc", "f1": "incl"},
        },
        "inputs": {
            "cospan": "lam",
            "then": "mu",
            "complex": "circle",
            "triad": ["ends", "arc01", "arc12", "circle"],
        },
    }


SPACE_RUNS = (
    ("homology", "--q", "0"),
    ("homology", "--q", "1"),
    ("homology", "--q", "2"),
    ("mv-check", "--q", "0"),
    ("mv-check", "--q", "1"),
    ("mv-check", "--q", "2"),
    ("extend-cospan", "--q", "0"),
    ("extend-cospan", "--q", "1"),
    ("extend-span", "--q", "0"),
    ("extend-span", "--q", "1"),
    ("verify", "--q", "0"),
    ("verify", "--q", "1"),
)


def all_cases():
    """Yield (document name, document, list of argv tails)."""
    for i, (tag, field) in enumerate(FIELDS.items()):
        for name, doc in algebra_cases(tag, field, 100 + i):
            yield name, doc, [(cmd,) for cmd in ALGEBRA]
        for name, doc in space_cases(tag, field, 200 + i):
            yield name, doc, list(SPACE_RUNS)
        yield f"{tag}-circle", circle_doc(field.characteristic), list(SPACE_RUNS)
    oracle = {"version": "1", "field": {"char": 2},
              "oracle": {"max_feet": 1, "max_bulk": 1, "samples": 20,
                         "max_sample_bulk": 2}}
    yield "gf2-oracle", oracle, [("oracle",), ("oracle", "--seed", "5")]
    yield "gf3-oracle", dict(oracle, field={"char": 3}), [("oracle",)]
    suite = {"version": "1", "field": {"char": 2},
             "suite": {"count": 3, "max_feet": 2, "max_bulk": 2,
                       "max_vertices": 5, "chars": [2, 3, 0]}}
    yield "suite", suite, [
        ("random-suite", "--seed", "4"),
        ("random-suite", "--seed", "9", "--d", "1"),
    ]


def run_case(path: Path, argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main([argv[0], "--in", str(path), *argv[1:]])
    return status, out.getvalue()


def main() -> int:
    DOCS.mkdir(exist_ok=True)
    for old in DOCS.glob("*.json"):
        old.unlink()
    expected = []
    for name, doc, runs in all_cases():
        path = DOCS / f"{name}.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        for argv in runs:
            status, stdout = run_case(path, argv)
            expected.append(
                {"doc": name, "argv": list(argv), "exit": status, "stdout": stdout}
            )
    EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"{len(expected)} cases over {len(list(DOCS.glob('*.json')))} documents")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
