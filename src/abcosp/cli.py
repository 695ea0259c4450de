"""Command line front end: JSON documents in, deterministic reports out.

A document names a field and a collection of values (matrices, linear maps,
cospans, spans, complexes, simplicial maps, space cospans); a command picks
its operands from the document's ``inputs`` role table and runs one
operation. Reports serialize with sorted keys and no timing jitter, so one
input file, command, and seed always produce identical bytes. Exit status:
0 for a value or a passing check, 1 for a failing check, 2 for unusable
input, 3 for an internal defect (one of the library's own cross-checks
failed, which is a bug, not a property of the input).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import sys
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import partial
from typing import Dict, Optional

from . import abcat, brown, cospan, cw, generators
from .exactlin import Field, Matrix, matrix_to_rows

SCHEMA_VERSION = "1"

_RATIONAL = re.compile(r"^(-?\d+)/(\d+)$")

# Face closure is exponential in the simplex size, so document complexes are
# bounded (see _check_maximal) before they are closed.
_MAX_FACES = 1 << 16
_MAX_SIMPLEX_VERTICES = 16
# Declared sizes are bounded before the work they size: vector space and
# matrix dimensions (the cost of a canonical form grows with their square),
# and the oracle's exhaustive pairs, counted in closed form before
# enumeration. Exhaustive feet are bounded too: with bulk 0 every foot pair
# adds a pair whose class is an identity of size a0 + a1.
_MAX_DIM = 256
_MAX_ORACLE_PAIRS = 1 << 17
_MAX_ORACLE_FEET = 16

# Document keys that hold name -> value tables.
_VALUE_TABLES = (
    "matrices", "linmaps", "cospans", "spans", "complexes", "maps", "space_cospans"
)
# The value tables whose entries name two other values, and those names' keys.
_LEGS = {
    "cospans": ("f0", "f1"),
    "spans": ("g0", "g1"),
    "maps": ("src", "dst"),
    "space_cospans": ("f0", "f1"),
}


class ParseError(ValueError):
    """The file is not syntactically valid JSON."""


class ValidationError(ValueError):
    """The file parses but violates a schema or module invariant."""


class UnknownCommand(ValueError):
    pass


@dataclass
class Document:
    field: Field
    data: dict
    raw: bytes
    matrices: Dict[str, Matrix] = dc_field(default_factory=dict)
    linmaps: Dict[str, abcat.LinMap] = dc_field(default_factory=dict)
    cospans: Dict[str, cospan.Cospan] = dc_field(default_factory=dict)
    spans: Dict[str, cospan.Span] = dc_field(default_factory=dict)
    complexes: Dict[str, cw.SimplicialComplex] = dc_field(default_factory=dict)
    maps: Dict[str, cw.SimplicialMap] = dc_field(default_factory=dict)
    space_cospans: Dict[str, cospan.Cospan] = dc_field(default_factory=dict)

    @property
    def inputs(self) -> dict:
        return self.data.get("inputs", {})


def _parse_scalar(f: Field, tok, where: str):
    if isinstance(tok, bool):
        raise ValidationError(f"{where}: boolean is not a scalar")
    if isinstance(tok, int):
        if f.characteristic and not 0 <= tok < f.characteristic:
            raise ValidationError(
                f"{where}: entry {tok} outside [0, {f.characteristic})"
            )
        return f.coerce(tok)
    if isinstance(tok, str):
        if f.characteristic:
            raise ValidationError(
                f"{where}: rational token {tok!r} in a prime field"
            )
        m = _RATIONAL.match(tok)
        if not m:
            raise ValidationError(f"{where}: malformed rational {tok!r}")
        num, den = int(m.group(1)), int(m.group(2))
        if den == 0:
            raise ValidationError(f"{where}: zero denominator in {tok!r}")
        fr = Fraction(num, den)
        if (fr.numerator, fr.denominator) != (num, den) or den == 1:
            raise ValidationError(f"{where}: {tok!r} is not in lowest terms")
        return fr
    raise ValidationError(f"{where}: unsupported scalar {tok!r}")


def _parse_matrix(f: Field, entry, where: str) -> Matrix:
    if isinstance(entry, dict):
        rows, cols = entry.get("rows"), entry.get("cols")
        entries = entry.get("entries")
        if not (_is_int(rows) and _is_int(cols) and isinstance(entries, list)):
            raise ValidationError(
                f"{where}: matrix object needs integer rows/cols and an entries list"
            )
        if not (0 <= rows <= _MAX_DIM and 0 <= cols <= _MAX_DIM):
            raise ValidationError(
                f"{where}: need rows and cols in [0, {_MAX_DIM}]"
            )
        grid = entries
    elif isinstance(entry, list):
        grid = entry
        rows = len(grid)
        widths = {len(r) for r in grid if isinstance(r, list)}
        if len(widths) > 1:
            raise ValidationError(f"{where}: ragged matrix rows")
        if rows == 0:
            raise ValidationError(
                f"{where}: a 0-row matrix needs the object form with cols"
            )
        cols = widths.pop() if widths else 0
    else:
        raise ValidationError(f"{where}: matrix must be a row list or object")
    data = []
    for i, row in enumerate(grid):
        if not isinstance(row, list) or len(row) != cols:
            raise ValidationError(f"{where}: row {i} is not a {cols}-entry list")
        data.append([_parse_scalar(f, x, f"{where}[{i}]") for x in row])
    if len(data) != rows:
        raise ValidationError(f"{where}: declared {rows} rows, found {len(data)}")
    return Matrix.from_rows(f, data, cols)


def _matrix_ref(doc: Document, entry, where: str) -> Matrix:
    if isinstance(entry, str):
        if entry not in doc.matrices:
            raise ValidationError(f"{where}: unknown matrix {entry!r}")
        return doc.matrices[entry]
    return _parse_matrix(doc.field, entry, where)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(_is_int(v) for v in value)


def _check_maximal(maximal, where: str) -> None:
    """Refuse simplices that are not integer lists, a simplex with more than
    ``_MAX_SIMPLEX_VERTICES`` vertices, and maximal simplices that would close
    to more than ``_MAX_FACES`` faces (2^k - 1 for k distinct vertices)."""
    if not (isinstance(maximal, list) and all(_is_int_list(s) for s in maximal)):
        raise ValidationError(f"{where}: need maximal as a list of integer lists")
    sizes = [len(set(s)) for s in maximal]
    if max(sizes, default=0) > _MAX_SIMPLEX_VERTICES:
        raise ValidationError(
            f"{where}: a simplex has {max(sizes)} vertices, "
            f"more than {_MAX_SIMPLEX_VERTICES}"
        )
    if sum(2 ** k - 1 for k in sizes) > _MAX_FACES:
        raise ValidationError(
            f"{where}: maximal simplices close to more than {_MAX_FACES} faces"
        )


def _named(table: dict, kind: str, name, where: str):
    if not isinstance(name, str) or name not in table:
        raise ValidationError(f"{where}: unknown {kind} {name!r}")
    return table[name]


def _parse_pairs(doc: Document, key: str, table: dict, kind: str, make) -> None:
    """Fill ``doc.<key>`` with ``make(a, b)`` for every entry whose two legs
    name the values ``a`` and ``b`` of ``table``."""
    for name, entry in doc.data.get(key, {}).items():
        where = f"{key}.{name}"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: need an object")
        a, b = (_named(table, kind, entry.get(leg), where) for leg in _LEGS[key])
        try:
            getattr(doc, key)[name] = make(a, b)
        except Exception as e:
            raise ValidationError(f"{where}: {e}") from e


def parse_document(raw: bytes) -> Document:
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise ParseError(f"not utf-8: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno} column {e.colno}: {e.msg}") from e
    except RecursionError as e:
        raise ParseError("values nested too deeply") from e
    if not isinstance(data, dict):
        raise ValidationError("top level must be an object")
    version = data.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported document version {version!r}")
    fentry = data.get("field")
    if not isinstance(fentry, dict) or "char" not in fentry:
        raise ValidationError("field: need an object with a 'char' key")
    try:
        f = Field(fentry["char"])
    except Exception as e:
        raise ValidationError(f"field: {e}") from e
    for key in (*_VALUE_TABLES, "inputs", "suite", "oracle"):
        if not isinstance(data.get(key, {}), dict):
            raise ValidationError(f"{key}: need an object")
    doc = Document(field=f, data=data, raw=raw)
    for name, entry in data.get("matrices", {}).items():
        doc.matrices[name] = _parse_matrix(f, entry, f"matrices.{name}")
    for name, entry in data.get("linmaps", {}).items():
        where = f"linmaps.{name}"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: need an object")
        src, dst = entry.get("src"), entry.get("dst")
        if not (_is_int(src) and _is_int(dst)):
            raise ValidationError(f"{where}: need integer src and dst")
        if not (0 <= src <= _MAX_DIM and 0 <= dst <= _MAX_DIM):
            raise ValidationError(f"{where}: need src and dst in [0, {_MAX_DIM}]")
        m = _matrix_ref(doc, entry.get("matrix"), f"{where}.matrix")
        try:
            doc.linmaps[name] = abcat.LinMap(
                abcat.VecObj(f, src), abcat.VecObj(f, dst), m
            )
        except Exception as e:
            raise ValidationError(f"{where}: {e}") from e
    _parse_pairs(doc, "cospans", doc.linmaps, "linmap", cospan.Cospan)
    _parse_pairs(doc, "spans", doc.linmaps, "linmap", cospan.Span)
    for name, entry in data.get("complexes", {}).items():
        where = f"complexes.{name}"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: need an object")
        n_vertices = entry.get("n_vertices", 0)
        if not _is_int(n_vertices):
            raise ValidationError(f"{where}: need integer n_vertices")
        if n_vertices > _MAX_FACES:
            raise ValidationError(
                f"{where}: n_vertices {n_vertices} is more than {_MAX_FACES}"
            )
        maximal = entry.get("maximal", [])
        _check_maximal(maximal, where)
        try:
            doc.complexes[name] = cw.closure_and_validate(n_vertices, maximal)
        except Exception as e:
            raise ValidationError(f"{where}: {e}") from e
    for name, entry in data.get("maps", {}).items():
        where = f"maps.{name}"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: need an object")
        src = _named(doc.complexes, "complex", entry.get("src"), where)
        dst = _named(doc.complexes, "complex", entry.get("dst"), where)
        vertices = entry.get("vertices", [])
        if not _is_int_list(vertices):
            raise ValidationError(f"{where}: need vertices as a list of integers")
        try:
            doc.maps[name] = cw.make_simplicial_map(src, dst, vertices)
        except Exception as e:
            raise ValidationError(f"{where}: {e}") from e
    _parse_pairs(doc, "space_cospans", doc.maps, "map", cospan.Cospan)
    return doc


def load(path: str) -> Document:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    return parse_document(raw)


def document_to_data(doc: Document) -> dict:
    """A value-faithful export of the document; parsing it back yields the
    same objects."""
    out: dict = {"version": SCHEMA_VERSION, "field": {"char": doc.field.characteristic}}

    def mat(m: Matrix):
        if m.rows == 0 or m.cols == 0:
            return {"rows": m.rows, "cols": m.cols, "entries": matrix_to_rows(m)}
        return matrix_to_rows(m)

    def export(key: str, name: str, v):
        if key == "matrices":
            return mat(v)
        if key == "linmaps":
            return {"src": v.src.dim, "dst": v.dst.dim, "matrix": mat(v.mat)}
        if key == "complexes":
            maximal = generators._maximal_simplices(v)
            return {"n_vertices": v.n_vertices, "maximal": [list(s) for s in maximal]}
        entry = {leg: doc.data[key][name][leg] for leg in _LEGS[key]}
        if key == "maps":
            entry["vertices"] = list(v.vertex_map)
        return entry

    for key in _VALUE_TABLES:
        values = getattr(doc, key)
        if values:
            out[key] = {k: export(key, k, v) for k, v in values.items()}
    for key in ("inputs", "suite", "oracle"):
        if key in doc.data:
            out[key] = doc.data[key]
    return out


def dumps_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def _payload(v) -> dict:
    """Bulk dimension, legs and canonical class of a cospan or a span."""
    if isinstance(v, cospan.Cospan):
        legs, cls = (v.f0, v.f1), cospan.canonical_cosp(v)
    else:
        legs, cls = (v.g0, v.g1), cospan.canonical_span(v)
    return {
        "bulk_dim": v.bulk.dim,
        "leg0": matrix_to_rows(legs[0].mat),
        "leg1": matrix_to_rows(legs[1].mat),
        "class": brown.class_payload(cls),
    }


def _role(doc: Document, key: str) -> str:
    name = doc.inputs.get(key)
    if not isinstance(name, str):
        raise ValidationError(f"inputs.{key}: missing role")
    return name


def _both(doc: Document, key: str):
    """Resolve a role name as a cospan or a span, cospans first."""
    name = _role(doc, key)
    if name in doc.cospans:
        return "cospan", doc.cospans[name]
    if name in doc.spans:
        return "span", doc.spans[name]
    raise ValidationError(f"inputs.{key}: {name!r} names no cospan or span")


def _pair(doc: Document):
    k0, left = _both(doc, "left")
    k1, right = _both(doc, "right")
    if k0 != k1:
        raise ValidationError("inputs: left and right must be the same kind")
    return k0, left, right


def _need_q(flags: dict) -> int:
    q = flags.get("q")
    if q is None:
        raise ValidationError("this command needs --q")
    if q < 0:
        raise ValidationError("homology degree must be nonnegative")
    return q


def _brown_functor(doc: Document, flags: dict) -> brown.BrownFunctor:
    return brown.BrownFunctor(doc.field, _need_q(flags))


def _run_algebra(arity: int, on_cospan, on_span, payload, doc: Document, flags: dict):
    """Apply one operation to ``left`` (and ``right`` when ``arity`` is 2):
    ``on_cospan`` when they are cospans, its mirror ``on_span`` when spans."""
    kind, *args = _both(doc, "left") if arity == 1 else _pair(doc)
    result = (on_cospan if kind == "cospan" else on_span)(*args)
    return "value", payload(kind, result), None


def _algebra(arity: int, on_cospan, on_span, payload=lambda _kind, v: _payload(v)):
    return partial(_run_algebra, arity, on_cospan, on_span, payload)


def _leq_payload(kind: str, wit) -> dict:
    return {
        "kind": kind,
        "holds": wit is not None,
        "witness": None if wit is None else matrix_to_rows(wit.mat),
    }


def _run_homology(doc: Document, flags: dict):
    name = _role(doc, "complex")
    K = _named(doc.complexes, "complex", name, "inputs.complex")
    q = _need_q(flags)
    hd = cw.homology(cw.augmented_chain(K, doc.field), q)
    return "value", {"dim": hd.space.dim, "cycles": matrix_to_rows(hd.reps)}, None


def _run_extend(extend, doc: Document, flags: dict):
    lam = _named(
        doc.space_cospans, "space cospan", _role(doc, "cospan"), "inputs.cospan"
    )
    ext = extend(_brown_functor(doc, flags), lam)
    feet = [ext.feet[0].dim, ext.feet[1].dim]
    return "value", {"feet": feet, "class": brown.class_payload(ext.cls)}, None


def _run_mv(doc: Document, flags: dict):
    names = doc.inputs.get("triad")
    if not (isinstance(names, list) and len(names) == 4):
        raise ValidationError("inputs.triad: need [T, K0, K1, L] names")
    T, K0, K1, L = (
        _named(doc.complexes, "complex", n, "inputs.triad") for n in names
    )
    q = _need_q(flags)
    ok = cw.mv_exactness_check(T, K0, K1, L, q, doc.field)
    if ok:
        return "pass", {"exact": True, "q": q}, None
    return "fail", {"exact": False, "q": q}, {"triad": names, "q": q}


def _run_verify(doc: Document, flags: dict):
    E = _brown_functor(doc, flags)
    lam = _named(
        doc.space_cospans, "space cospan", _role(doc, "cospan"), "inputs.cospan"
    )
    reports = [brown.verify_extension_dagger(E, lam)]
    if E.q >= 1:
        reports.append(brown.verify_transposition_compatibility(E, lam))
    then = doc.inputs.get("then")
    if then is not None:
        mu = _named(doc.space_cospans, "space cospan", then, "inputs.then")
        reports.append(brown.verify_extension_functoriality(E, lam, mu))
        reports.append(brown.verify_extension_monoidal(E, lam, mu))
    bad = [r for r in reports if not r["passed"]]
    outcome = "fail" if bad else "pass"
    return outcome, {"reports": reports}, (bad[0] if bad else None)


def _oracle_pairs(field: Field, max_feet, max_bulk, samples, sample_bulk, seed):
    """Pairs for the oracle, each with whether to run the mono search too:
    every pair of the exhaustive pools (both searches), then seeded samples
    (the upper-bound search only)."""
    for a0 in range(max_feet + 1):
        for a1 in range(max_feet + 1):
            pool = list(generators.enum_cospans_gf2(field, a0, a1, max_bulk))
            for c in pool:
                for d in pool:
                    yield c, d, True
    rng = random.Random(seed)
    for _ in range(samples):
        a0, a1 = rng.randint(0, max_feet), rng.randint(0, max_feet)
        c = generators.rand_cospan(rng, field, a0, a1, sample_bulk)
        d = generators.rand_cospan(rng, field, a0, a1, sample_bulk)
        yield c, d, False


def _exhaustive_pairs(max_feet: int, max_bulk: int) -> int:
    """How many pairs the oracle's exhaustive pools hold: the sum over
    a0, a1 <= max_feet of (sum over b <= max_bulk of 2^(b(a0 + a1)))^2,
    the square of the number of GF(2) cospans A0 -> B <- A1. Counting stops
    once the total passes ``_MAX_ORACLE_PAIRS``."""
    total = 0
    for a0 in range(max_feet + 1):
        for a1 in range(max_feet + 1):
            total += sum(1 << (b * (a0 + a1)) for b in range(max_bulk + 1)) ** 2
            if total > _MAX_ORACLE_PAIRS:
                return total
    return total


def _run_oracle(doc: Document, flags: dict):
    if doc.field.characteristic != 2:
        raise ValidationError("oracle: the brute-force oracle runs over GF(2)")
    params = doc.data.get("oracle", {})
    max_feet = _count(params, "oracle", "max_feet", 2, most=_MAX_ORACLE_FEET)
    max_bulk = _count(params, "oracle", "max_bulk", 1, most=_MAX_DIM)
    if _exhaustive_pairs(max_feet, max_bulk) > _MAX_ORACLE_PAIRS:
        raise ValidationError(
            f"oracle: max_feet {max_feet} and max_bulk {max_bulk} give more "
            f"than {_MAX_ORACLE_PAIRS} exhaustive pairs"
        )
    pairs = _oracle_pairs(
        doc.field,
        max_feet,
        max_bulk,
        _count(params, "oracle", "samples", 200),
        _count(params, "oracle", "max_sample_bulk", 2, most=_MAX_DIM),
        flags.get("seed") or 0,
    )
    checked = 0
    for c, d, with_leq in pairs:
        if cospan.equiv_cosp(c, d) != generators.brute_force_upper_bound_gf2(c, d):
            disagreement = "equiv vs upper-bound search"
        elif with_leq and (
            cospan.leq_cosp(c, d) is not None
        ) != generators.brute_force_leq_gf2(c, d):
            disagreement = "leq vs mono search"
        else:
            checked += 1
            continue
        return (
            "fail",
            {"checked": checked},
            {
                "left": _payload(c),
                "right": _payload(d),
                "disagreement": disagreement,
            },
        )
    return "pass", {"checked": checked}, None


def _count(
    params: dict, block: str, key: str, default: int, least: int = 0, most=None
) -> int:
    value = params.get(key, default)
    if not _is_int(value) or value < least:
        raise ValidationError(f"{block}.{key}: need an integer >= {least}")
    if most is not None and value > most:
        raise ValidationError(f"{block}.{key}: {value} is more than {most}")
    return value


def _suite_fields(chars) -> list:
    if not isinstance(chars, list) or not chars:
        raise ValidationError("suite.chars: need a non-empty list of characteristics")
    try:
        return [Field(ch) for ch in chars]
    except ValueError as e:
        raise ValidationError(f"suite.chars: {e}") from e


def _run_random_suite(doc: Document, flags: dict):
    params = doc.data.get("suite", {})
    count = _count(params, "suite", "count", 25)
    max_feet = _count(params, "suite", "max_feet", 3, most=_MAX_DIM)
    max_bulk = _count(params, "suite", "max_bulk", 4, most=_MAX_DIM)
    max_vertices = _count(params, "suite", "max_vertices", 8, least=1)
    fields = _suite_fields(params.get("chars", [2, 3, 0]))
    seed = flags.get("seed") or 0
    d_cap = flags.get("d")
    counts: Dict[str, int] = {}
    for i in range(count):
        rng = random.Random(seed * 1000003 + i)
        f = fields[i % len(fields)]
        fail = _suite_instance(rng, f, max_feet, max_bulk, max_vertices, d_cap, counts)
        if fail is not None:
            return "fail", {"instances": i + 1, "checks": counts}, fail
    return "pass", {"instances": count, "checks": counts}, None


def _bump(counts: Dict[str, int], key: str) -> None:
    counts[key] = counts.get(key, 0) + 1


def _suite_instance(
    rng: random.Random,
    f: Field,
    max_feet: int,
    max_bulk: int,
    max_vertices: int,
    d_cap,
    counts: Dict[str, int],
) -> Optional[dict]:
    C = cospan
    chain = generators.rand_cospan_chain(rng, f, 3, max_feet, max_bulk)
    c1, c2, c3 = chain
    _bump(counts, "associativity")
    lhs = C.compose_cosp(C.compose_cosp(c1, c2), c3)
    rhs = C.compose_cosp(c1, C.compose_cosp(c2, c3))
    if C.canonical_cosp(lhs) != C.canonical_cosp(rhs):
        return {"check": "associativity", "char": f.characteristic}
    _bump(counts, "units")
    u = C.iota_cosp(abcat.identity(c1.foot0))
    v = C.iota_cosp(abcat.identity(c1.foot1))
    if not (
        C.equiv_cosp(C.compose_cosp(u, c1), c1)
        and C.equiv_cosp(C.compose_cosp(c1, v), c1)
    ):
        return {"check": "units", "char": f.characteristic}
    _bump(counts, "dagger")
    if C.canonical_cosp(C.dagger_cosp(C.compose_cosp(c1, c2))) != C.canonical_cosp(
        C.compose_cosp(C.dagger_cosp(c2), C.dagger_cosp(c1))
    ):
        return {"check": "dagger", "char": f.characteristic}
    _bump(counts, "interchange")
    d1, d2 = generators.rand_cospan_chain(rng, f, 2, max_feet, max_bulk)
    if C.canonical_cosp(
        C.compose_cosp(C.tensor_cosp(c1, d1), C.tensor_cosp(c2, d2))
    ) != C.canonical_cosp(
        C.tensor_cosp(C.compose_cosp(c1, c2), C.compose_cosp(d1, d2))
    ):
        return {"check": "interchange", "char": f.characteristic}
    _bump(counts, "transpose_involution")
    if not C.equiv_cosp(
        C.transpose_span(C.transpose_cosp(c1)), c1
    ):
        return {"check": "transpose_involution", "char": f.characteristic}
    _bump(counts, "transpose_compose")
    if C.canonical_span(C.transpose_cosp(C.compose_cosp(c1, c2))) != C.canonical_span(
        C.compose_span(C.transpose_cosp(c1), C.transpose_cosp(c2))
    ):
        return {"check": "transpose_compose", "char": f.characteristic}
    _bump(counts, "leq_monotone")
    a, ap = generators.rand_leq_pair(rng, f, max_feet, max_bulk)
    b, bp = generators.rand_leq_pair(rng, f, max_feet, max_bulk)
    if C.leq_cosp(a, ap) is None:
        return {"check": "leq_monotone", "char": f.characteristic}
    if C.leq_cosp(C.tensor_cosp(a, b), C.tensor_cosp(ap, bp)) is None:
        return {"check": "leq_monotone", "char": f.characteristic}
    post = generators.rand_cospan(
        rng, f, a.foot1.dim, rng.randint(0, max_feet), max_bulk
    )
    if C.leq_cosp(C.compose_cosp(a, post), C.compose_cosp(ap, post)) is None:
        return {"check": "leq_monotone", "char": f.characteristic}
    _bump(counts, "exact_square")
    sq = generators.rand_commuting_square(rng, f, max_feet)
    # Checks its two exactness criteria against each other; a disagreement
    # raises an internal defect.
    abcat.is_exact_square(sq)
    _bump(counts, "mv")
    T, K0, K1, L = generators.rand_triad(rng, min(max_vertices, 6))
    for q in range(3):
        if not cw.mv_exactness_check(T, K0, K1, L, q, f):
            return {"check": "mv", "char": f.characteristic, "q": q}
    lam, mu = generators.rand_composable_space_cospans(rng, min(max_vertices, 5))
    if d_cap is not None and not (
        cw.dimension_filter(lam, d_cap) and cw.dimension_filter(mu, d_cap)
    ):
        return None
    _bump(counts, "brown")
    for q in (0, 1):
        E = brown.BrownFunctor(f, q)
        rep = brown.verify_extension_functoriality(E, lam, mu)
        if not rep["passed"]:
            return {"check": "brown_functoriality", "char": f.characteristic, "q": q}
        rep = brown.verify_extension_dagger(E, lam)
        if not rep["passed"]:
            return {"check": "brown_dagger", "char": f.characteristic, "q": q}
    return None


# Command name -> runner(doc, flags) -> (outcome, value, counterexample), in
# the order argparse lists the choices.
_RUNNERS = {
    "canon": _algebra(
        1,
        cospan.canonical_cosp,
        cospan.canonical_span,
        lambda kind, cls: {"kind": kind, "class": brown.class_payload(cls)},
    ),
    "equiv": _algebra(
        2,
        cospan.equiv_cosp,
        cospan.equiv_span,
        lambda kind, eq: {"kind": kind, "equal": eq},
    ),
    "leq": _algebra(2, cospan.leq_cosp, cospan.leq_span, _leq_payload),
    "compose": _algebra(2, cospan.compose_cosp, cospan.compose_span),
    "transpose": _algebra(1, cospan.transpose_cosp, cospan.transpose_span),
    "tensor": _algebra(2, cospan.tensor_cosp, cospan.tensor_span),
    "dagger": _algebra(1, cospan.dagger_cosp, cospan.dagger_span),
    "homology": _run_homology,
    "mv-check": _run_mv,
    "extend-cospan": partial(_run_extend, brown.cospanical_extend),
    "extend-span": partial(_run_extend, brown.spanical_extend),
    "verify": _run_verify,
    "oracle": _run_oracle,
    "random-suite": _run_random_suite,
}
COMMANDS = tuple(_RUNNERS)


def run(command: str, doc: Document, flags: dict) -> dict:
    if command not in _RUNNERS:
        raise UnknownCommand(command)
    outcome, value, ce = _RUNNERS[command](doc, flags)
    return {
        "version": SCHEMA_VERSION,
        "command": command,
        "flags": {k: _flag_token(v) for k, v in flags.items() if v is not None},
        "inputs_digest": hashlib.sha256(doc.raw).hexdigest(),
        "outcome": outcome,
        "value": value,
        "counterexample": ce,
        "timing_ms": 0,
    }


def _flag_token(v):
    if v == float("inf"):
        return "inf"
    return v


def _parse_d(s: str):
    if s == "inf":
        return float("inf")
    try:
        return int(s)
    except ValueError as e:
        raise ValidationError("--d takes an integer or 'inf'") from e


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="abcosp",
        description="exact cospan calculus over small fields, file in, report out",
    )
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--in", dest="infile", required=True, help="input JSON document")
    ap.add_argument("--q", type=int, default=None, help="homology degree")
    ap.add_argument("--d", type=str, default=None, help="dimension cap or 'inf'")
    ap.add_argument("--seed", type=int, default=None, help="suite seed")
    ap.add_argument("--out", type=str, default=None, help="also write report here")
    args = ap.parse_args(argv)
    try:
        doc = load(args.infile)
        flags = {
            "q": args.q,
            "d": None if args.d is None else _parse_d(args.d),
            "seed": args.seed,
        }
        report = run(args.command, doc, flags)
    except (ValueError, KeyError) as e:
        print(f"abcosp: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        detail = " ".join(str(e).split()).removeprefix("internal defect: ")
        print(f"abcosp: internal defect: {detail}", file=sys.stderr)
        return 3
    text = dumps_report(report)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0 if report["outcome"] in ("value", "pass") else 1


if __name__ == "__main__":
    raise SystemExit(main())
