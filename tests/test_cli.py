"""File-in, report-out command layer: parsing, validation, determinism, exits."""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from abcosp import abcat, brown, cli, cospan, cw, exactlin

BASE_DOC = {
    "version": "1",
    "field": {"char": 0},
    "linmaps": {
        "f0": {"src": 1, "dst": 2, "matrix": [[1], [0]]},
        "f1": {"src": 1, "dst": 2, "matrix": [[0], [1]]},
        "g0": {"src": 1, "dst": 1, "matrix": [[1]]},
        "g1": {"src": 1, "dst": 1, "matrix": [[1]]},
    },
    "cospans": {"c": {"f0": "f0", "f1": "f1"}, "d": {"f0": "g0", "f1": "g1"}},
    "complexes": {
        "circle": {"n_vertices": 3, "maximal": [[0, 1], [1, 2], [0, 2]]},
        "s0": {"n_vertices": 2, "maximal": [[0], [1]]},
        "arc01": {"n_vertices": 3, "maximal": [[0, 1]]},
        "arc12": {"n_vertices": 3, "maximal": [[1, 2], [0, 2]]},
        "arcs_int": {"n_vertices": 3, "maximal": [[0], [1]]},
    },
    "maps": {
        "incl": {"src": "s0", "dst": "circle", "vertices": [0, 1]},
        "idc": {"src": "circle", "dst": "circle", "vertices": [0, 1, 2]},
    },
    "space_cospans": {
        "lam": {"f0": "incl", "f1": "idc"},
        "mu": {"f0": "idc", "f1": "incl"},
    },
    "inputs": {
        "left": "c",
        "right": "c",
        "complex": "circle",
        "cospan": "lam",
        "then": "mu",
        "triad": ["arcs_int", "arc01", "arc12", "circle"],
    },
    "suite": {"count": 4, "max_feet": 2, "max_bulk": 3, "max_vertices": 6},
    "oracle": {"max_feet": 1, "max_bulk": 1, "samples": 40},
}


def _clear_library_caches():
    for module in (cospan, cw):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.fixture
def unsigned_kernel_rref(monkeypatch):
    """``kernel_rref`` with its minus sign dropped, in every caller, and the
    caches emptied on both sides of the patch."""
    real = exactlin.kernel_rref

    def unsigned(M):
        p = M.field.characteristic
        rows = []
        for row in real(M).entries:
            lead = next(j for j, x in enumerate(row) if x)
            rows.append(row[:lead + 1] + tuple(
                -x if p == 0 else -x % p for x in row[lead + 1:]
            ))
        return exactlin.Matrix(M.field, len(rows), M.cols, tuple(rows))

    _clear_library_caches()
    monkeypatch.setattr(abcat, "kernel_rref", unsigned)
    monkeypatch.setattr(cospan, "kernel_rref", unsigned)
    yield
    monkeypatch.undo()
    _clear_library_caches()


@pytest.fixture
def unsigned_null_vectors(monkeypatch):
    """The null-space read-back behind both kernel forms with its minus sign
    dropped, and the caches emptied on both sides of the patch."""
    real = exactlin._null_vectors

    def unsigned(M):
        p = M.field.characteristic
        vecs = []
        for vec in real(M):
            # the free column is the last nonzero entry; the pivots precede it
            free = max(j for j, x in enumerate(vec) if x)
            vecs.append(tuple(-x if p == 0 else -x % p for x in vec[:free])
                        + vec[free:])
        return vecs

    _clear_library_caches()
    monkeypatch.setattr(exactlin, "_null_vectors", unsigned)
    yield
    monkeypatch.undo()
    _clear_library_caches()


@pytest.fixture
def leq_ignoring_bulks(monkeypatch):
    """``leq_cosp`` without its bulk-dimension test, in ``cospan`` and in the
    name ``brown`` imports, and the caches emptied on both sides of the
    patch."""

    def leq(c, d):
        cospan._check_feet_cosp(c, d)
        if cospan.canonical_cosp(c) != cospan.canonical_cosp(d):
            return None
        G = cospan._mono_witness(cospan.joint_map(c).mat, cospan.joint_map(d).mat)
        if G is None:
            raise AssertionError("internal defect: decision and witness disagree")
        return abcat.LinMap(c.bulk, d.bulk, G)

    _clear_library_caches()
    monkeypatch.setattr(cospan, "leq_cosp", leq)
    monkeypatch.setattr(brown, "leq_cosp", leq)
    yield
    monkeypatch.undo()
    _clear_library_caches()


def write_doc(tmp_path, doc, name="doc.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture
def doc_path(tmp_path):
    return write_doc(tmp_path, BASE_DOC)


@pytest.fixture
def doc(doc_path):
    return cli.load(doc_path)


def variant(tmp_path, **overrides):
    d = {**BASE_DOC, **overrides}
    return cli.load(write_doc(tmp_path, d, "variant.json"))


class TestLoading:
    def test_minimal_document(self, tmp_path):
        d = cli.load(write_doc(tmp_path, {"version": "1", "field": {"char": 5}}))
        assert d.field.characteristic == 5

    def test_named_objects_materialize(self, doc):
        assert doc.cospans["c"].bulk.dim == 2
        assert doc.complexes["circle"].dim == 1
        assert doc.maps["incl"].dst == doc.complexes["circle"]
        assert doc.space_cospans["lam"].bulk == doc.complexes["circle"]

    def test_round_trip_is_value_faithful(self, tmp_path, doc):
        data = cli.document_to_data(doc)
        doc2 = cli.load(write_doc(tmp_path, data, "round.json"))
        assert doc2.cospans["c"] == doc.cospans["c"]
        assert doc2.complexes["circle"] == doc.complexes["circle"]
        assert doc2.maps["incl"] == doc.maps["incl"]
        assert cli.document_to_data(doc2) == data

    def test_zero_dim_matrix_survives_round_trip(self, tmp_path):
        d = variant(
            tmp_path,
            matrices={"z": {"rows": 0, "cols": 2, "entries": []}},
        )
        data = cli.document_to_data(d)
        assert data["matrices"]["z"] == {"rows": 0, "cols": 2, "entries": []}
        d2 = cli.load(write_doc(tmp_path, data, "round0.json"))
        assert d2.matrices["z"].cols == 2


class TestValidation:
    def bad(self, tmp_path, match, **overrides):
        with pytest.raises(cli.ValidationError, match=match):
            variant(tmp_path, **overrides)

    def test_version_checked(self, tmp_path):
        self.bad(tmp_path, "version", version="7")

    def test_rational_must_be_lowest_terms(self, tmp_path):
        self.bad(tmp_path, "lowest terms", matrices={"m": [["2/4"]]})

    def test_gf_entry_out_of_range(self, tmp_path):
        d = {**BASE_DOC, "field": {"char": 3}, "linmaps": {}, "cospans": {},
             "inputs": {}, "matrices": {"m": [[3]]}}
        with pytest.raises(cli.ValidationError, match="outside"):
            cli.load(write_doc(tmp_path, d, "gf.json"))

    def test_bool_entries_rejected(self, tmp_path):
        self.bad(tmp_path, "scalar", matrices={"m": [[True]]})

    def test_ragged_matrix_rejected(self, tmp_path):
        self.bad(tmp_path, "ragged", matrices={"m": [[1, 0], [1]]})

    def test_unknown_reference(self, tmp_path):
        self.bad(
            tmp_path,
            "unknown",
            cospans={"c": {"f0": "f0", "f1": "missing"}},
        )

    def test_invalid_simplicial_map(self, tmp_path):
        self.bad(
            tmp_path,
            "maps.bad",
            maps={"bad": {"src": "s0", "dst": "circle", "vertices": [1, 2]}},
        )

    def test_parse_error_carries_position(self, tmp_path):
        p = tmp_path / "trunc.json"
        p.write_text('{"field": {"char": 0}')
        with pytest.raises(cli.ParseError, match="line"):
            cli.load(str(p))

    def test_deep_nesting_is_parse_error(self, tmp_path, capsys):
        p = tmp_path / "deep.json"
        p.write_text('{"field": {"char": 2}, "x": ' + "[" * 100000 + "]" * 100000 + "}")
        with pytest.raises(cli.ParseError, match="nested too deeply"):
            cli.load(str(p))
        assert cli.main(["canon", "--in", str(p)]) == 2
        assert capsys.readouterr().err == "abcosp: values nested too deeply\n"

    def test_missing_file_is_parse_error(self):
        with pytest.raises(cli.ParseError):
            cli.load("/nonexistent/doc.json")


class TestCommands:
    def test_value_commands(self, doc):
        for cmd in ("canon", "equiv", "leq", "compose", "tensor", "transpose", "dagger"):
            rep = cli.run(cmd, doc, {"q": None, "d": None, "seed": None})
            assert rep["outcome"] == "value", (cmd, rep)
            assert rep["command"] == cmd
            assert rep["timing_ms"] == 0

    def test_equiv_worked_pair(self, doc):
        rep = cli.run("equiv", doc, {})
        assert rep["value"] == {"kind": "cospan", "equal": True}

    def test_homology_of_circle(self, doc):
        rep = cli.run("homology", doc, {"q": 1})
        assert rep["value"]["dim"] == 1
        assert cli.run("homology", doc, {"q": 0})["value"]["dim"] == 0

    def test_mv_check_triad(self, doc):
        for q in (0, 1, 2):
            rep = cli.run("mv-check", doc, {"q": q})
            assert rep["outcome"] == "pass", (q, rep)

    def test_extensions(self, doc):
        rep = cli.run("extend-cospan", doc, {"q": 0})
        assert rep["outcome"] == "value"
        assert rep["value"]["feet"] == [1, 0]
        rep = cli.run("extend-span", doc, {"q": 1})
        assert rep["outcome"] == "value"
        assert set(rep["value"]) == {"feet", "class"}

    def test_extend_span_degree_guard(self, doc):
        from abcosp.brown import DegreeTooLow

        with pytest.raises(DegreeTooLow):
            cli.run("extend-span", doc, {"q": 0})

    def test_verify_reports(self, doc):
        rep = cli.run("verify", doc, {"q": 1})
        assert rep["outcome"] == "pass"
        assert len(rep["value"]["reports"]) == 4

    def test_oracle_gf2(self, tmp_path):
        d = {**BASE_DOC, "field": {"char": 2}, "linmaps": {
            k: {**v, "matrix": [[abs(x) % 2 for x in row] for row in v["matrix"]]}
            for k, v in BASE_DOC["linmaps"].items()
        }}
        docg = cli.load(write_doc(tmp_path, d, "gf2.json"))
        rep = cli.run("oracle", docg, {"seed": 1})
        assert rep["outcome"] == "pass"
        assert rep["value"]["checked"] > 0

    def test_exhaustive_pair_count_matches_enumeration(self):
        from abcosp.exactlin import GF2
        from abcosp.generators import enum_cospans_gf2

        for max_feet in range(3):
            for max_bulk in range(3):
                pools = [
                    len(list(enum_cospans_gf2(GF2, a0, a1, max_bulk)))
                    for a0 in range(max_feet + 1)
                    for a1 in range(max_feet + 1)
                ]
                assert cli._exhaustive_pairs(max_feet, max_bulk) == sum(
                    n * n for n in pools
                )
        # the acceptance criterion 2 pool fits; one more foot and bulk does not
        assert cli._exhaustive_pairs(2, 2) == 86617 <= cli._MAX_ORACLE_PAIRS
        assert cli._exhaustive_pairs(3, 3) > cli._MAX_ORACLE_PAIRS

    def test_missing_degree_flag(self, doc):
        with pytest.raises(cli.ValidationError):
            cli.run("homology", doc, {"q": None})

    def test_unknown_command(self, doc):
        with pytest.raises(cli.UnknownCommand):
            cli.run("frobnicate", doc, {})


class TestDeterminism:
    def test_random_suite_fixed_seed(self, doc):
        r1 = cli.run("random-suite", doc, {"seed": 7})
        r2 = cli.run("random-suite", doc, {"seed": 7})
        assert cli.dumps_report(r1) == cli.dumps_report(r2)
        assert r1["outcome"] == "pass"
        assert sum(r1["value"]["checks"].values()) > 0
        assert r1["value"]["instances"] == 4

    def test_zero_count_is_vacuous_pass(self, tmp_path):
        d = variant(tmp_path, suite={"count": 0})
        rep = cli.run("random-suite", d, {"seed": 3})
        assert rep["outcome"] == "pass"
        assert rep["value"] == {"checks": {}, "instances": 0}

    def test_digest_tracks_input_bytes(self, tmp_path, doc):
        other = variant(tmp_path, suite={"count": 1})
        a = cli.run("canon", doc, {})
        b = cli.run("canon", other, {})
        assert a["inputs_digest"] != b["inputs_digest"]
        assert a["value"] == b["value"]

    def test_report_serialization_is_canonical(self, doc):
        text = cli.dumps_report(cli.run("canon", doc, {}))
        assert text.endswith("\n")
        assert text == json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":")
        ) + "\n"


class TestMain:
    def test_exit_zero_and_stable_stdout(self, doc_path, capsys):
        assert cli.main(["equiv", "--in", doc_path]) == 0
        first = capsys.readouterr().out
        assert cli.main(["equiv", "--in", doc_path]) == 0
        assert capsys.readouterr().out == first
        rep = json.loads(first)
        assert rep["outcome"] == "value" and rep["value"]["equal"] is True

    def test_out_file_matches_stdout(self, doc_path, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert cli.main(["canon", "--in", doc_path, "--out", str(target)]) == 0
        assert target.read_text() == capsys.readouterr().out

    def test_flags_surface_in_report(self, doc_path, capsys):
        assert cli.main(["mv-check", "--in", doc_path, "--q", "1", "--d", "inf"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["flags"] == {"d": "inf", "q": 1}

    def test_missing_required_flag_exits_two(self, doc_path, capsys):
        assert cli.main(["homology", "--in", doc_path]) == 2
        assert "--q" in capsys.readouterr().err

    def test_bad_document_exits_two(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{")
        assert cli.main(["canon", "--in", str(p)]) == 2
        assert "abcosp:" in capsys.readouterr().err

    @pytest.mark.parametrize("chars", [[], 5, [2.5], [True], ["2"]])
    def test_bad_suite_chars_exit_two(self, tmp_path, capsys, chars):
        p = write_doc(tmp_path, {"field": {"char": 2}, "suite": {"chars": chars}})
        assert cli.main(["random-suite", "--in", p]) == 2
        err = capsys.readouterr().err
        assert err.startswith("abcosp: suite.chars") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, block, prefix",
        [
            ("random-suite", {"suite": []}, "suite: need an object"),
            ("oracle", {"oracle": [1]}, "oracle: need an object"),
            ("oracle", {"oracle": None}, "oracle: need an object"),
            ("canon", {"inputs": []}, "inputs: need an object"),
            ("homology", {"inputs": []}, "inputs: need an object"),
            ("random-suite", {"suite": {"count": None}}, "suite.count: need"),
            ("random-suite", {"suite": {"count": True}}, "suite.count: need"),
            ("random-suite", {"suite": {"max_bulk": 2.5}}, "suite.max_bulk: need"),
            ("random-suite", {"suite": {"max_feet": "x"}}, "suite.max_feet: need"),
            ("random-suite", {"suite": {"count": -1}}, "suite.count: need"),
            ("random-suite", {"suite": {"max_vertices": 0}}, "suite.max_vertices: need"),
            ("oracle", {"oracle": {"samples": None}}, "oracle.samples: need"),
            ("oracle", {"oracle": {"max_feet": True}}, "oracle.max_feet: need"),
            ("oracle", {"oracle": {"max_bulk": 2.5}}, "oracle.max_bulk: need"),
            ("oracle", {"oracle": {"max_sample_bulk": "x"}}, "oracle.max_sample_bulk: need"),
            ("homology", {"matrices": []}, "matrices: need an object"),
            ("canon", {"linmaps": [1]}, "linmaps: need an object"),
            ("canon", {"cospans": None}, "cospans: need an object"),
            ("canon", {"spans": "s"}, "spans: need an object"),
            ("homology", {"complexes": [1]}, "complexes: need an object"),
            ("homology", {"maps": []}, "maps: need an object"),
            ("verify", {"space_cospans": [[]]}, "space_cospans: need an object"),
            ("canon", {"linmaps": {"h": {"src": 2.7, "dst": 1, "matrix": [[1, 0]]}}},
             "linmaps.h: need integer src and dst"),
            ("canon", {"linmaps": {"h": {"src": 1, "dst": True, "matrix": [[1]]}}},
             "linmaps.h: need integer src and dst"),
            ("canon", {"linmaps": {"h": {"src": "1", "dst": 1, "matrix": [[1]]}}},
             "linmaps.h: need integer src and dst"),
            ("homology", {"complexes": {"k": {"n_vertices": "3", "maximal": [[0, 1]]}}},
             "complexes.k: need integer n_vertices"),
            ("homology", {"complexes": {"k": {"n_vertices": 3.0, "maximal": [[0, 1]]}}},
             "complexes.k: need integer n_vertices"),
            ("homology", {"complexes": {"k": {"n_vertices": True, "maximal": [[0]]}}},
             "complexes.k: need integer n_vertices"),
            ("homology", {"complexes": {"k": {"n_vertices": 3, "maximal": [[0, 1.5]]}}},
             "complexes.k: need maximal as a list of integer lists"),
            ("homology", {"complexes": {"k": {"n_vertices": 3, "maximal": [[0, True]]}}},
             "complexes.k: need maximal as a list of integer lists"),
            ("homology", {"complexes": {"k": {"n_vertices": 3, "maximal": [[0, "a"]]}}},
             "complexes.k: need maximal as a list of integer lists"),
            ("homology", {"complexes": {"k": {"n_vertices": 3, "maximal": 5}}},
             "complexes.k: need maximal as a list of integer lists"),
            ("homology", {"complexes": {"k": {"n_vertices": 3, "maximal": [5]}}},
             "complexes.k: need maximal as a list of integer lists"),
            ("extend-cospan", {"maps": {"m": {"src": "s0", "dst": "circle",
                                              "vertices": [0, 1.0]}}},
             "maps.m: need vertices as a list of integers"),
            ("extend-cospan", {"maps": {"m": {"src": "s0", "dst": "circle",
                                              "vertices": [0, True]}}},
             "maps.m: need vertices as a list of integers"),
            ("extend-cospan", {"maps": {"m": {"src": "s0", "dst": "circle",
                                              "vertices": "01"}}},
             "maps.m: need vertices as a list of integers"),
            ("homology", {"matrices": {"m": {"rows": 1, "cols": 1, "entries": 5}}},
             "matrices.m: matrix object needs integer rows/cols and an entries list"),
            ("homology", {"matrices": {"m": {"rows": True, "cols": 1, "entries": [[1]]}}},
             "matrices.m: matrix object needs integer rows/cols and an entries list"),
            ("homology", {"matrices": {"m": {"rows": 0, "cols": -1, "entries": []}}},
             "matrices.m: need rows and cols in [0, 256]"),
            ("homology", {"matrices": {"m": {"rows": 0, "cols": 2000, "entries": []}}},
             "matrices.m: need rows and cols in [0, 256]"),
            ("canon", {"linmaps": {"h": {"src": 2000, "dst": 0,
                                         "matrix": {"rows": 0, "cols": 2000, "entries": []}}}},
             "linmaps.h: need src and dst in [0, 256]"),
            ("canon", {"linmaps": {"h": {"src": 1, "dst": -1, "matrix": [[1]]}}},
             "linmaps.h: need src and dst in [0, 256]"),
            ("mv-check", {"complexes": {"k": {"n_vertices": 3000000, "maximal": [[0, 1]]}}},
             "complexes.k: n_vertices 3000000 is more than 65536"),
            ("random-suite", {"suite": {"max_feet": 257}},
             "suite.max_feet: 257 is more than 256"),
            ("random-suite", {"suite": {"max_bulk": 10 ** 9}},
             "suite.max_bulk: 1000000000 is more than 256"),
            ("oracle", {"oracle": {"max_sample_bulk": 257}},
             "oracle.max_sample_bulk: 257 is more than 256"),
            ("oracle", {"oracle": {"max_feet": 17, "max_bulk": 0}},
             "oracle.max_feet: 17 is more than 16"),
            ("oracle", {"oracle": {"max_feet": 2, "max_bulk": 10 ** 9}},
             "oracle.max_bulk: 1000000000 is more than 256"),
            ("oracle", {"oracle": {"max_feet": 3, "max_bulk": 3}},
             "oracle: max_feet 3 and max_bulk 3 give more than 131072 exhaustive pairs"),
            ("canon", {"cospans": {"c": [1]}}, "cospans.c: need an object"),
            ("canon", {"spans": {"s": None}}, "spans.s: need an object"),
            ("verify", {"space_cospans": {"lam": "idc"}}, "space_cospans.lam: need an object"),
            ("verify",
             {"maps": dict(BASE_DOC["maps"],
                           e={"src": "s0", "dst": "arc01", "vertices": [0, 1]}),
              "space_cospans": {"bad": {"f0": "incl", "f1": "e"}}},
             "space_cospans.bad: cospan legs must share their target"),
        ],
    )
    def test_malformed_blocks_exit_two(self, tmp_path, capsys, command, block, prefix):
        doc = dict(BASE_DOC, field={"char": 2}, **block)
        p = write_doc(tmp_path, doc)
        assert cli.main([command, "--in", p, "--q", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"abcosp: {prefix}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "maximal, prefix",
        [
            ([list(range(40))], "complexes.k: a simplex has 40 vertices, more than 16"),
            ([list(range(17))], "complexes.k: a simplex has 17 vertices, more than 16"),
            ([list(range(16)), list(range(1, 17))],
             "complexes.k: maximal simplices close to more than 65536 faces"),
        ],
    )
    def test_face_closure_bounded_before_it_starts(
        self, tmp_path, capsys, maximal, prefix
    ):
        complexes = {"k": {"n_vertices": 40, "maximal": maximal}}
        doc = dict(BASE_DOC, field={"char": 2}, complexes=complexes,
                   inputs={"complex": "k"})
        p = write_doc(tmp_path, doc)
        assert cli.main(["homology", "--in", p, "--q", "1"]) == 2
        err = capsys.readouterr().err
        assert err == f"abcosp: {prefix}\n"

    def test_largest_single_simplex_is_accepted(self, tmp_path):
        # one 16-vertex simplex closes to 2^16 - 1 faces, inside the bound
        doc = {"field": {"char": 2},
               "complexes": {"k": {"n_vertices": 16, "maximal": [list(range(16))]}}}
        assert cli.load(write_doc(tmp_path, doc)).complexes["k"].dim == 15

    @pytest.mark.parametrize("char", [2.5, True, "2", None])
    def test_non_integer_characteristic_exits_two(self, tmp_path, capsys, char):
        p = write_doc(tmp_path, dict(BASE_DOC, field={"char": char}))
        assert cli.main(["canon", "--in", p]) == 2
        err = capsys.readouterr().err
        assert err == f"abcosp: field: characteristic must be an integer, got {char!r}\n"

    def test_unknown_command_exits_two(self, doc_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate", "--in", doc_path])
        assert exc.value.code == 2

    def test_failing_check_exits_one(self, doc_path, capsys, monkeypatch):
        def fake_run(command, doc, flags):
            return {
                "version": cli.SCHEMA_VERSION,
                "command": command,
                "flags": {},
                "inputs_digest": "0" * 64,
                "outcome": "fail",
                "value": None,
                "counterexample": {"note": "forced"},
                "timing_ms": 0,
            }

        monkeypatch.setattr(cli, "run", fake_run)
        assert cli.main(["mv-check", "--in", doc_path, "--q", "0"]) == 1
        assert json.loads(capsys.readouterr().out)["outcome"] == "fail"

    def test_internal_defect_exits_three(self, doc_path, capsys, monkeypatch):
        def fake_run(command, doc, flags):
            raise AssertionError("internal defect: decision and witness disagree")

        monkeypatch.setattr(cli, "run", fake_run)
        assert cli.main(["equiv", "--in", doc_path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "abcosp: internal defect: decision and witness disagree\n"

    @pytest.mark.parametrize(
        "command, q", [("homology", "-1"), ("homology", "-5"), ("mv-check", "-5")]
    )
    def test_negative_degree_exits_two(self, doc_path, capsys, command, q):
        assert cli.main([command, "--in", doc_path, "--q", q]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "abcosp: homology degree must be nonnegative\n"

    def test_class_and_witness_disagreement_exits_three(
        self, tmp_path, capsys, monkeypatch
    ):
        # d has the smaller bulk but another joint kernel, so no witness exists
        monkeypatch.setattr("abcosp.cospan.canonical_cosp", lambda c: None)
        doc = dict(BASE_DOC, inputs={"left": "d", "right": "c"})
        assert cli.main(["leq", "--in", write_doc(tmp_path, doc)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("abcosp: internal defect: ")
        assert captured.err.count("\n") == 1

    def test_exact_square_disagreement_exits_three(self, tmp_path, capsys, monkeypatch):
        # negating the middle criterion makes it disagree with the direct one
        middle = abcat.is_exact_at_middle
        monkeypatch.setattr(abcat, "is_exact_at_middle", lambda c: not middle(c))
        doc = dict(BASE_DOC, suite={"count": 1})
        assert cli.main(["random-suite", "--in", write_doc(tmp_path, doc)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("abcosp: internal defect: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("seed, status", [(0, 1), (4, 3)])
    def test_unsigned_kernel_rref_is_caught(
        self, tmp_path, capsys, unsigned_kernel_rref, seed, status
    ):
        # invisible over GF(2), so the suite runs over GF(3); seed 0 meets it
        # first in a law, seed 4 in a generated square that does not commute
        doc = dict(BASE_DOC, suite={"count": 8, "chars": [3]})
        p = write_doc(tmp_path, doc)
        assert cli.main(["random-suite", "--in", p, "--seed", str(seed)]) == status
        captured = capsys.readouterr()
        if status == 3:
            assert captured.out == ""
            assert captured.err == (
                "abcosp: internal defect: square_complex needs a commuting square\n"
            )
        else:
            report = json.loads(captured.out)
            assert report["outcome"] == "fail"
            assert report["counterexample"] == {"check": "units", "char": 3}
        # the brute-force oracle runs over GF(2) only, where the sign is lost
        assert cli.main(["oracle", "--in", write_doc(tmp_path, dict(
            BASE_DOC, field={"char": 3}), "gf3.json")]) == 2
        assert capsys.readouterr().err == (
            "abcosp: oracle: the brute-force oracle runs over GF(2)\n"
        )

    @pytest.mark.parametrize("seed, failure", [
        (0, {"check": "units", "char": 3}),
        (4, {"check": "brown_functoriality", "char": 3, "q": 0}),
        (3, None),
    ])
    def test_unsigned_null_vectors_are_caught(
        self, tmp_path, capsys, unsigned_null_vectors, seed, failure
    ):
        # both kernel forms lose the sign; seeds 0 and 4 meet it first in a
        # law, seed 3 in a homology representative that is not a cycle
        doc = dict(BASE_DOC, suite={"count": 8, "chars": [3]})
        p = write_doc(tmp_path, doc)
        status = cli.main(["random-suite", "--in", p, "--seed", str(seed)])
        captured = capsys.readouterr()
        if failure is None:
            assert status == 3
            assert captured.out == ""
            assert captured.err == (
                "abcosp: internal defect: column is not a cycle of this degree\n"
            )
        else:
            assert status == 1
            report = json.loads(captured.out)
            assert report["outcome"] == "fail"
            assert report["counterexample"] == failure

    def test_leq_ignoring_bulks_is_caught_by_the_oracle(
        self, tmp_path, capsys, leq_ignoring_bulks
    ):
        # an equivalent pair with the larger bulk on the left is "decided"
        # to hold, and the witness search then finds no mono
        p = write_doc(tmp_path, dict(BASE_DOC, field={"char": 2}))
        assert cli.main(["oracle", "--in", p]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "abcosp: internal defect: decision and witness disagree\n"
        )

    def test_console_script(self, doc_path):
        out = subprocess.run(
            [sys.executable, "-m", "abcosp.cli", "homology", "--in", doc_path, "--q", "1"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["value"]["dim"] == 1


def _load_script(name):
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_run_random_suite_script_honours_char(monkeypatch, capsys):
    script = _load_script("run_random_suite")
    seen = []

    def record(rng, f, *rest):
        seen.append(f.characteristic)

    monkeypatch.setattr(cli, "_suite_instance", record)
    assert script.main(["--char", "5", "--count", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == "pass"
    assert seen == [5, 5, 5]


@pytest.mark.parametrize("argv, message", [
    (["--d", "foo"], "--d takes an integer or 'inf'"),
    (["--count", "-1"], "suite.count: need an integer >= 0"),
])
def test_run_random_suite_script_rejects_bad_parameters(capsys, argv, message):
    # the command line tool's exit status: 2 for a rejected parameter
    assert _load_script("run_random_suite").main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"abcosp: {message}\n"


def test_circle_instance_script(capsys):
    _load_script("circle_instance").main()
    lines = capsys.readouterr().out.splitlines()
    glued = [line for line in lines if "glued bulk homology" in line]
    assert [line.split(":")[0].strip() for line in glued] == ["GF(2)", "GF(3)", "Q"]
    assert all("glued bulk homology {1: 1} " in line for line in glued)
    lemmas = lines[lines.index("lemma reports on the gluing pair:") + 1:]
    assert len(lemmas) == 15
    assert all(line.split()[-1] == "ok" for line in lemmas)


# Fuzzing the document boundary: BASE_DOC plus an object-form matrix and a
# span, mutated by dropping, retyping or inflating any field.
FUZZ_DOC = dict(
    BASE_DOC,
    matrices={"z": {"rows": 0, "cols": 1, "entries": []}},
    spans={"s": {"g0": "g0", "g1": "g1"}},
)
FUZZ_DOC["linmaps"] = dict(
    BASE_DOC["linmaps"], z={"src": 1, "dst": 0, "matrix": "z"}
)
FUZZ_RUNS = (
    ("canon",),
    ("equiv",),
    ("compose",),
    ("homology", "--q", "1"),
    ("extend-cospan", "--q", "0"),
)


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


FUZZ_PATHS = [p for p in _paths(FUZZ_DOC) if p]
RETYPED = (None, True, 1.5, "x", [], [1], {}, {"a": 1})


def _mutate(doc, path, op, new):
    parent = doc
    for key in path[:-1]:
        if isinstance(parent, dict) and key in parent:
            parent = parent[key]
        elif isinstance(parent, list) and isinstance(key, int) and key < len(parent):
            parent = parent[key]
        else:
            return
    key = path[-1]
    if isinstance(parent, dict) and key in parent or (
        isinstance(parent, list) and isinstance(key, int) and key < len(parent)
    ):
        if op == "drop":
            del parent[key]
        else:
            parent[key] = new


_mutation = st.tuples(
    st.sampled_from(FUZZ_PATHS),
    st.one_of(
        st.tuples(st.just("drop"), st.none()),
        st.tuples(st.just("set"), st.sampled_from(RETYPED)),
        st.tuples(st.just("set"), st.integers(min_value=-1, max_value=10 ** 9)),
    ),
)


@settings(max_examples=300, deadline=None)
@given(mutations=st.lists(_mutation, min_size=1, max_size=3),
       argv=st.sampled_from(FUZZ_RUNS))
def test_mutated_documents_exit_cleanly(mutations, argv):
    doc = json.loads(json.dumps(FUZZ_DOC))
    for path, (op, new) in mutations:
        _mutate(doc, path, op, new)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main([argv[0], "--in", path, *argv[1:]])
    assert status in (0, 1, 2, 3)
    if status in (2, 3):
        text = err.getvalue()
        assert text.startswith("abcosp: ") and text.count("\n") == 1, text
        assert "Traceback" not in text and out.getvalue() == ""
