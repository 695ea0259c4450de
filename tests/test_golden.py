"""Replay the golden report corpus: every stored case must give the same
stdout bytes and exit status. Regenerate with ``tests/golden/generate.py``
only when an output is meant to change."""

import json
from pathlib import Path

import pytest

from abcosp import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "expected.json").read_text())


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{c['doc']}:{' '.join(c['argv'])}" for c in CASES]
)
def test_golden_report(case, capsys):
    path = GOLDEN / "docs" / f"{case['doc']}.json"
    argv = case["argv"]
    status = cli.main([argv[0], "--in", str(path), *argv[1:]])
    assert (status, capsys.readouterr().out) == (case["exit"], case["stdout"])
