"""Tests of the benchmark itself, not of the library.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

They prove the frozen gf2-preorder reference against the brute-force GF(2)
oracles once, show that a wrong output fails a run, check that both kinds of
run print exactly the metrics BENCHMARK.json names, and check that the
benchmark refuses to run without the package source.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = {"gf2-preorder": 300, "qq-laws": 12, "brown-verify": 9}


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scratch_dir():
    return tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-")


def test_gf2_reference_agrees_with_brute_force_oracles():
    ab = worker.import_abcosp()
    G = ab.generators
    wl = workloads.Gf2Preorder(ab, workloads.DEFAULT_SEED, layertrace.Caches())
    ref = worker.load_reference(BENCH / "reference" / "gf2-preorder.json", wl.name, wl.seed)
    assert len(ref) == 10_000
    verdicts = {"equiv": set(), "leq": set()}
    pairs = 0
    for i, item in enumerate(wl.generate(0, len(ref))):
        out = wl.run(item)
        assert workloads.digest(wl.check(item, out)) == ref[i], i
        if item[0] != "pair":
            continue
        _, c, d = item
        eq, w = out[0], out[1] is not None
        assert eq == G.brute_force_upper_bound_gf2(c, d), i
        assert w == G.brute_force_leq_gf2(c, d), i
        verdicts["equiv"].add(eq)
        verdicts["leq"].add(w)
        pairs += 1
    assert 7_500 < pairs < 8_500
    assert verdicts == {"equiv": {False, True}, "leq": {False, True}}


def test_corrupted_reference_digest_fails_the_run():
    ref = json.loads((BENCH / "reference" / "gf2-preorder.json").read_text())
    k = 5 * ref["digest_hex"]
    text = ref["digests"]
    ref["digests"] = text[:k] + ("1" if text[k] == "0" else "0") + text[k + 1:]
    with scratch_dir() as tmp:
        bad = Path(tmp) / "bad.json"
        bad.write_text(json.dumps(ref))
        proc = run_bench("--workload", "gf2-preorder", "--seed", "0", "--items", "50",
                         "--reference", str(bad))
    assert proc.returncode == 1
    res = last_json(proc)
    assert res["correct"] is False and res["attempted"] == 50 and res["failed"] == 1
    assert "failed_frac 0.02 ratio" in proc.stdout
    assert "item 5: digest" in proc.stderr


def test_qq_laws_items_cover_every_stratum_once_per_cycle():
    ab = worker.import_abcosp()
    wl = workloads.QqLaws(ab, 7, layertrace.Caches())
    items = wl.generate(wl.cycle, wl.cycle)
    combos = {(chain[0].bulk.dim, chain[1].bulk.dim) for chain, _, _ in items}
    assert len(combos) == wl.cycle == 25


def test_speed_scaling_follows_the_local_probe_times():
    probes = speed.Probes()
    ref = speed.REFERENCE_S
    # a host at the reference speed, then at half of it
    probes.times = [ref] * 10 + [2 * ref] * 10
    factors = probes.window_factors()
    assert len(factors) == 19
    assert factors[:6] == [1.0] * 6 and factors[-6:] == [0.5] * 6
    # one slow probe is outvoted by its neighbours
    probes.times = [ref] * 9 + [5 * ref] + [ref] * 9
    assert probes.window_factors() == [1.0] * 18
    assert probes.factor() == 1.0


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_untraced_run_prints_end_to_end_metrics(workload):
    proc = run_bench("--workload", workload, "--seed", "0", "--items", str(SMALL[workload]))
    assert proc.returncode == 0, proc.stderr
    res = last_json(proc)
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] == SMALL[workload]
    assert "failed_frac 0.0 ratio" in proc.stdout
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_run_prints_per_layer_metrics(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--trace", "1",
                     "--items", str(SMALL[workload]))
    assert proc.returncode == 0, proc.stderr
    res = last_json(proc)
    assert res["correct"] is True
    metrics = res["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    # layer self times, the benchmark's own time and the tracer's
    # bookkeeping account for the traced wall time
    assert abs(metrics["trace.coverage"]["value"] - 1) < 0.05
    assert metrics["exactlin.rref.calls"]["value"] > 0
    if workload == "brown-verify":
        assert metrics["cw.homology.calls"]["value"] > 0
        assert metrics["cli.bytes_in"]["value"] > 0


def test_refuses_to_run_without_the_package_source():
    with scratch_dir() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("--workload", "gf2-preorder", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
