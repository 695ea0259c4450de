"""Run one abcosp benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gf2-preorder --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Every measurement happens in a fresh interpreter started from
here (``worker.py``), so no ``lru_cache`` carries state from one run into
the next. The last line of standard output is one JSON object:

  --trace 0  end-to-end metrics: items_per_s, item_ms_p50, item_ms_p95,
             setup_s (median over several fresh set-ups), peak_rss_mb
  --trace 1  per-layer metrics of a traced run over a fixed prefix of the
             item stream, plus the same prefix run untraced, which gives
             the tracing overhead

Every item's output is checked outside the timed region. The exit status is
1 when an output was wrong, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Fresh processes that only set up; the timed run sets up once more.
SETUP_RUNS = 8
# All workers of one run must end within this many seconds.
DEADLINE_S = 170

sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


class WorkerError(Exception):
    pass


def worker(args, mode: str, extra=()) -> tuple:
    """Run worker.py in a fresh interpreter; return (exit status, result)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("ABCOSP_TIMING", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, args.deadline - time.monotonic()))
    except subprocess.TimeoutExpired as e:
        raise WorkerError(f"{mode} worker did not end within the {DEADLINE_S} s deadline") from e
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        raise WorkerError(f"{mode} worker exited with status {proc.returncode} and no result")
    return proc.returncode, result


def untraced(args, passthrough) -> tuple:
    setups = [worker(args, "setup")[1] for _ in range(SETUP_RUNS)]
    extra = ["--seconds", str(args.seconds), *passthrough]
    status, res = worker(args, "run", extra)
    setups.append(res)
    res["raw_setup_s"] = statistics.median(r["raw_setup_s"] for r in setups)
    setups = [r["setup_s"] for r in setups]
    metrics = {
        "items_per_s": (res["items_per_s"], "1/s"),
        "item_ms_p50": (res["item_ms_p50"], "ms"),
        "item_ms_p95": (res["item_ms_p95"], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return status, res, metrics


def traced(args, passthrough) -> tuple:
    items = args.items or max(1, math.ceil(args.seconds * WORKLOADS[args.workload].trace_rate))
    extra = ["--items", str(items), *passthrough]
    status0, plain = worker(args, "run", extra)
    status1, res = worker(args, "trace", extra)
    metrics = {k: tuple(v) for k, v in res["layers"].items()}
    metrics["trace.items"] = (res["attempted"], "count")
    metrics["trace.items_per_s"] = (res["items_per_s"], "1/s")
    metrics["trace.untraced_items_per_s"] = (plain["items_per_s"], "1/s")
    metrics["trace.overhead"] = (plain["items_per_s"] / res["items_per_s"], "ratio")
    res["attempted"] += plain["attempted"]
    res["failed"] += plain["failed"]
    res["reference_items"] += plain["reference_items"]
    return max(status0, status1), res, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", type=int, default=None,
                    help="run exactly this many items instead of --seconds")
    ap.add_argument("--reference", default=None,
                    help="digest file to check outputs against (default: the frozen one)")
    ap.add_argument("--write-digests", default=None,
                    help="write this run's per-item digests here")
    args = ap.parse_args(argv)
    args.deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "abcosp" / "__init__.py").is_file():
        return fail(f"no abcosp source tree under {ROOT / 'src'}")
    passthrough = []
    if args.items is not None and not args.trace:
        passthrough += ["--items", str(args.items)]
    for flag, value in (("--reference", args.reference), ("--write-digests", args.write_digests)):
        if value is not None:
            passthrough += [flag, str(Path(value).resolve())]
    try:
        status, res, metrics = (traced if args.trace else untraced)(args, passthrough)
    except WorkerError as e:
        return fail(str(e))
    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}  seed {args.seed}  items {attempted}  "
          f"checked against reference {res['reference_items']}")
    print(f"speed probe median {res['probe_ms_p50']} ms over {res['probes']} probes; "
          f"times below are scaled to a {speed.REFERENCE_S * 1e3} ms probe")
    for name in ("items_per_s", "item_ms_p50", "item_ms_p95", "setup_s"):
        if "raw_" + name in res:
            print(f"unscaled {name} {res['raw_' + name]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"failed_frac {failed / attempted} ratio")
    correct = failed == 0 and status == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
