"""One benchmark process: import abcosp, generate inputs, run items.

Started by ``run.py`` in a fresh interpreter, so no cache, pyc-level warmth
aside, carries over from another run. Prints one JSON object as its last
line of standard output and exits 1 when any output failed its check.

Modes:
  setup  import and generate the first batch, report the time, exit
  run    closed loop for --seconds of timed item work (at least 200 items
         and the workload's rss_items, and whole cycles of its stream), or
         exactly --items items
  trace  like run with --items, with every layer traced
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import types
from collections import deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_ITEMS = 200
MAX_REPORTED_FAILURES = 5
# Speed probes taken just before and just after set-up.
SETUP_PROBES = 5

sys.path.insert(0, str(HERE))

import layertrace as tracing  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def import_abcosp():
    """Import the package from this checkout's source tree, never another."""
    sys.path.insert(0, str(SRC))
    import abcosp
    from abcosp import abcat, brown, cli, cospan, cw, exactlin, generators

    if Path(abcosp.__file__).resolve().parent != (SRC / "abcosp").resolve():
        raise SystemExit(f"perfbench: imported abcosp from {abcosp.__file__}, not {SRC}")
    return types.SimpleNamespace(
        exactlin=exactlin, abcat=abcat, cospan=cospan, cw=cw,
        brown=brown, cli=cli, generators=generators,
    )


def load_reference(path, workload, seed):
    """Per-item digests from a reference file, or None when it is for
    another workload or seed."""
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    if ref["workload"] != workload or ref["seed"] != seed:
        return None
    hexlen = ref["digest_hex"]
    text = ref["digests"]
    return [text[k:k + hexlen] for k in range(0, len(text), hexlen)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--items", type=int, default=None)
    ap.add_argument("--reference", default=None)
    ap.add_argument("--write-digests", default=None)
    args = ap.parse_args(argv)
    os.environ.pop("ABCOSP_TIMING", None)
    if hasattr(os, "sched_setaffinity"):
        # The CPUs of a small VM need not run at one speed (two vCPUs here
        # differ by about 12%), so a run that the scheduler may place on
        # either one gives two modes. Always use the lowest CPU allowed.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    probes = speed.Probes()
    probes.take(SETUP_PROBES)
    t0 = time.perf_counter()
    ab = import_abcosp()
    caches = tracing.Caches()
    wl = workloads.WORKLOADS[args.workload](ab, args.seed, caches)
    pending = deque(wl.generate(0, wl.batch))
    raw_setup_s = time.perf_counter() - t0
    probes.take(SETUP_PROBES)
    setup_s = raw_setup_s * probes.factor()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    ref_path = Path(args.reference or HERE / "reference" / f"{args.workload}.json")
    ref = load_reference(ref_path, args.workload, args.seed) if ref_path.is_file() else None
    if args.reference and ref is None:
        raise SystemExit(f"perfbench: {args.reference} is no reference for this workload and seed")
    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracer.install(ab)
    caches.reset()

    clock = time.perf_counter
    probes = speed.Probes()
    since_probe = speed.EVERY_S
    windows = []
    latencies = []
    digests = []
    failed = 0
    busy = 0.0
    bench_s = 0.0
    min_items = max(MIN_ITEMS, wl.rss_items)
    peak_rss_mb = None
    i = 0
    while True:
        if args.items is not None:
            if i == args.items:
                break
        elif busy >= args.seconds and i >= min_items and i % wl.cycle == 0:
            break
        if i == wl.rss_items:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not pending:
            pending.extend(wl.generate(i, wl.batch))
        item = pending.popleft()
        wl.before()
        if since_probe >= speed.EVERY_S:
            probes.take()
            since_probe = 0.0
        error = None
        if tracer is not None:
            tracer.begin_item()
        start = clock()
        try:
            out = wl.run(item)
        except Exception as e:  # a raising item counts as failed, the run goes on
            error = f"{type(e).__name__}: {e}"
        took = clock() - start
        if tracer is not None:
            bench_s += took - tracer.end_item()
        latencies.append(took)
        windows.append(probes.count - 1)
        busy += took
        since_probe += took
        if error is None:
            try:
                d = workloads.digest(wl.check(item, out))
            except workloads.CheckFailed as e:
                error = f"check failed: {e}"
        if error is None and ref is not None and i < len(ref) and d != ref[i]:
            error = f"digest {d} differs from reference {ref[i]}"
        if error is not None:
            failed += 1
            d = "x" * workloads.DIGEST_HEX
            if failed <= MAX_REPORTED_FAILURES:
                print(f"perfbench: {args.workload} seed {args.seed} item {i}: {error}", file=sys.stderr)
        if args.write_digests:
            digests.append(d)
        i += 1

    probes.take()
    cache_totals = caches.finish()
    factors = probes.window_factors()
    scaled = [t * factors[w] for t, w in zip(latencies, windows)]
    result = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "attempted": i,
        "failed": failed,
        "reference_items": min(i, len(ref)) if ref is not None else 0,
        "busy_s": busy,
        "probes": probes.count,
        "probe_ms_p50": statistics.median(probes.times) * 1e3,
        "peak_rss_mb": peak_rss_mb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for prefix, times in (("", scaled), ("raw_", latencies)):
        result[prefix + "items_per_s"] = i / sum(times)
        result[prefix + "item_ms_p50"] = statistics.median(times) * 1e3
        result[prefix + "item_ms_p95"] = (
            statistics.quantiles(times, n=20)[18] if i >= 2 else times[0]) * 1e3
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, cache_totals, busy, bench_s)
    if args.write_digests:
        with open(args.write_digests, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "items": i,
                    "digest_hex": workloads.DIGEST_HEX,
                    "digests": "".join(digests),
                },
                fh,
            )
            fh.write("\n")
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
