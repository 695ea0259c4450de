"""Run the seeded property suite from the command line.

Thin wrapper over the `random-suite` command: builds a document holding
only a field and suite parameters, runs the suite, and prints the usual
canonical report line. Exit status matches the command line tool: 0 on
pass, 1 on a counterexample.
"""

import argparse
import json
import sys

from abcosp import cli


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=200, help="instances to generate")
    ap.add_argument("--char", type=int, default=0, choices=(0, 2, 3, 5, 7),
                    help="field characteristic (0 means rationals)")
    ap.add_argument("--max-feet", type=int, default=3)
    ap.add_argument("--max-bulk", type=int, default=4)
    ap.add_argument("--max-vertices", type=int, default=8)
    ap.add_argument("--d", type=str, default=None, help="dimension cap or 'inf'")
    args = ap.parse_args(argv)

    doc_bytes = json.dumps(
        {
            "version": "1",
            "field": {"char": args.char},
            "suite": {
                "chars": [args.char],
                "count": args.count,
                "max_feet": args.max_feet,
                "max_bulk": args.max_bulk,
                "max_vertices": args.max_vertices,
            },
        },
        sort_keys=True,
    ).encode("utf-8")
    doc = cli.parse_document(doc_bytes)
    flags = {"seed": args.seed}
    if args.d is not None:
        flags["d"] = float("inf") if args.d == "inf" else int(args.d)
    report = cli.run("random-suite", doc, flags)
    sys.stdout.write(cli.dumps_report(report))
    return 0 if report["outcome"] == "pass" else 1


if __name__ == "__main__":
    raise SystemExit(main())
