"""Run the seeded property suite from the command line.

Thin wrapper over the `random-suite` command: writes a document holding
only a field and suite parameters to a temporary file and runs the command
line tool on it, so the report line and the exit status are the tool's:
0 on pass, 1 on a counterexample, 2 on a rejected parameter, 3 on an
internal defect.
"""

import argparse
import json
import os
import tempfile

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
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(doc_bytes)
        cmd = ["random-suite", "--in", path, "--seed", str(args.seed)]
        if args.d is not None:
            cmd += ["--d", args.d]
        return cli.main(cmd)
    finally:
        os.remove(path)


if __name__ == "__main__":
    raise SystemExit(main())
