#!/usr/bin/env python3
"""Run the standard verification grid for every family and collect NDJSON.

Drives the ``superverma verify`` command once per family over the default
parameter grid (the same grid the acceptance tests sweep) and concatenates
the newline-delimited JSON records into a single stream.  The output is
byte-deterministic for a fixed seed list, so the resulting file can be
diffed across runs or machines.

Usage:
    python3 scripts/run_grid.py --out grid.ndjson --jobs 4
    python3 scripts/run_grid.py --seed 0..4 --check nonzero --check singular
"""

import argparse
import contextlib
import io
import sys

from superverma.cli import CHECK_NAMES, main as cli_main

# (family, m grid, n grid, N grid); m/n are None for the exceptional cases.
STANDARD_GRID = (
    ("B-I", "1,2", "1,2", "1,3"),
    ("B-II", "1,2", "1,2", "1..3"),
    ("D-I", "1,2", "2,3", "1,2"),
    ("D-II", "1,2", "2,3", "1,2"),
    ("F31", None, None, "1..3"),
    ("G3", None, None, "1,3"),
)


def family_argv(family, m, n, levels, args):
    argv = ["verify", "--case", family, "--N", levels, "--seed", args.seed,
            "--jobs", str(args.jobs), "--json"]
    if m is not None:
        argv += ["--m", m, "--n", n]
    for check in args.check or ():
        argv += ["--check", check]
    return argv


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="-",
                        help="output path for NDJSON records (default stdout)")
    parser.add_argument("--seed", default="0..2",
                        help="seed grid passed through to verify (default 0..2)")
    parser.add_argument("--check", action="append",
                        choices=CHECK_NAMES + ("all",),
                        help="checks to run at each point (repeatable; default all)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes per family run")
    args = parser.parse_args(argv)

    buffer = io.StringIO()
    status = 0
    for family, m, n, levels in STANDARD_GRID:
        with contextlib.redirect_stdout(buffer):
            rc = cli_main(family_argv(family, m, n, levels, args))
        if rc != 0:
            status = max(status, rc)

    text = buffer.getvalue()
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as handle:
            handle.write(text)
        count = text.count("\n")
        print(f"wrote {count} records to {args.out}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
