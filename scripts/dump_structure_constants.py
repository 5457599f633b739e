#!/usr/bin/env python3
"""Print the complete supercommutator table for one case.

Builds the root datum and the closed bracket table for the requested case
and writes every nonzero bracket, one per line, in a fixed basis order.
Useful for eyeballing structure constants or diffing two builds.

Exit codes, as for the superverma command: 0 on success, 2 for a usage
error (a case that cannot be parsed or is too large), 3 for an internal
error such as root data or a bracket closure that fails its own checks.

Usage:
    python3 scripts/dump_structure_constants.py B-I:m=1,n=1
    python3 scripts/dump_structure_constants.py G3 --out g3_table.txt
"""

import argparse
import sys

from superverma.rootdata import CaseId, InvalidParams
from superverma.singular import build_context
from superverma.superalgebra import dump_table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("case",
                        help="case label, e.g. B-I:m=1,n=1, D-II:m=1,n=2, F31, G3")
    parser.add_argument("--out", default="-",
                        help="output path (default stdout)")
    args = parser.parse_args(argv)

    try:
        text = dump_table(build_context(CaseId.parse(args.case)))
    except InvalidParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a fault of the program
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {text.count(chr(10))} lines to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
