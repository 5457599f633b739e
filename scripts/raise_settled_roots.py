#!/usr/bin/env python3
"""Raise one verify point's candidate by each of its settled simple roots.

verify reads residual 0 for a simple root that singular.settled_roots
settles from the factor word alone, without raising u by it.  This script
builds u as verify does (default lambda for the seed) and raises it by
every settled root, printing one line per root with its premise and the
number of terms its image keeps; each must keep 0.  It cross-checks the
premises on points too large for the unit tests.

Exit codes, as for the superverma command, whose guard it runs through: 0
when every settled root's image is 0, 1 when one is not, 2 for a usage
error, 3 for an internal error, 141 when stdout is closed early.

Usage:
    python3 scripts/raise_settled_roots.py D-II:m=5,n=5 2
    python3 scripts/raise_settled_roots.py G3 3 --seed 1
"""

import argparse
import sys

from superverma.cli import guard
from superverma.pbw import PBWEngine
from superverma.rootdata import CaseId
from superverma.singular import CaseParams, build_context, candidate, default_lambda, settled_roots
from superverma.verma import act


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("case", help="case label, e.g. D-II:m=5,n=5, F31, G3")
    parser.add_argument("N", type=int, help="the level N")
    parser.add_argument("--seed", type=int, default=0, help="seed of the default lambda")
    return guard(raise_settled, parser.parse_args(argv))


def raise_settled(args):
    case = CaseId.parse(args.case)
    table = build_context(case)
    cand = candidate(CaseParams(args.N, default_lambda(case, args.N, args.seed)), table)
    engine = PBWEngine(table)
    u = cand.build(engine)
    settled = settled_roots(cand, table)
    alg = table.alg
    failed = 0
    for j, premise in settled.items():
        e = table.e_id(alg.simple_pos_index[j])
        terms = len(act(engine.gen(e), u, engine).body)
        print(f"{alg.simple_system[j].name} ({premise}): {terms} terms")
        failed += terms != 0
    print(f"{case.text} N={args.N} seed={args.seed}: {len(settled)} of {alg.rank} simple roots settled,"
          f" {failed} with a nonzero image")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
