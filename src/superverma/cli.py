"""Command line front end.

Three subcommands:

* ``verify``   builds candidate vectors over a parameter grid and checks
  them (nonzero, weight, singularity, permutation sign flips, coefficient
  witnesses).
* ``orbit``    propagates a Shapovalov element along a reflection chain
  and reports every intermediate check.
* ``selftest`` runs the invariant suite at the smallest parameters of
  each case; its candidate check is verify's point check (nonzero, weight
  and singular) at level 1, with verify's counterexample.

Reports are deterministic for fixed flags: all randomness is seeded, grid
points are emitted in canonical order, and JSON lines carry no timing.
Exit codes: 0 all checks pass, 1 a check failed, 2 usage error, 3 internal
error, 141 stdout closed early (broken pipe).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from contextlib import nullcontext
from math import prod
from typing import Dict, List, Optional, Sequence, Tuple

from .pbw import Inhomogeneous, PBWEngine, el_one
from .rootdata import (
    CaseId,
    FAMILIES,
    InvalidParams,
    OSP_FAMILIES,
    format_weight,
    parse_weight,
    rho_violation,
    wdiff,
)
from .singular import (
    MAX_CASE_DIM,
    CaseParams,
    _support,
    build_context,
    candidate,
    candidate_u,
    chain_kappas,
    chain_weight,
    check_case_size,
    check_level,
    claimed_drop,
    default_lambda,
    propagate_chain,
    run_witness,
    signflip_counterexample,
)
from .superalgebra import check_jacobi, check_reference_scaling
from .verma import (
    VermaVector,
    act,
    highest_weight_vector,
    is_singular,
    weight_of,
)

CHECK_NAMES = ("nonzero", "singular", "signflip", "witness")
# the most grid points one verify or orbit run may span
MAX_GRID_POINTS = 100_000

SMALLEST_CASES = (
    "B-I:m=1,n=1",
    "B-II:m=1,n=1",
    "D-I:m=1,n=2",
    "D-II:m=1,n=2",
    "F31",
    "G3",
)


def _int(text: str, flag: str, value: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidParams(f"cannot parse {flag} {value!r}") from None


def parse_grid(text: str, flag: str) -> List[int]:
    """Integer grid values: "2", "1,3", or "1..4" (and mixtures).  Errors
    name the flag the text came from; the ranges are sized against
    MAX_GRID_POINTS before they are expanded."""
    ranges = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, _, hi = part.partition("..")
            a, b = _int(lo, flag, text), _int(hi, flag, text)
            if b < a:
                raise InvalidParams(f"empty range {part!r} in {flag}")
            ranges.append(range(a, b + 1))
        elif part:
            n = _int(part, flag, text)
            ranges.append(range(n, n + 1))
    if not ranges:
        raise InvalidParams(f"empty grid {text!r} in {flag}")
    _check_run_size({flag: sum(map(len, ranges))})
    return sorted({x for r in ranges for x in r})


def _check_run_size(sizes: Dict[str, int]) -> None:
    """A usage error, naming the flags, when the grids of the given sizes
    span more than MAX_GRID_POINTS points together."""
    total = prod(sizes.values())
    if total > MAX_GRID_POINTS:
        flags = ", ".join(flag for flag, n in sizes.items() if n > 1)
        raise InvalidParams(f"{total} grid points from {flags}, more than the {MAX_GRID_POINTS} a run may span")


def _expand_checks(values: Optional[List[str]]) -> Tuple[str, ...]:
    if not values or "all" in values:
        return CHECK_NAMES
    return tuple(c for c in CHECK_NAMES if c in values)


def _case_grid(args) -> List[CaseId]:
    family = args.case
    if family not in FAMILIES:
        raise InvalidParams(f"unknown case {family!r}, expected one of {', '.join(FAMILIES)}")
    if family in OSP_FAMILIES:
        if args.m is None or args.n is None:
            raise InvalidParams(f"{family} needs --m and --n")
        ms, ns = parse_grid(args.m, "--m"), parse_grid(args.n, "--n")
        _check_run_size({"--m": len(ms), "--n": len(ns)})
        cases = [CaseId(family, m, n) for m in ms for n in ns]
        big = max(cases, key=lambda c: c.dim)
        check_case_size(big, f"--m {big.m} --n {big.n} give")
        return cases
    if args.m is not None or args.n is not None:
        raise InvalidParams(f"{family} takes no --m or --n")
    return [CaseId(family)]


def _level_grid(args) -> List[int]:
    if args.M is not None:
        if args.N is not None:
            raise InvalidParams("give either --N or --M, not both")
        levels = parse_grid(args.M, "--M")
        if levels[0] < 0:  # sorted
            raise InvalidParams(f"--M must be a nonnegative integer, got {levels[0]}")
        return [2 * M + 1 for M in levels]
    return parse_grid(args.N if args.N is not None else "1", "--N")


class PointFault(Exception):
    """An internal error out of one grid point or selftest check:
    "<point>: <class>: <message>"."""


def _run_grid(point, where: str, jobs, args, text_line, noun: str) -> int:
    """Run ``point`` on every job and print one report line per job, in job
    order and as soon as it completes, then a summary in text mode; an
    internal error out of a job is a PointFault named ``where.format(*job)``.
    Worker processes are bounded by the number of jobs and of CPUs; the
    process pool, and multiprocessing with it, is imported only when more
    than one would start."""
    if args.jobs < 1:
        raise InvalidParams(f"--jobs must be at least 1, got {args.jobs}")
    workers = min(args.jobs, len(jobs))
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)
    t0 = time.monotonic()
    failures = 0
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        executor = ProcessPoolExecutor(max_workers=workers, initializer=_lift_digit_limit)
    else:
        executor = nullcontext()
    with executor as pool:
        results = (pool.map if pool else map)(point, jobs)
        for job in jobs:
            try:
                rec, elapsed = next(results)
            except InvalidParams:
                raise
            except Exception as exc:
                raise PointFault(f"{where.format(*job)}: {type(exc).__name__}: {exc}") from exc
            if not rec["ok"]:
                failures += 1
            line = json.dumps(rec, sort_keys=True) if args.json else text_line(rec, elapsed)
            print(line, flush=True)
    if not args.json:
        print(f"{len(jobs)} {noun}, {failures} failed, {time.monotonic() - t0:.2f}s total")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# verify


def _verify_point(job):
    case_text, N, seed, lam_text, checks = job
    t0 = time.monotonic()
    case = CaseId.parse(case_text)
    table = build_context(case)
    alg = table.alg
    if lam_text is None:
        lam = default_lambda(case, N, seed)
    else:
        try:
            lam = parse_weight(lam_text, alg.rank)
        except ValueError as exc:
            raise InvalidParams(f"cannot parse --lambda {lam_text!r}: {exc}") from None
    params = CaseParams(N, lam)
    cand = candidate(params, table)
    engine = PBWEngine(table)
    u = cand.build(engine)
    drop = claimed_drop(params, alg)
    rec = {
        "case": case.text,
        "m": case.m,
        "n": case.n,
        "N": N,
        "seed": seed,
        "lambda": [str(x) for x in lam],
        "gamma": alg.gamma.name,
        "drop": [str(x) for x in alg.from_lattice(drop)],
        "u_terms": len(u.body),
    }
    nonzero = not u.is_zero()
    # a zero u fails the weight check, which always runs, so it is always named
    counterexample = None if nonzero else "u = 0"
    if "nonzero" in checks:
        rec["nonzero_ok"] = nonzero
    # weight_of(u) is lambda - rho - drop exactly when the body's weight is -drop
    weight_ok, problem = False, None
    if nonzero:
        try:
            weight_ok = engine.element_lattice(u.body) == tuple(-c for c in drop)
        except Inhomogeneous as exc:
            problem = f"body of u: {exc}"
        if not weight_ok and problem is None:
            expected = wdiff(wdiff(lam, alg.rho), alg.from_lattice(drop))
            problem = (
                f"weight_of(u) = ({format_weight(weight_of(u, engine))}), expected ({format_weight(expected)})"
            )
    rec["weight_ok"] = weight_ok
    if problem is not None and counterexample is None:
        counterexample = problem
    if "singular" in checks:
        report = is_singular(u, engine)
        rec["singular_ok"] = report.ok
        rec["residuals"] = [[name, count] for name, count in report.residuals]
        if report.failure is not None and counterexample is None:
            name, image = report.failure
            counterexample = f"e_{{{name}}} u = {engine.render(image, 'v+')}"
    if "signflip" in checks:
        flip = signflip_counterexample(cand, engine)
        rec["signflip_ok"] = nonzero and flip is None
        if flip is not None and counterexample is None:
            counterexample = flip
    if "witness" in checks:
        wrep = run_witness(cand, table)
        rec["witness_ok"] = wrep.ok
        rec["witness_coefficients"] = [str(r.coefficient) for r in wrep.rows]
        rec["candidate_coefficient"] = str(wrep.candidate_coefficient)
        if not wrep.ok and counterexample is None:
            bad = next((r for r in wrep.rows if r.coefficient == 0 or not r.weight_ok), None)
            if bad is not None:
                counterexample = f"witness step {bad.label} coefficient {bad.coefficient}"
            else:
                counterexample = "candidate misses the first witness monomial"
    rec["counterexample"] = counterexample
    rec["ok"] = all(rec[key] for key in rec if key.endswith("_ok"))
    return rec, time.monotonic() - t0


_FLAG_KEYS = ("nonzero_ok", "weight_ok", "singular_ok", "signflip_ok", "witness_ok")


def _verify_text_line(rec, elapsed: float) -> str:
    bits = [
        rec["case"],
        f"N={rec['N']}",
        f"seed={rec['seed']}",
        f"lambda=({','.join(rec['lambda'])})",
        f"u_terms={rec['u_terms']}",
    ]
    for key in _FLAG_KEYS:
        if key in rec:
            bits.append(f"{key[:-3]}={'ok' if rec[key] else 'FAIL'}")
    bits.append(f"[{elapsed * 1000:.0f}ms]")
    line = " ".join(bits)
    if rec["counterexample"]:
        line += f"\n  counterexample: {rec['counterexample']}"
    return line


def cmd_verify(args) -> int:
    cases = _case_grid(args)
    levels = _level_grid(args)
    seeds = parse_grid(args.seed, "--seed")
    level_flag = "--N" if args.M is None else "--M"
    _check_run_size({"--m, --n": len(cases), level_flag: len(levels), "--seed": len(seeds)})
    for N in levels:
        check_level(cases[0], N, "N")
    checks = _expand_checks(args.check)
    if args.lam is not None and (len(cases) > 1 or len(levels) > 1 or len(seeds) > 1):
        raise InvalidParams("an explicit lambda needs a single grid point")
    jobs = [
        (case.text, N, seed, args.lam, checks)
        for case in cases
        for N in levels
        for seed in seeds
    ]
    return _run_grid(_verify_point, "{} N={} seed={}", jobs, args, _verify_text_line, "grid points")


# ---------------------------------------------------------------------------
# orbit


def _parse_target(text: Optional[str], case: CaseId):
    """An index or an i,j pair; by default 1..k for gamma's k support
    coordinates, the one form that builds the case's table."""
    if text is None:
        parts = list(range(1, 1 + len(_support(build_context(case).alg))))
    else:
        parts = [_int(p, "--target", text) for p in text.split(",") if p.strip()]
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 2:
        return tuple(parts)
    raise InvalidParams(f"cannot parse --target {text!r}")


def _orbit_point(job):
    case_text, C, target, seed, p_first = job
    t0 = time.monotonic()
    case = CaseId.parse(case_text)
    report = propagate_chain(build_context(case), C, target, seed, p_first=p_first)
    rec = {
        "case": case.text,
        "m": case.m,
        "n": case.n,
        "C": C,
        "seed": seed,
        "target": list(target) if isinstance(target, tuple) else target,
        "mu": [str(x) for x in report.mu0],
        "start_singular": report.start_singular,
        "start_terms": report.start_terms,
        "steps": [
            {
                "kappa": s.kappa,
                "beta_from": s.beta_from,
                "beta_to": s.beta_to,
                "p": s.p,
                "exponent": s.exponent,
                "nu": [str(x) for x in s.nu],
                "theta_terms": s.theta_terms,
                "start_singular": s.start_singular,
                "lifted_singular": s.lifted_singular,
                "image_singular": s.image_singular,
                "weight_ok": s.weight_ok,
                "ok": s.ok,
            }
            for s in report.steps
        ],
        "final_beta": report.final_beta,
        "final_ok": report.final_ok,
        "ok": report.ok,
    }
    return rec, time.monotonic() - t0


def _orbit_text_line(rec, elapsed: float) -> str:
    path = [rec["steps"][0]["beta_from"]] if rec["steps"] else [rec["final_beta"]]
    path += [s["beta_to"] for s in rec["steps"]]
    bits = [
        rec["case"],
        f"C={rec['C']}",
        f"seed={rec['seed']}",
        f"target={rec['target']}",
        f"mu=({','.join(rec['mu'])})",
        " -> ".join(path),
        f"p={[s['p'] for s in rec['steps']]}",
        "ok" if rec["ok"] else "FAIL",
        f"[{elapsed * 1000:.0f}ms]",
    ]
    return " ".join(bits)


def cmd_orbit(args) -> int:
    if args.case not in OSP_FAMILIES:
        raise InvalidParams(
            f"orbit propagation applies to {', '.join(OSP_FAMILIES)};"
            f" {args.case} has a single-point orbit"
        )
    cases = _case_grid(args)
    if len(cases) > 1:
        raise InvalidParams(
            f"orbit takes a single case, but --m {args.m} --n {args.n} give {len(cases)}"
        )
    case = cases[0]
    levels = parse_grid(args.C, "--C")
    seeds = parse_grid(args.seed, "--seed")
    _check_run_size({"--C": len(levels), "--seed": len(seeds)})
    for C in levels:
        check_level(case, C, "C")
    if args.p is not None and args.p < 1:
        raise InvalidParams("p must be a positive integer")
    target = _parse_target(args.target, case)
    jobs = [(case.text, C, target, seed, args.p) for C in levels for seed in seeds]
    return _run_grid(_orbit_point, "{} C={} target={} seed={}", jobs, args, _orbit_text_line, "chains")


# ---------------------------------------------------------------------------
# selftest


def _st_jacobi(table, seed):
    report = check_jacobi(table)
    return report.ok, report.first_violation


def _st_rho(table, seed):
    problem = rho_violation(table.alg)
    return problem is None, problem


def _st_associativity(table, seed):
    engine = PBWEngine(table)
    rng = random.Random(f"selftest:assoc:{table.alg.case.text}:{seed}")
    for trial in range(25):
        ids = [rng.randrange(table.dim) for _ in range(3)]
        x, y, z = (engine.gen(i) for i in ids)
        left = engine.multiply(engine.multiply(x, y), z)
        right = engine.multiply(x, engine.multiply(y, z))
        if left != right:
            return False, f"triple {ids}"
    return True, None


def _st_division(table, seed):
    alg = table.alg
    bid = table.f_gen(next(r for r in alg.pos_roots if not r.odd))
    engine = PBWEngine(table, (bid,))
    rng = random.Random(f"selftest:div:{alg.case.text}:{seed}")
    for trial in range(10):
        theta = el_one()
        for _ in range(2):
            theta = engine.multiply(theta, engine.gen(rng.randrange(table.n_pos)))
        p = rng.randint(1, 3)
        x = engine.multiply(theta, engine.gen(bid, p))
        if engine.right_divide(x, bid, p) != theta:
            return False, f"trial {trial}"
    return True, None


def _st_candidate(table, seed):
    rec, _ = _verify_point((table.alg.case.text, 1, seed, None, ("nonzero", "singular")))
    return rec["ok"], rec["counterexample"]


def _st_scaling(table, seed):
    report = check_reference_scaling(table)
    return report.ok, None if report.ok else report.detail


def _st_string(table, seed):
    """Alternating raising string against powers of the nonisotropic odd
    generator: e f^(2k+1) v+ = (tau - k s) f^(2k) v+ and
    e f^(2k) v+ = -k s f^(2k-1) v+."""
    alg = table.alg
    engine = PBWEngine(table)
    lam = default_lambda(alg.case, 1, seed)
    g = alg.gamma
    T = table.bracket(table.e_gen(g), table.f_gen(g))
    tau = table.h_value_pairing(T, wdiff(lam, alg.rho))
    s = table.h_value_pairing(T, g.weight)
    fg = table.f_gen(g)
    eg = engine.gen(table.e_gen(g))
    for j in range(1, 6):
        cur = act(engine.gen(fg, j), highest_weight_vector(lam), engine)
        got = act(eg, cur, engine)
        k = j // 2
        coeff = (tau - k * s) if j % 2 else (-k * s)
        want = act(engine.gen(fg, j - 1), highest_weight_vector(lam), engine).scaled(coeff)
        if got.body != want.body:
            return False, f"string fails at power {j}"
    return True, None


def _st_sl2(table, seed):
    alg = table.alg
    kappas = chain_kappas(alg.case.m - 1, alg)[:1]
    mu = chain_weight(1, kappas, seed, alg, p_first=2)
    kappa = kappas[0]
    p = int(alg.coroot_pairing(mu, kappa))
    a = int(-alg.coroot_pairing(alg.gamma.weight, kappa))
    top = p + a
    fk = table.f_gen(kappa)
    engine = PBWEngine(table, (fk,))
    theta = engine.import_element(candidate_u(CaseParams(1, mu), table).body)
    ek = engine.gen(table.e_gen(kappa))
    lifts = [engine.lift(fk, l, theta) for l in range(top + 1)]
    for l, lifted in enumerate(lifts):
        got = act(ek, VermaVector(lifted, mu), engine)
        want = VermaVector(lifts[l - 1] if l else {}, mu).scaled(l * (top - l))
        if got.body != want.body:
            return False, f"commutation fails at l={l}"
    return True, None


SELF_CHECKS = [
    ("jacobi", _st_jacobi, SMALLEST_CASES),
    ("rho", _st_rho, SMALLEST_CASES),
    ("associativity", _st_associativity, SMALLEST_CASES),
    ("division", _st_division, SMALLEST_CASES),
    ("candidate", _st_candidate, SMALLEST_CASES),
    ("scaling", _st_scaling, ("B-II:m=1,n=1",)),
    ("string", _st_string, ("B-I:m=1,n=1", "G3")),
    ("sl2", _st_sl2, ("B-I:m=2,n=1", "D-I:m=2,n=2")),
]


def cmd_selftest(args) -> int:
    if args.case is not None and args.case not in FAMILIES:
        raise InvalidParams(f"unknown case {args.case!r}")
    first_failure = None
    count = 0
    for name, fn, case_texts in SELF_CHECKS:
        for text in case_texts:
            case = CaseId.parse(text)
            if args.case is not None and case.family != args.case:
                continue
            try:
                ok, detail = fn(build_context(case), args.seed)
            except InvalidParams:
                raise
            except Exception as exc:
                raise PointFault(f"{name} {text} seed={args.seed}: {type(exc).__name__}: {exc}") from exc
            count += 1
            if args.json:
                print(json.dumps(
                    {"check": name, "case": text, "ok": ok, "detail": detail},
                    sort_keys=True,
                ))
            elif ok:
                print(f"ok   {name:14s} {text}")
            else:
                print(f"FAIL {name:14s} {text}  {detail}")
            if not ok and first_failure is None:
                first_failure = (name, text)
    if not args.json:
        if first_failure:
            print(f"{count} checks, first failure: {first_failure[0]} on {first_failure[1]}")
        else:
            print(f"{count} checks, all passed")
    return 1 if first_failure else 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superverma",
        description="Exact singular-vector verification for orthosymplectic"
        " and exceptional root systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="check candidate vectors over a grid")
    verify.add_argument("--case", required=True, help="family: " + ", ".join(FAMILIES))
    verify.add_argument("--m", help="grid for m, e.g. 2 or 1..3 or 1,3")
    verify.add_argument("--n", help="grid for n")
    verify.add_argument("--N", help="grid for the level N (default 1)")
    verify.add_argument("--M", help="grid for M with N = 2M+1")
    verify.add_argument("--lambda", dest="lam", help="explicit highest weight, comma-separated rationals")
    verify.add_argument("--seed", default="0", help="grid of seeds for weight generation")
    verify.add_argument(
        "--check",
        action="append",
        choices=CHECK_NAMES + ("all",),
        help="checks to run (repeatable; default all)",
    )
    verify.add_argument("--jobs", type=int, default=1, help="worker processes")
    verify.add_argument("--json", action="store_true", help="newline-delimited JSON records")

    orbit = sub.add_parser("orbit", help="propagate a singular vector along a reflection chain")
    orbit.add_argument("--case", required=True)
    orbit.add_argument("--m", help="m parameter")
    orbit.add_argument("--n", help="n parameter")
    orbit.add_argument("--C", default="1", help="grid for the level C along the target root")
    orbit.add_argument("--target", help="orbit target: index, or i,j pair for D-II")
    orbit.add_argument("--p", type=int, help="force the first-step pairing <mu, h_kappa>")
    orbit.add_argument("--seed", default="0", help="grid of seeds for weight generation")
    orbit.add_argument("--jobs", type=int, default=1, help="worker processes")
    orbit.add_argument("--json", action="store_true", help="newline-delimited JSON records")

    selftest = sub.add_parser("selftest", help="run the invariant suite")
    selftest.add_argument("--case", help="restrict to one family")
    selftest.add_argument("--seed", type=int, default=0)
    selftest.add_argument("--json", action="store_true")
    return parser


def _lift_digit_limit() -> None:
    """Let exact numbers of any size print in full (Python 3.11 caps int
    to str conversion at 4300 digits); --jobs workers run it too."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: it binds no command function and no
    mutable default (--check starts each parse from None), so parses share
    nothing."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    _lift_digit_limit()
    args = _parser().parse_args(argv)
    # looked up per call, so a command replaced at run time is the one run
    command = {"verify": cmd_verify, "orbit": cmd_orbit, "selftest": cmd_selftest}[args.command]
    try:
        code = command(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone: send what is still buffered nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a reader that went away
    except InvalidParams as exc:  # the only usage errors, ParityViolation among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PointFault as exc:
        print(f"internal error at {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # anything else is a fault of the program
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
