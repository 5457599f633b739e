"""Command line behavior: grids, determinism, exit codes."""

import contextlib
import copy
import functools
import importlib.util
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
from concurrent import futures
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superverma
from superverma import cli, singular
from superverma.cli import main, parse_grid
from superverma.pbw import NotDivisible, PBWEngine, WrongOrder
from superverma.rootdata import (
    FAMILIES, OSP_FAMILIES, CaseId, InvalidParams, IsotropicCoroot, ParityViolation, RootDataError,
)
from superverma.singular import Candidate, CaseParams, build_context, candidate, default_lambda
from superverma.superalgebra import ClosureFailure
from superverma.verma import SingularityReport, UnexpectedRaising, VermaVector
from helpers import with_pair_scaled


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_and_parses_share_nothing(monkeypatch):
    """main builds its parser once per process, runs the command bound to
    its name at call time, and one parse leaves nothing to the next: a
    repeated --check starts from a fresh list."""
    built, ran = [], []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "cmd_selftest", lambda args: ran.append(args) or 0)
    assert main(["selftest", "--case", "G3"]) == 0 == main(["selftest"])
    assert len(built) == 1
    assert [a.case for a in ran] == ["G3", None]
    first = cli._parser().parse_args(["verify", "--case", "G3", "--check", "nonzero"])
    second = cli._parser().parse_args(["verify", "--case", "G3", "--check", "witness"])
    third = cli._parser().parse_args(["verify", "--case", "G3"])
    assert (first.check, second.check, third.check) == (["nonzero"], ["witness"], None)
    assert len(built) == 1


def test_parse_grid_forms():
    assert parse_grid("2", "--N") == [2]
    assert parse_grid("1..3", "--N") == [1, 2, 3]
    assert parse_grid("3,1", "--N") == [1, 3]
    assert parse_grid("1,1..2", "--N") == [1, 2]
    with pytest.raises(InvalidParams):
        parse_grid("3..1", "--N")
    with pytest.raises(InvalidParams):
        parse_grid("", "--N")
    with pytest.raises(ValueError):
        parse_grid("x", "--N")


def test_verify_json_is_deterministic(capsys):
    args = ("verify", "--case", "D-I", "--m", "1", "--n", "2,3", "--N", "1..2",
            "--seed", "0,1", "--check", "singular", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    records = [json.loads(line) for line in out1.splitlines()]
    assert len(records) == 8
    keys = [(r["m"], r["n"], r["N"], r["seed"]) for r in records]
    assert keys == sorted(keys)
    assert all(r["ok"] and r["singular_ok"] and r["weight_ok"] for r in records)
    assert all("elapsed" not in k for r in records for k in r)


def test_verify_text_line_shape(capsys):
    code, out, _ = run(capsys, "verify", "--case", "B-I", "--m", "1", "--n", "1",
                       "--N", "1", "--check", "singular")
    assert code == 0
    assert "B-I:m=1,n=1" in out
    assert "singular=ok" in out
    assert "lambda=(1/2,2)" in out
    assert out.strip().endswith("total")


def test_verify_checks_limit_report_fields(capsys):
    code, out, _ = run(capsys, "verify", "--case", "G3", "--N", "1",
                       "--check", "nonzero", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["nonzero_ok"] and rec["weight_ok"]
    assert "singular_ok" not in rec and "witness_ok" not in rec


def test_verify_all_checks_once(capsys):
    code, out, _ = run(capsys, "verify", "--case", "B-II", "--m", "1", "--n", "1",
                       "--N", "2", "--json")
    rec = json.loads(out)
    assert code == 0
    assert rec["ok"]
    for key in ("nonzero_ok", "weight_ok", "singular_ok", "signflip_ok", "witness_ok"):
        assert rec[key] is True
    assert rec["counterexample"] is None
    assert rec["gamma"] == "e1"
    assert rec["witness_coefficients"][-1] == "1"


def test_level_parity_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--case", "B-I", "--m", "1", "--n", "1", "--N", "2")
    assert code == 2
    assert "odd level" in err
    code, _, err = run(capsys, "verify", "--case", "G3", "--N", "2")
    assert code == 2


def test_M_flag_matches_odd_N(capsys):
    code1, out1, _ = run(capsys, "verify", "--case", "G3", "--M", "1",
                         "--check", "singular", "--json")
    code2, out2, _ = run(capsys, "verify", "--case", "G3", "--N", "3",
                         "--check", "singular", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    code, _, err = run(capsys, "verify", "--case", "G3", "--N", "1", "--M", "0")
    assert code == 2
    assert "not both" in err


def test_explicit_lambda(capsys):
    code, out, _ = run(capsys, "verify", "--case", "B-II", "--m", "1", "--n", "1",
                       "--N", "1", "--lambda", "3,1/2", "--check", "singular", "--json")
    assert code == 0
    assert json.loads(out)["lambda"] == ["3", "1/2"]
    code, _, err = run(capsys, "verify", "--case", "B-II", "--m", "1", "--n", "1",
                       "--N", "1", "--lambda", "3,9")
    assert code == 2
    code, _, err = run(capsys, "verify", "--case", "B-II", "--m", "1", "--n", "1",
                       "--N", "1", "--lambda", "1/2")
    assert code == 2
    assert "--lambda '1/2'" in err
    for bad in ("x,2", "1,2,3", "1e5,2", "2,1E300000"):
        code, out, err = run(capsys, "verify", "--case", "B-I", "--m", "1", "--n", "1",
                             "--lambda", bad)
        assert (code, out) == (2, "")
        assert "--lambda" in err and repr(bad) in err
        assert ("exponent notation" in err) == ("e" in bad.lower())
    code, _, err = run(capsys, "verify", "--case", "B-II", "--m", "1", "--n", "1",
                       "--N", "1,2", "--lambda", "3,1/2")
    assert code == 2
    assert "single grid point" in err


def test_usage_errors(capsys):
    assert run(capsys, "verify", "--case", "X-9", "--N", "1")[0] == 2
    assert run(capsys, "verify", "--case", "B-I", "--N", "1")[0] == 2
    assert run(capsys, "verify", "--case", "F31", "--m", "1", "--n", "1", "--N", "1")[0] == 2
    assert run(capsys, "verify", "--case", "D-II", "--m", "1", "--n", "1", "--N", "1")[0] == 2
    assert run(capsys, "orbit", "--case", "F31")[0] == 2
    assert run(capsys, "orbit", "--case", "G3")[0] == 2
    assert run(capsys, "orbit", "--case", "B-I", "--m", "2", "--n", "1",
               "--target", "5")[0] == 2
    code, _, err = run(capsys, "orbit", "--case", "B-I", "--m", "2", "--n", "1", "--C", "2")
    assert code == 2
    assert "C=2" in err
    code, out, err = run(capsys, "orbit", "--case", "B-I", "--m", "1..2", "--n", "1")
    assert (code, out) == (2, "")
    assert "orbit takes a single case, but --m 1..2 --n 1 give 2" in err
    code, out, err = run(capsys, "verify", "--case", "B-I", "--m", "1", "--n", "1", "--M", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --M must be a nonnegative integer, got -1\n"
    code, _, err = run(capsys, "verify", "--case", "B-II", "--m", "1", "--n", "1",
                       "--lambda", "1/0,1")
    assert code == 2
    assert "zero denominator" in err
    assert "--lambda" in err and "'1/0,1'" in err
    for jobs in (("--jobs", "1"), ("--jobs", "2", "--seed", "0,1")):
        code, out, err = run(capsys, "orbit", "--case", "B-I", "--m", "1", "--n", "1",
                             "--p", "5", *jobs)
        assert (code, out) == (2, "")
        assert "--p" in err
    code, out, err = run(capsys, "orbit", "--case", "B-I", "--m", "2", "--n", "1", "--p", "0")
    assert (code, out, err) == (2, "", "error: p must be a positive integer\n")


BAD_NUMBERS = [  # (flag, value, argv with the bad value in it)
    ("--m", "a", ("verify", "--case", "B-I", "--m", "a", "--n", "1")),
    ("--n", "1..b", ("verify", "--case", "B-I", "--m", "1", "--n", "1..b")),
    ("--N", "x", ("verify", "--case", "G3", "--N", "x")),
    ("--M", "1,y", ("verify", "--case", "G3", "--M", "1,y")),
    ("--seed", "x", ("verify", "--case", "G3", "--seed", "x")),
    ("--C", "c", ("orbit", "--case", "B-I", "--m", "2", "--n", "1", "--C", "c")),
    ("--seed", "0..z", ("orbit", "--case", "B-I", "--m", "2", "--n", "1", "--seed", "0..z")),
    ("--target", "a", ("orbit", "--case", "B-I", "--m", "2", "--n", "1", "--target", "a")),
    ("--target", "1,b", ("orbit", "--case", "D-II", "--m", "2", "--n", "2", "--target", "1,b")),
    ("--target", "1,2,3", ("orbit", "--case", "D-II", "--m", "2", "--n", "3", "--target", "1,2,3")),
]


@pytest.mark.parametrize("flag,value,argv", BAD_NUMBERS,
                         ids=[f"{argv[0]}{flag}={value}" for flag, value, argv in BAD_NUMBERS])
def test_unparsable_number_names_its_flag(capsys, flag, value, argv):
    """A value that is not an integer, or a --target of more than two, is a
    usage error naming the flag and the value, not a bare int() message."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: cannot parse {flag} {value!r}\n"


OVERSIZED_RUNS = [
    ("--seed", ("verify", "--case", "G3", "--seed", "0..10000000000")),
    ("--m, --n", ("verify", "--case", "B-I", "--m", "1..400", "--n", "1..400")),
    ("--N, --seed", ("verify", "--case", "G3", "--N", "1..999", "--seed", "0..999")),
    ("--C, --seed", ("orbit", "--case", "B-I", "--m", "2", "--n", "1",
                     "--C", "1..999", "--seed", "0..999")),
]


@pytest.mark.parametrize("flags,argv", OVERSIZED_RUNS, ids=[flags for flags, _ in OVERSIZED_RUNS])
def test_oversized_grid_is_refused_at_once(capsys, flags, argv):
    """A run of more than MAX_GRID_POINTS grid points is a usage error
    naming its flags, given before any range is expanded or any point runs."""
    t0 = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - t0 < 5
    assert (code, out) == (2, "")
    assert re.fullmatch(
        rf"error: \d+ grid points from {flags}, more than the {cli.MAX_GRID_POINTS} a run may span\n",
        err,
    )


def test_grid_size_bound_is_inclusive():
    bound = cli.MAX_GRID_POINTS
    assert len(parse_grid(f"1..{bound}", "--seed")) == bound
    with pytest.raises(InvalidParams, match="--seed"):
        parse_grid(f"0..{bound}", "--seed")


@pytest.mark.parametrize("fault", [WrongOrder, NotDivisible, IsotropicCoroot, UnexpectedRaising],
                         ids=lambda cls: cls.__name__)
def test_internal_errors_exit_three(capsys, monkeypatch, fault):
    def broken(case):
        raise fault("the program broke its own invariant")

    monkeypatch.setattr(cli, "build_context", broken)
    code, out, err = run(capsys, "verify", "--case", "G3", "--N", "1")
    assert code == 3
    assert err == f"internal error at G3 N=1 seed=0: {fault.__name__}: the program broke its own invariant\n"


def test_unlisted_exception_is_an_internal_error(capsys, monkeypatch):
    """Only InvalidParams, ParityViolation among them, is a usage error: any other
    exception, here a KeyError deep in the witness check, exits 3 and
    names its class."""
    def broken(cand, alg):
        raise KeyError("no witness")

    monkeypatch.setattr(singular, "witness_spec", broken)
    code, out, err = run(capsys, "verify", "--case", "G3", "--N", "1", "--check", "witness")
    assert (code, out) == (3, "")
    assert err == "internal error at G3 N=1 seed=0: KeyError: 'no witness'\n"


def test_exact_numbers_of_any_size_print_in_full(capsys):
    """G3 at N = 100001 has witness coefficients of more than 4300 digits,
    Python's default cap on int to str conversion."""
    code, out, err = run(capsys, "verify", "--case", "G3", "--N", "100001", "--json")
    assert (code, err) == (0, "")
    rec = json.loads(out)
    assert rec["ok"]
    coefficient = Fraction(rec["candidate_coefficient"])
    assert len(str(coefficient.denominator)) > 4300
    assert str(coefficient) == rec["candidate_coefficient"]


OVERSIZED_CASES = [
    ("verify", "--case", "D-II", "--m", "300", "--n", "300", "--N", "1"),
    ("verify", "--case", "B-I", "--m", "1..20", "--n", "1", "--N", "1"),
    ("orbit", "--case", "D-I", "--m", "11", "--n", "10"),
]


@pytest.mark.parametrize("argv", OVERSIZED_CASES, ids=lambda argv: f"{argv[0]}-{argv[4]}-{argv[6]}")
def test_oversized_case_is_refused_before_set_up(capsys, monkeypatch, argv):
    """A case above MAX_CASE_DIM is a usage error naming --m and --n, given
    before any context is built."""
    def never(case):
        raise AssertionError(f"built {case.text}")

    monkeypatch.setattr(cli, "build_context", never)
    t0 = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - t0 < 5
    assert (code, out) == (2, "")
    assert re.fullmatch(
        rf"error: --m \d+ --n \d+ give \S+ of dimension \d+, more than the {cli.MAX_CASE_DIM} a case may have\n",
        err,
    )


@pytest.mark.parametrize("p", ["0", "-1"])
def test_orbit_p_below_one_is_refused_before_set_up(capsys, monkeypatch, p):
    """--p below 1 is a usage error given before any context is built, even
    for the largest case MAX_CASE_DIM allows."""
    def never(case):
        raise AssertionError(f"built {case.text}")

    monkeypatch.setattr(cli, "build_context", never)
    code, out, err = run(capsys, "orbit", "--case", "D-II", "--m", "10", "--n", "10", "--p", p)
    assert (code, out, err) == (2, "", "error: p must be a positive integer\n")


def test_case_size_bound_is_inclusive():
    args = cli.build_parser().parse_args(["verify", "--case", "D-II", "--m", "10", "--n", "10"])
    assert [c.dim for c in cli._case_grid(args)] == [cli.MAX_CASE_DIM]
    args.m = "11"
    with pytest.raises(InvalidParams, match="--m 11 --n 10"):
        cli._case_grid(args)


OVERSIZED_ODD_LEVELS = [
    (("verify", "--case", "B-I", "--m", "1", "--n", "1", "--N", "100000000000000000000001"),
     "B-I", "N=100000000000000000000001"),
    (("verify", "--case", "B-I", "--m", "1", "--n", "1", "--N", "1,1000003"), "B-I", "N=1000003"),
    (("verify", "--case", "G3", "--M", "500001"), "G3", "N=1000003"),
    (("orbit", "--case", "B-I", "--m", "2", "--n", "1", "--C", "1000003"), "B-I", "C=1000003"),
]


@pytest.mark.parametrize("argv, family, level", OVERSIZED_ODD_LEVELS, ids=lambda x: x if isinstance(x, str) else None)
def test_oversized_odd_level_is_refused_before_set_up(capsys, monkeypatch, argv, family, level):
    """An odd gamma's level above MAX_ODD_LEVEL, whose exact scalar
    (c/2)^(L div 2) would grow with L, is a usage error given before any
    context is built."""
    def never(case):
        raise AssertionError(f"built {case.text}")

    monkeypatch.setattr(cli, "build_context", never)
    t0 = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - t0 < 5
    assert (code, out) == (2, "")
    assert err == f"error: {family} has an odd gamma and takes a level of at most {singular.MAX_ODD_LEVEL}, got {level}\n"


def test_odd_level_bound_is_inclusive_and_spares_even_gammas():
    bound = singular.MAX_ODD_LEVEL
    singular.check_level(CaseId("B-I", 1, 1), bound, "N")
    with pytest.raises(InvalidParams, match=f"got C={bound + 2}$"):
        singular.check_level(CaseId("B-I", 1, 1), bound + 2, "C")
    for case in (CaseId("B-II", 1, 1), CaseId("D-I", 1, 2), CaseId("D-II", 1, 2), CaseId("F31")):
        singular.check_level(case, 10**30, "N")


REFUSED_LEVELS = [
    pytest.param(("verify", "--case", "B-I", "--m", "1", "--n", "1", "--N", "1,2"),
                 "B-I needs an odd level, got N=2", id="verify-B-I-N=1,2"),
    pytest.param(("verify", "--case", "B-I", "--m", "1", "--n", "1", "--N", "2,3"),
                 "B-I needs an odd level, got N=2", id="verify-B-I-N=2,3"),
    pytest.param(("verify", "--case", "G3", "--N", "1,2"), "G3 needs an odd level, got N=2", id="verify-G3-N=1,2"),
    pytest.param(("orbit", "--case", "B-I", "--m", "2", "--n", "1", "--C", "2,3"),
                 "B-I needs an odd level, got C=2", id="orbit-B-I-C=2,3"),
    pytest.param(("verify", "--case", "D-I", "--m", "1", "--n", "2", "--N", "0,1"),
                 "N must be a positive integer, got 0", id="verify-D-I-N=0,1"),
]


@pytest.mark.parametrize("argv, message", REFUSED_LEVELS)
def test_every_level_of_a_grid_is_checked_before_set_up(capsys, monkeypatch, argv, message):
    """A grid with one level that breaks the level rule, whether or not it
    is the largest, is a usage error given before any point runs and any
    context is built."""
    def never(case):
        raise AssertionError(f"built {case.text}")

    monkeypatch.setattr(cli, "build_context", never)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_library_checks_the_level_before_set_up(monkeypatch):
    """default_lambda applies the whole level rule, the odd-level bound
    included, before it builds a context; a parity error is a usage error."""
    def never(case):
        raise AssertionError(f"built {case.text}")

    monkeypatch.setattr(singular, "build_context", never)
    with pytest.raises(InvalidParams, match="at most"):
        default_lambda(CaseId("B-I", 1, 1), singular.MAX_ODD_LEVEL + 2, 0)
    assert issubclass(ParityViolation, InvalidParams)


def test_a_failed_root_lookup_is_an_internal_error(capsys, monkeypatch):
    """Every key root_of looks up is one the program computed, so a miss,
    here an odd factor's key dropped from the root data, exits 3 and names
    its grid point."""
    table = build_context(CaseId("D-I", 1, 2))
    (pivot,), block = singular._osp_shape(table.alg)
    key = pivot - block[0]
    at = {k: i for k, i in table.alg.at.items() if k != key}
    broken = copy.copy(table)
    broken.alg = table.alg._replace(at=at)
    monkeypatch.setattr(cli, "build_context", lambda case: broken)
    code, out, err = run(capsys, "verify", "--case", "D-I", "--m", "1", "--n", "2", "--N", "1")
    assert (code, out) == (3, "")
    assert err == f"internal error at D-I:m=1,n=2 N=1 seed=0: RootDataError: no positive root has lattice key {key}\n"


def test_a_failed_level_solve_is_an_internal_error(capsys, monkeypatch):
    """default_lambda solves <lambda, h_gamma> = N by one dot product and
    checks it with coroot_pairing; a solve that misses, here through a
    pairing off by one, exits 3 and names its grid point."""
    real = singular.pairing
    monkeypatch.setattr(singular, "pairing", lambda row, w: real(row, w) + 1)
    code, out, err = run(capsys, "verify", "--case", "D-I", "--m", "1", "--n", "2", "--N", "1")
    assert (code, out) == (3, "")
    assert err == ("internal error at D-I:m=1,n=2 N=1 seed=0: RootDataError:"
                   " solving <lambda, h_gamma> = 1 for D-I:m=1,n=2 failed\n")


def test_odd_factors_off_a_gamma_multiple_are_an_internal_error(capsys, monkeypatch):
    """The odd factors must sum to c * gamma; F31's list with its first
    factor dropped does not, so the candidate exits 3 naming its point."""
    monkeypatch.setattr(singular, "F31_FACTOR_ORDER", singular.F31_FACTOR_ORDER[1:])
    code, out, err = run(capsys, "verify", "--case", "F31", "--N", "1")
    assert (code, out) == (3, "")
    assert err == ("internal error at F31 N=1 seed=0: RootDataError:"
                   " the odd factors of F31 do not sum to a multiple of gamma\n")


def test_a_chain_weight_off_its_pairings_is_an_internal_error(capsys, monkeypatch):
    """chain_weight draws a weight whose every chain pairing is a positive
    integer; a chain that reflects twice in its first kappa pairs the second
    time to -p, so the orbit exits 3 and names its chain."""
    real = singular.chain_kappas
    monkeypatch.setattr(singular, "chain_kappas", lambda target, alg: real(target, alg)[:1] + real(target, alg))
    code, out, err = run(capsys, "orbit", "--case", "B-I", "--m", "2", "--n", "2", "--C", "1")
    assert (code, out) == (3, "")
    assert err == ("internal error at B-I:m=2,n=2 C=1 target=1 seed=0: RootDataError:"
                   " B-I:m=2,n=2: chain weight 5/2,1/2,-2,-3 pairs to -2 with d1-d2\n")


def test_chain_weight_refuses_a_p_below_one():
    """The CLI refuses --p below 1 before set-up; the library's chain_weight
    refuses it too, before it draws anything."""
    alg = build_context(CaseId("B-I", 2, 2)).alg
    kappas = singular.chain_kappas(1, alg)
    for p in (0, -1):
        with pytest.raises(InvalidParams, match="^p must be a positive integer$"):
            singular.chain_weight(1, kappas, 0, alg, p_first=p)
    assert singular.chain_weight(1, kappas, 0, alg, p_first=1)


def test_a_two_pivot_witness_ladder_holds(capsys):
    """D-II m=1 n=2 at N=2 has two pivots and a one-place block, so its
    ladder has one step of weight gamma times a power of f_gamma and the
    bare tail; both coefficients, and the candidate's, are pinned."""
    code, out, err = run(capsys, "verify", "--case", "D-II", "--m", "1", "--n", "2",
                         "--N", "2", "--check", "witness", "--json")
    rec = json.loads(out)
    assert (code, err) == (0, "")
    assert rec["witness_ok"] is True and rec["counterexample"] is None
    assert (rec["witness_coefficients"], rec["candidate_coefficient"]) == (["48", "1"], "48")


def test_a_small_verify_run_reports_every_flag_true(capsys):
    """verify D-II m=1 n=2 N=2 at every check exits 0 with each flag true.
    Each flag can fail: the mutation table's entries make this run exit 1
    with nonzero_ok false (a word of squared odd isotropic factors is 0)
    and with weight_ok false alone (a claimed drop of (N + 1) gamma)."""
    code, out, err = run(capsys, "verify", "--case", "D-II", "--m", "1", "--n", "2", "--N", "2", "--json")
    rec = json.loads(out)
    assert (code, err) == (0, "")
    flags = ("nonzero_ok", "weight_ok", "singular_ok", "signflip_ok", "witness_ok")
    assert {key: rec[key] for key in rec if key.endswith("_ok")} == dict.fromkeys(flags, True)
    assert rec["counterexample"] is None


def test_a_small_orbit_chain_reports_every_flag_true(capsys):
    """orbit B-I m=2 n=1, one reflection d2 -> d1, exits 0 with each flag
    true.  Each flag can fail: the mutation table's entries make this run
    exit 1 with the step's weight_ok false alone (theta' checked against
    the unreflected beta) and with final_ok false alone (a chain that stops
    one reflection short of its target)."""
    code, out, err = run(capsys, "orbit", "--case", "B-I", "--m", "2", "--n", "1", "--json")
    rec = json.loads(out)
    assert (code, err) == (0, "")
    assert (rec["start_singular"], rec["final_beta"], rec["final_ok"]) == (True, "d1", True)
    (step,) = rec["steps"]
    flags = ("start_singular", "lifted_singular", "image_singular", "weight_ok", "ok")
    assert {key: step[key] for key in flags} == dict.fromkeys(flags, True)


def script_module(name):
    """scripts/<name>.py as a module."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def dump_script():
    return script_module("dump_structure_constants")


def test_dump_script_refuses_an_oversized_case_before_set_up(capsys, monkeypatch):
    """build_context refuses a case above MAX_CASE_DIM before it builds any
    root data, so the structure-constant dump exits 2 at once."""
    def never(case):
        raise AssertionError(f"built {case.text}")

    monkeypatch.setattr(singular, "build_algebra_data", never)
    script = dump_script()
    t0 = time.monotonic()
    assert script.main(["D-II:m=12,n=12"]) == 2
    assert time.monotonic() - t0 < 1
    assert capsys.readouterr() == ("", (
        "error: cannot build D-II:m=12,n=12 of dimension 1152,"
        f" more than the {cli.MAX_CASE_DIM} a case may have\n"
    ))


@pytest.mark.parametrize("stage, error", [
    ("build_algebra_data", RootDataError("B-I:m=1,n=1: the simple roots are not a basis")),
    ("build_structure_constants", ClosureFailure("no simple generator detects d1")),
], ids=["root-data", "closure"])
def test_dump_script_reports_a_failed_build_as_an_internal_error(capsys, monkeypatch, stage, error):
    """Root data or a closure that fails its own check is a fault of the
    program, not a failed mathematical check: the dump prints it as the
    CLI does and exits 3, with no traceback and nothing on stdout."""
    def broken(*args):
        raise error

    monkeypatch.setattr(singular, "_CONTEXTS", {})
    monkeypatch.setattr(singular, stage, broken)
    assert dump_script().main(["B-I:m=1,n=1"]) == 3
    assert capsys.readouterr() == ("", f"internal error: {type(error).__name__}: {error}\n")


def run_python(*args, stdout=subprocess.DEVNULL, first=()):
    """``python args`` in a fresh interpreter that imports this superverma,
    with the directories first ahead of it on the path."""
    src = str(Path(superverma.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (*map(str, first), src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args],
                          stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=600)


def run_cli_process(*argv, stdout=subprocess.DEVNULL, first=()):
    """``python -m superverma argv`` in a fresh interpreter."""
    return run_python("-m", "superverma", *argv, stdout=stdout, first=first)


# the ways a worker process can start; "fork" is the default on Linux up to
# Python 3.13 and "forkserver" from 3.14
START_METHODS = ("spawn", "forkserver")


def start_workers_by(monkeypatch, method):
    """Make --jobs start its workers by method, for this test only: the CLI
    imports the pool from concurrent.futures when it starts workers."""
    context = multiprocessing.get_context(method)
    monkeypatch.setattr(futures, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=context))


def test_orbit_lift_has_no_recursion_per_unit():
    """A lift exponent of 1500 is straightened without recursing once per
    unit of it."""
    proc = run_cli_process("orbit", "--case", "B-I", "--m", "2", "--n", "1", "--p", "1500",
                           "--json", stdout=subprocess.PIPE)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout)
    assert rec["ok"]
    assert [s["p"] for s in rec["steps"]] == [1500]


# Runs the orbit command with the stack cut to a few frames above its entry.
SHALLOW_ORBIT = """
import sys
from superverma import cli

def shallow(args, run=cli.cmd_orbit):
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    sys.setrecursionlimit(depth + 8)
    return run(args)

cli.cmd_orbit = shallow
sys.exit(cli.main(["orbit", "--case", "B-I", "--m", "2", "--n", "1"]))
"""


def test_recursion_limit_is_an_internal_error():
    """Straightening recurses along a monomial's generators, so a stack that
    runs out is a fault of the program: exit 3 and no traceback."""
    proc = run_python("-c", SHALLOW_ORBIT)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith(b"internal error: RecursionError: ")
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("--case", "B-I", "--m", "1", "--n", "1", "--N", "2001"),
    ("--case", "D-II", "--m", "1", "--n", "2", "--N", "1500"),
], ids=lambda argv: argv[1])
def test_module_action_has_no_recursion_per_unit(argv):
    """A level in the thousands puts f_gamma^N in the candidate; acting on it
    must not recurse once per unit of the exponent."""
    proc = run_cli_process("verify", *argv, "--check", "singular", "--json",
                           stdout=subprocess.PIPE)
    assert proc.returncode == 0, proc.stderr
    assert b'"ok": true' in proc.stdout


def test_closed_stdout_exits_141_quietly():
    """The reader of stdout is gone before the first write reaches it."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_cli_process("selftest", "--case", "G3", "--json", stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert b"Traceback" not in proc.stderr


def test_orbit_json_chain(capsys):
    code, out, _ = run(capsys, "orbit", "--case", "D-II", "--m", "1", "--n", "3",
                       "--C", "1", "--target", "1,2", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["ok"] and rec["final_ok"]
    assert rec["final_beta"] == "e1+e2"
    assert rec["target"] == [1, 2]
    assert [s["beta_to"] for s in rec["steps"]] == ["e1+e3", "e1+e2"]
    assert all(s["ok"] for s in rec["steps"])


def test_orbit_default_target_and_p(capsys):
    code, out, _ = run(capsys, "orbit", "--case", "B-I", "--m", "2", "--n", "1",
                       "--p", "3", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["target"] == 1
    assert rec["steps"][0]["p"] == 3
    code, out, _ = run(capsys, "orbit", "--case", "D-II", "--m", "1", "--n", "2", "--json")
    assert code == 0
    assert json.loads(out)["target"] == [1, 2]


def test_orbit_grid_over_C(capsys):
    code, out, _ = run(capsys, "orbit", "--case", "D-I", "--m", "2", "--n", "2",
                       "--C", "1,2", "--json")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["C"] for r in recs] == [1, 2]
    assert all(r["ok"] for r in recs)


def test_parallel_jobs_match_serial(capsys, monkeypatch):
    """--jobs 2 prints what --jobs 1 prints, and a usage error out of a
    worker stays one, with workers started the default way and by each of
    START_METHODS."""
    verify = ("verify", "--case", "B-I", "--m", "1..2", "--n", "1", "--N", "1",
              "--check", "singular", "--json")
    orbit = ("orbit", "--case", "D-I", "--m", "2", "--n", "2", "--C", "1,2", "--json")
    _, serial, _ = run(capsys, *verify)
    _, chains, _ = run(capsys, *orbit)
    for method in (None, *START_METHODS):
        with monkeypatch.context() as patch:
            if method is not None:
                start_workers_by(patch, method)
            assert run(capsys, *verify, "--jobs", "2") == (0, serial, ""), method
            assert run(capsys, *orbit, "--jobs", "2") == (0, chains, ""), method
            code, out, err = run(capsys, "orbit", "--case", "B-I", "--m", "1", "--n", "1",
                                 "--p", "5", "--jobs", "2", "--seed", "0,1")
            assert (code, out) == (2, "") and "--p" in err, method


def test_orbit_builds_a_context_in_the_main_process_only_for_the_default_target(capsys, monkeypatch):
    """--target given, orbit under --jobs 2 builds no context in the main
    process, where only the default target needs one; each worker builds
    its own."""
    built, real, main_pid = [], cli.build_context, os.getpid()

    def counted(case):
        if os.getpid() == main_pid:
            built.append(case.text)
        return real(case)

    monkeypatch.setattr(cli, "build_context", counted)
    argv = ("orbit", "--case", "D-II", "--m", "1", "--n", "3", "--C", "1,2", "--jobs", "2", "--json")
    code, out, _ = run(capsys, *argv, "--target", "1,2")
    assert (code, built) == (0, [])
    recs = [json.loads(line) for line in out.splitlines()]
    assert [(r["C"], r["target"], r["ok"]) for r in recs] == [(1, [1, 2], True), (2, [1, 2], True)]
    assert run(capsys, *argv) == (0, out, "")
    assert built == ["D-II:m=1,n=3"]


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs inline."""

    sizes = []

    def __init__(self, max_workers, initializer=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def no_cpu_count():
    raise AssertionError("os.cpu_count called for a run of one worker")


def test_jobs_are_bounded_by_points_and_cpus(capsys, monkeypatch):
    monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(cli.os, "cpu_count", no_cpu_count)
    verify = ("verify", "--case", "B-I", "--m", "1", "--n", "1", "--N", "1,3",
              "--check", "nonzero", "--json")
    code, serial, _ = run(capsys, *verify)
    assert code == 0 and RecordingPool.sizes == []
    code, _, _ = run(capsys, *verify[:-5], "--N", "1", "--jobs", "64", "--json")
    assert code == 0 and RecordingPool.sizes == []
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    code, out, _ = run(capsys, *verify, "--jobs", "64")
    assert code == 0 and out == serial
    assert RecordingPool.sizes == [2]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, _, _ = run(capsys, "orbit", "--case", "B-II", "--m", "1", "--n", "2",
                     "--C", "1..3", "--jobs", "64", "--json")
    assert code == 0
    assert RecordingPool.sizes == [2, 2]
    for bad in ("0", "-1"):
        code, _, err = run(capsys, *verify, "--jobs", bad)
        assert code == 2 and "--jobs must be at least 1" in err
    assert RecordingPool.sizes == [2, 2]


# a --jobs 1 verify over two points, then the pool's modules it loaded
SERIAL_MODULES = """
import sys
from superverma import cli

code = cli.main(["verify", "--case", "B-I", "--m", "1", "--n", "1", "--N", "1,3", "--jobs", "1", "--json"])
print(code, sorted(m for m in sys.modules if m.partition(".")[0] in ("multiprocessing", "concurrent")))
"""


def test_one_job_loads_no_process_pool():
    """A run that starts no worker imports neither multiprocessing nor
    concurrent.futures."""
    proc = run_python("-c", SERIAL_MODULES, stdout=subprocess.PIPE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == b"0 []"


def test_grid_prints_each_record_as_it_completes(capsys, monkeypatch):
    """A point that breaks ends the run, after the points before it were
    printed."""
    real = cli._verify_point

    def second_breaks(job):
        if job[2] == 1:
            raise WrongOrder("the second point broke")
        return real(job)

    monkeypatch.setattr(cli, "_verify_point", second_breaks)
    code, out, err = run(capsys, "verify", "--case", "G3", "--N", "1", "--seed", "0,1",
                         "--check", "nonzero", "--json")
    assert code == 3
    assert err == "internal error at G3 N=1 seed=1: WrongOrder: the second point broke\n"
    assert [json.loads(line)["seed"] for line in out.splitlines()] == [0]


# installs a fault at N=3 and C=2 in every interpreter that finds it first on
# the path, worker processes included however they start; START_METHOD, if
# set, is how --jobs starts them
FAULTS = """
import functools
import multiprocessing
from concurrent import futures
from concurrent.futures import ProcessPoolExecutor

from superverma import cli
from superverma.singular import Candidate

START_METHOD = {method!r}
build, propagate = Candidate.build, cli.propagate_chain


def third_level_breaks(self, engine, *args, **kwargs):
    if self.params.N == 3:
        raise KeyError(99)
    return build(self, engine, *args, **kwargs)


def second_level_breaks(case, C, *args, **kwargs):
    if C == 2:
        raise KeyError(99)
    return propagate(case, C, *args, **kwargs)


Candidate.build = third_level_breaks
cli.propagate_chain = second_level_breaks
if START_METHOD is not None:
    context = multiprocessing.get_context(START_METHOD)
    futures.ProcessPoolExecutor = functools.partial(ProcessPoolExecutor, mp_context=context)
"""


@pytest.mark.parametrize("jobs", ["1", "2", *(f"2:{m}" for m in START_METHODS)])
def test_an_error_out_of_a_point_names_it(tmp_path, jobs):
    """An internal error out of one grid point names the point before the
    class and message, in the worker processes too, however they start; the
    exit code stays 3 and the points before it are printed.  The fault comes
    from a sitecustomize module, which every interpreter of the run imports,
    so workers that import the package afresh have it as well."""
    jobs, _, method = jobs.partition(":")
    (tmp_path / "sitecustomize.py").write_text(FAULTS.format(method=method or None))
    proc = run_cli_process("verify", "--case", "D-II", "--m", "1..2", "--n", "2",
                           "--N", "1,3", "--jobs", jobs, "--json",
                           stdout=subprocess.PIPE, first=[tmp_path])
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == b"internal error at D-II:m=1,n=2 N=3 seed=0: KeyError: 99\n"
    assert [json.loads(line)["N"] for line in proc.stdout.splitlines()] == [1]

    proc = run_cli_process("orbit", "--case", "D-II", "--m", "1", "--n", "2",
                           "--C", "1,2", "--target", "1,2", "--jobs", jobs, "--json",
                           stdout=subprocess.PIPE, first=[tmp_path])
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == b"internal error at D-II:m=1,n=2 C=2 target=(1, 2) seed=0: KeyError: 99\n"
    assert [json.loads(line)["C"] for line in proc.stdout.splitlines()] == [1]


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "all passed" in out
    assert "jacobi" in out and "sl2" in out
    code, out, _ = run(capsys, "selftest", "--case", "G3", "--json")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert {r["case"] for r in recs} == {"G3"}
    assert all(r["ok"] for r in recs)
    assert run(capsys, "selftest", "--case", "Z-1")[0] == 2


def test_failed_check_exits_one(capsys, monkeypatch):
    fake = SingularityReport(
        ok=False, nonzero=True, residuals=(("e1", 2),), failure=("e1", {(): 1})
    )
    monkeypatch.setattr(cli, "is_singular", lambda v, engine, settled=(): fake)
    code, out, _ = run(capsys, "verify", "--case", "B-I", "--m", "1", "--n", "1",
                       "--N", "1", "--check", "singular")
    assert code == 1
    assert "singular=FAIL" in out
    assert "counterexample: e_{e1} u = v+" in out


def spoil_candidate(monkeypatch, spoil):
    """Patch the CLI's candidate so that every vector it builds is passed
    through spoil(u, engine)."""
    real = cli.candidate

    def spoiled(params, alg):
        cand = real(params, alg)
        build = cand.build
        cand.build = lambda engine, *args, **kwargs: spoil(build(engine, *args, **kwargs), engine)
        return cand

    monkeypatch.setattr(cli, "candidate", spoiled)


@pytest.mark.parametrize("check", ["singular", "signflip", "witness"])
def test_zero_candidate_is_the_counterexample(capsys, monkeypatch, check):
    """A zero u fails whichever checks run, and always names u = 0."""
    spoil_candidate(monkeypatch, lambda u, engine: VermaVector({}, u.highest_weight))
    code, out, _ = run(capsys, "verify", "--case", "B-I", "--m", "1", "--n", "1",
                       "--N", "1", "--check", check, "--json")
    rec = json.loads(out)
    assert code == 1
    assert not rec["ok"]
    assert rec["counterexample"] == "u = 0"


def test_failed_signflip_exits_one(capsys, monkeypatch):
    """A tail one above the top of gamma's string, f_gamma^(N + c + 1),
    fails the sign-flip certificate's second premise: the check sees it in
    place of the candidate's tail, and the counterexample names the
    clashing pair and the nonzero image of its bracket."""
    real = cli.signflip_counterexample

    def above_the_top(cand, engine):
        ((g, e),) = cand.tail_ids
        raised = Candidate(cand.params, cand.odd, cand.odd_ids, (engine.table.powers[g, e + 1],))
        return real(raised, engine)

    monkeypatch.setattr(cli, "signflip_counterexample", above_the_top)
    code, out, _ = run(capsys, "verify", "--case", "D-II", "--m", "1", "--n", "2",
                       "--N", "1", "--check", "signflip")
    assert code == 1
    assert "signflip=FAIL" in out
    assert "counterexample: [e_{e2-d1}, e_{d1+e1}] f_{e1+e2}^4 v+ = 4 f_{e1+e2}^3 v+" in out, out


def tail_above_the_top(cand, table):
    """cand with its tail f_gamma^(N + c) raised to f_gamma^(N + c + 1), one
    above the top of gamma's string."""
    ((g, e),) = cand.tail_ids
    return Candidate(cand.params, cand.odd, cand.odd_ids, (table.powers[g, e + 1],))


def faulty_singular_point(capsys, monkeypatch, spoil, drop):
    """verify D-II m=1 n=2 N=1 (singular check) as JSON, its candidate
    replaced by spoil(cand, table) and the claimed drop moved by the lattice
    point drop, so that the weight check passes and the singular check's
    counterexample is the one named."""
    real, real_drop = cli.candidate, cli.claimed_drop
    monkeypatch.setattr(cli, "candidate", lambda params, table: spoil(real(params, table), table))
    monkeypatch.setattr(
        cli, "claimed_drop", lambda params, alg: tuple(a + b for a, b in zip(real_drop(params, alg), drop(alg)))
    )
    code, out, _ = run(capsys, "verify", "--case", "D-II", "--m", "1", "--n", "2",
                       "--N", "1", "--check", "singular", "--json")
    assert code == 1
    rec = json.loads(out)
    assert (rec["weight_ok"], rec["singular_ok"]) == (True, False)
    return rec


def test_a_tail_above_the_top_fails_the_singular_check(capsys, monkeypatch):
    """A tail one above the top of gamma's string, f_gamma^(N + c + 1): the
    roots the factor word settles, e2-d1 and 2d1, still read 0, as their
    premises hold for any power of f_gamma, and the open root e1-e2 is
    raised to a nonzero image, which is the counterexample."""
    rec = faulty_singular_point(capsys, monkeypatch, tail_above_the_top, lambda alg: alg.lattice[alg.gamma.index])
    assert rec["residuals"] == [["e1-e2", 1], ["e2-d1", 0], ["2d1", 0]]
    assert rec["counterexample"] == "e_{e1-e2} u = 24 f_{e2-d1} f_{d1+e2} f_{e1+e2} v+", rec["counterexample"]


def test_a_dropped_factor_fails_the_singular_check(capsys, monkeypatch):
    """With the first odd factor e_{e2-d1} dropped, after the full word's
    roots were settled on the same table: the shorter word settles its own
    roots, e1-e2 and 2d1, under its own factor ids, so e2-d1, which the full
    word annihilates, is raised and is the counterexample."""
    assert run(capsys, "verify", "--case", "D-II", "--m", "1", "--n", "2", "--N", "1", "--check", "singular")[0] == 0
    dropped = lambda cand, table: Candidate(cand.params, cand.odd[1:], cand.odd_ids[1:], cand.tail_ids)
    rec = faulty_singular_point(capsys, monkeypatch, dropped, lambda alg: alg.lattice[alg.as_index("e2-d1")])
    assert rec["residuals"] == [["e1-e2", 0], ["e2-d1", 5], ["2d1", 0]]
    assert rec["counterexample"].startswith("e_{e2-d1} u = "), rec["counterexample"]


def test_raise_settled_roots_script(capsys):
    """scripts/raise_settled_roots.py raises a verify point's u by each
    settled root and prints each image's term count; a level the case
    refuses is a usage error."""
    script = script_module("raise_settled_roots")
    assert script.main(["D-II:m=1,n=2", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "e2-d1 (annihilated): 0 terms",
        "2d1 (commuting): 0 terms",
        "D-II:m=1,n=2 N=1 seed=0: 2 of 3 simple roots settled, 0 with a nonzero image",
    ]
    assert script.main(["B-I:m=1,n=1", "2"]) == 2
    assert capsys.readouterr().err == "error: B-I needs an odd level, got N=2\n"


def test_raise_settled_roots_script_fails_on_a_nonzero_image(capsys, monkeypatch):
    """With every root taken as settled and the tail one above the top of
    gamma's string, the open root e1-e2 is raised to a nonzero image: the
    script prints it and exits 1."""
    script = script_module("raise_settled_roots")
    real = script.candidate
    monkeypatch.setattr(script, "candidate", lambda params, table: tail_above_the_top(real(params, table), table))
    monkeypatch.setattr(script, "settled_roots", lambda cand, table: dict.fromkeys(range(3), "assumed"))
    assert script.main(["D-II:m=1,n=2", "1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "e1-e2 (assumed): 1 terms",
        "e2-d1 (assumed): 0 terms",
        "2d1 (assumed): 0 terms",
        "D-II:m=1,n=2 N=1 seed=0: 3 of 3 simple roots settled, 1 with a nonzero image",
    ]


def test_raise_settled_roots_script_reports_an_internal_error(capsys, monkeypatch):
    """A fault of the program out of the script's raise exits 3 with the
    one stderr line the superverma command prints, and no traceback."""
    script = script_module("raise_settled_roots")

    def broken(cand, table):
        raise KeyError(99)

    monkeypatch.setattr(script, "settled_roots", broken)
    assert script.main(["D-II:m=1,n=2", "1"]) == 3
    assert capsys.readouterr() == ("", "internal error: KeyError: 99\n")


@pytest.mark.parametrize("fault, code, err", [
    (InvalidParams("B-I:m=1,n=1 is refused"), 2, "error: B-I:m=1,n=1 is refused\n"),
    (RootDataError("the simple roots are not a basis"), 3,
     "internal error: RootDataError: the simple roots are not a basis\n"),
], ids=["usage", "internal"])
def test_one_fault_exits_alike_through_the_command_and_each_script(capsys, monkeypatch, fault, code, err):
    """The command and both scripts run through cli.guard: a fault raised
    while B-I m=1 n=1 is set up, outside any grid point (orbit builds the
    case to find its default target), gives each the same exit code and
    stderr line, and nothing on stdout."""
    def broken(case):
        raise fault

    monkeypatch.setattr(singular, "_CONTEXTS", {})
    monkeypatch.setattr(singular, "build_algebra_data", broken)
    runs = {
        "superverma": lambda: main(["orbit", "--case", "B-I", "--m", "1", "--n", "1"]),
        "dump_structure_constants": lambda: dump_script().main(["B-I:m=1,n=1"]),
        "raise_settled_roots": lambda: script_module("raise_settled_roots").main(["B-I:m=1,n=1", "1"]),
    }
    for name, call in runs.items():
        assert (name, call(), *capsys.readouterr()) == (name, code, "", err)


@pytest.mark.parametrize("script, argv", [
    pytest.param("dump_structure_constants", ("G3",), id="dump_structure_constants"),
    pytest.param("raise_settled_roots", ("G3", "1"), id="raise_settled_roots"),
    pytest.param("run_grid", ("--seed", "0", "--check", "nonzero"), id="run_grid"),
])
def test_closed_stdout_exits_141_quietly_through_each_script(script, argv):
    """The scripts share the command's guard: a reader of stdout gone before
    the first write reaches it gives exit 141 and no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{script}.py"
    try:
        proc = run_python(str(path), *argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert proc.stderr == b""


def test_a_factor_in_two_clashing_pairs_is_the_counterexample(capsys, monkeypatch):
    """With the bracket table patched so that the first odd factor clashes
    with a second factor beside its own partner, the clashing pairs are not
    disjoint: the check fails and names the shared factor.  The patched
    table is this test's own, so no cache of it outlives the test."""
    monkeypatch.setattr(singular, "_CONTEXTS", {})
    case = CaseId.parse("D-II:m=1,n=2")
    table = build_context(case)
    ids = candidate(CaseParams(1, default_lambda(case, 1, 0)), table).odd_ids
    first = ids[0]
    partner = next(y for y in ids if table.bracket(first, y))
    extra = next(y for y in ids[1:] if y != partner)
    real = table.bracket

    def clashing_twice(x, y):
        if {x, y} == {first, extra}:
            return real(first, partner)
        return real(x, y)

    monkeypatch.setattr(table, "bracket", clashing_twice)
    code, out, _ = run(capsys, "verify", "--case", "D-II", "--m", "1", "--n", "2",
                       "--N", "1", "--check", "signflip", "--json")
    rec = json.loads(out)
    assert code == 1
    assert rec["signflip_ok"] is False
    basis = table.basis
    others = " and ".join(basis[g].name for g in sorted((partner, extra), key=ids.index))
    assert rec["counterexample"] == f"factor {basis[first].name} clashes with {others}"


def test_a_sign_flipped_order_passes(capsys):
    """At B-I m=n=1 N=1 seed 0, K = 2, and the one other order, the swapped
    one, gives -u: a sign flip passes."""
    case = CaseId.parse("B-I:m=1,n=1")
    table = build_context(case)
    cand = candidate(CaseParams(1, default_lambda(case, 1, 0)), table)
    engine = PBWEngine(table)
    u = cand.build(engine)
    assert cand.build(engine, cand.odd_ids[::-1]).body == {m: -c for m, c in u.body.items()}
    code, out, _ = run(capsys, "verify", "--case", "B-I", "--m", "1", "--n", "1",
                       "--N", "1", "--check", "signflip", "--json")
    assert code == 0
    assert json.loads(out)["signflip_ok"]


@pytest.mark.parametrize("rows, first, counterexample", [
    (((1, 3), (2, 0)), 5, "witness step 2 coefficient 0"),
    (((1, 3), (2, -1)), 0, "candidate misses the first witness monomial"),
])
def test_failed_witness_exits_one(capsys, monkeypatch, rows, first, counterexample):
    """A witness report with a zero step coefficient names that step; one
    whose rows are all ok names the candidate's missing first monomial."""
    report = singular.WitnessReport(
        tuple(singular.WitnessRow(label, c, True) for label, c in rows), first
    )
    monkeypatch.setattr(cli, "run_witness", lambda cand, table: report)
    code, out, _ = run(capsys, "verify", "--case", "B-I", "--m", "1", "--n", "1",
                       "--N", "1", "--check", "witness")
    assert code == 1
    assert "witness=FAIL" in out
    assert f"counterexample: {counterexample}" in out, out


@pytest.mark.parametrize("spoil", ["mixed", "shifted"])
def test_failed_weight_exits_one(capsys, monkeypatch, spoil):
    """A candidate body with a stray monomial of another weight, or shifted
    by one lowering generator, fails the weight check with a readable
    counterexample instead of an internal error."""

    def spoiled(u, engine):
        if spoil == "mixed":
            body = {**u.body, (): 1}
        else:
            body = engine.multiply(engine.gen(0), u.body)
        return VermaVector(body, u.highest_weight)

    spoil_candidate(monkeypatch, spoiled)
    code, out, err = run(capsys, "verify", "--case", "B-I", "--m", "1", "--n", "1",
                         "--N", "1", "--check", "nonzero")
    assert code == 1, err
    assert "weight=FAIL" in out
    if spoil == "mixed":
        assert "counterexample: body of u: mixed weights (-1,0), (0,0)" in out, out
    else:
        assert re.search(r"counterexample: weight_of\(u\) = \([-\d/,]+\), expected \(", out), out
    assert "Fraction" not in out


def test_selftest_mixed_candidate_fails(capsys, monkeypatch):
    spoil_candidate(monkeypatch, lambda u, engine: VermaVector({**u.body, (): 1}, u.highest_weight))
    code, out, _ = run(capsys, "selftest", "--case", "B-I")
    assert code == 1
    assert "FAIL candidate      B-I:m=1,n=1  body of u: mixed weights (-1,0), (0,0)" in out, out


def test_selftest_failure_named(capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_jacobi", lambda table: type(
        "R", (), {"ok": False, "first_violation": "forced"}
    )())
    code, out, _ = run(capsys, "selftest", "--case", "F31")
    assert code == 1
    assert "FAIL jacobi" in out
    assert "first failure: jacobi" in out


@pytest.mark.parametrize("fault, code, err", [
    (KeyError(99), 3, "internal error at associativity B-I:m=1,n=1 seed=0: KeyError: 99\n"),
    (InvalidParams("no such level"), 2, "error: no such level\n"),
], ids=["internal", "usage"])
def test_selftest_error_names_its_check_and_case(capsys, monkeypatch, fault, code, err):
    """An exception inside a selftest check exits 3 and names the check, the
    case and the seed before its class and message, after the lines of the
    checks before it; an InvalidParams out of a check stays a usage error."""
    def broken(table, seed):
        raise fault

    checks = [(name, broken if name == "associativity" else fn, texts) for name, fn, texts in cli.SELF_CHECKS]
    monkeypatch.setattr(cli, "SELF_CHECKS", checks)
    got = run(capsys, "selftest", "--case", "B-I")
    assert got == (code, "ok   jacobi         B-I:m=1,n=1\nok   rho            B-I:m=1,n=1\n", err)


def damaged_b2_context(case, real=cli.build_context):
    """build_context, but for B-II with [e_{d_m}, f_{d_m}] and its transpose,
    a Cartan-valued relation of the reference list, scaled by 3."""
    table = real(case)
    if case.family != "B-II":
        return table
    d = f"d{case.m}"
    return with_pair_scaled(table, table.e_gen(d), table.f_gen(d), 3)


def multiply_dropping_a_term(self, x, y, real=PBWEngine.multiply):
    """The product with its first term left out when it has two or more."""
    out = real(self, x, y)
    if len(out) > 1:
        del out[next(iter(out))]
    return out


@pytest.mark.parametrize("fault, failures", [
    ("division", [r"FAIL division       B-I:m=1,n=1  trial 0"]),
    ("act", [r"FAIL string         B-I:m=1,n=1  string fails at power \d+",
             r"FAIL sl2            B-I:m=2,n=1  commutation fails at l=\d+"]),
    ("scaling", [r"FAIL jacobi         B-II:m=1,n=1  Jacobi fails for \(f_\{e1\}, f_\{d1\}, e_\{d1\+e1\}\)",
                 r"FAIL associativity  B-II:m=1,n=1  triple \[10, 10, 3\]",
                 r"FAIL candidate      B-II:m=1,n=1  e_\{d1\} u = 48 f_\{e1-d1\} v\+",
                 r"FAIL scaling        B-II:m=1,n=1  \[e_\{e1-d1\}, f_\{e1\}\] = f_\{d1\}"
                 r" cannot be rescaled onto the reference list;"
                 r" its scales were solved from \[e_\{e1-d1\}, f_\{e1-d1\}\], \[e_\{d1\}, f_\{d1\}\]"]),
    ("multiply", [r"FAIL associativity  B-I:m=1,n=1  triple \[11, 8, 3\]"]),
])
def test_selftest_names_each_failed_check(capsys, monkeypatch, fault, failures):
    """A right division that returns 0 fails the division check; a module
    action that doubles every image fails the raising string and the sl2
    commutation; a B-II table with one Cartan-valued reference relation
    scaled fails the reference scaling, whose detail names the scaled
    relation as the source of a scale (and Jacobi, associativity and the
    candidate); a product that drops a term fails associativity.  Each
    failure is printed with its detail."""
    family = "B-I"
    if fault == "division":
        monkeypatch.setattr(PBWEngine, "right_divide", lambda self, x, bid, p: {})
    elif fault == "act":
        monkeypatch.setattr(cli, "act", lambda x, v, engine, real=cli.act: real(x, v, engine).scaled(2))
    elif fault == "scaling":
        monkeypatch.setattr(cli, "build_context", damaged_b2_context)
        family = "B-II"
    else:
        monkeypatch.setattr(PBWEngine, "multiply", multiply_dropping_a_term)
    code, out, _ = run(capsys, "selftest", "--case", family)
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == len(failures), out
    for line, pattern in zip(fails, failures):
        assert re.fullmatch(pattern, line), line


# the CLI grammar: small valid values, so that every accepted run stays
# small, and at most one spoilt token per argv, often an exponent form
VALID = {
    "verify": {
        "--N": ("1", "2", "3", "1..2"),
        "--M": ("0", "1"),
        "--seed": ("0", "1", "0..1"),
        "--check": cli.CHECK_NAMES + ("all",),
        "--jobs": ("1",),
    },
    "orbit": {
        "--C": ("1", "2", "3", "1..2"),
        "--target": ("1", "2", "1,2"),
        "--p": ("1", "2", "3"),
        "--seed": ("0", "1", "0..1"),
        "--jobs": ("1",),
    },
    "selftest": {"--seed": ("0", "1")},
}
INVALID = ("0", "-1", "x", "", "1e1", "2E0", "1e300000", "2..1", "1,e")
LAMBDA_COORDS = ("0", "1", "-1", "1/2", "3/2", "-5/2", "0.5", "1e5", "2E3", "3/0", "x")


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(VALID)))
    argv = [command]
    rank = 0
    if command != "selftest" or draw(st.booleans()):
        case = draw(st.sampled_from(FAMILIES))
        argv += ["--case", case]
        rank = {"F31": 4, "G3": 3}.get(case, 0)
        if case in OSP_FAMILIES and command != "selftest":
            m, n = draw(st.integers(1, 2)), draw(st.integers(1, 3))
            argv += ["--m", str(m), "--n", str(n)]
            rank = m + n
    flags = dict(VALID[command])
    if command == "verify":
        del flags[draw(st.sampled_from(("--N", "--M")))]
    for flag, values in flags.items():
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
    if command == "verify" and draw(st.booleans()):
        size = draw(st.sampled_from((rank, rank, 1)))
        argv += ["--lambda", ",".join(draw(st.lists(st.sampled_from(LAMBDA_COORDS), min_size=size, max_size=size)))]
    if draw(st.booleans()):
        argv.append("--json")
    spoil = draw(st.sampled_from(("none", "none", "value", "value", "drop", "extra")))
    values = [i for i in range(2, len(argv)) if argv[i - 1].startswith("--")]
    if spoil == "value" and values:
        argv[draw(st.sampled_from(values))] = draw(st.sampled_from(INVALID))
    elif spoil == "drop" and len(argv) > 1:
        del argv[draw(st.integers(1, len(argv) - 1))]
    elif spoil == "extra":
        argv.append(draw(st.sampled_from(("--bogus", "1", "--N", "--case"))))
    return argv


@settings(max_examples=60, deadline=None, derandomize=True)
@given(argv=argvs())
def test_any_argv_exits_with_a_documented_code(argv):
    """Whatever argv the grammar gives, main exits 0, 1, 2 (argparse's exit
    counted) or 3, never with a traceback, and exits 1 only with the
    failed record and, for verify, its counterexample."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert err.startswith(("error: ", "usage: ")), (argv, err)
    if code != 1:
        return
    if "--json" not in argv:
        assert "FAIL" in out, (argv, out)
        assert argv[0] != "verify" or "counterexample: " in out, (argv, out)
        return
    failed = [r for r in map(json.loads, out.splitlines()) if not r["ok"]]
    assert failed, (argv, out)
    assert argv[0] != "verify" or all(r["counterexample"] for r in failed), (argv, out)
