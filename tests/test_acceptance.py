"""Acceptance suite: one test per advertised criterion, exact arithmetic only.

Every assertion is an equality of Fraction-valued data; there are no
tolerances anywhere.  Each test prints a one-line summary on success so a
verbose run reads as a checklist.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from superverma.cli import main as cli_main
from superverma.pbw import el_one
from helpers import basis_weight, el_add, el_scale, el_sub, el_zero, form
from superverma.rootdata import CaseId, ParityViolation, wdiff, wsum
from superverma.singular import (
    CaseParams,
    build_context,
    candidate,
    candidate_u,
    chain_kappas,
    chain_weight,
    claimed_drop,
    default_lambda,
    propagate_chain,
    run_witness,
)
from superverma.superalgebra import check_jacobi, check_reference_scaling
from superverma.verma import (
    VermaVector,
    act,
    highest_weight_vector,
    is_singular,
    weight_of,
)

SEEDS = (0, 1, 2)

SMALLEST = {
    "B-I:m=1,n=1": 1,
    "B-II:m=1,n=1": 1,
    "D-I:m=1,n=2": 1,
    "D-II:m=1,n=2": 1,
    "F31": 1,
    "G3": 1,
}


def full_grid():
    for m in (1, 2):
        for n in (1, 2):
            for N in (1, 3):
                yield f"B-I:m={m},n={n}", N
            for N in (1, 2, 3):
                yield f"B-II:m={m},n={n}", N
        for n in (2, 3):
            for N in (1, 2):
                yield f"D-I:m={m},n={n}", N
                yield f"D-II:m={m},n={n}", N
    for N in (1, 2, 3):
        yield "F31", N
    for N in (1, 3):
        yield "G3", N


def grid_cases():
    return sorted({text for text, _ in full_grid()})


def test_criterion_1_candidates_on_full_grid():
    t0 = time.monotonic()
    points = 0
    for text, N in full_grid():
        case = CaseId.parse(text)
        ctx = build_context(case)
        engine = ctx.default_engine
        for seed in SEEDS:
            lam = default_lambda(case, N, seed, ctx.alg)
            params = CaseParams(case, N, lam)
            u = candidate_u(params, ctx)
            assert not u.is_zero(), (text, N, seed)
            expected = wdiff(wdiff(lam, ctx.alg.rho), ctx.alg.from_lattice(claimed_drop(params, ctx.alg)))
            assert weight_of(u, engine) == expected, (text, N, seed)
            report = is_singular(u, engine)
            assert report.ok, (text, N, seed, report.residuals)
            points += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    print(f"criterion 1 PASS: {points} grid points nonzero, on-weight, singular ({elapsed:.1f}s)")


def test_criterion_2_witness_coefficients():
    checked = 0
    for text, levels in (("F31", (1,)), ("G3", (1, 3))):
        case = CaseId.parse(text)
        ctx = build_context(case)
        for N in levels:
            lam = default_lambda(case, N, 0, ctx.alg)
            report = run_witness(candidate(CaseParams(case, N, lam), ctx), ctx)
            assert report.candidate_coefficient != 0, (text, N)
            for row in report.rows:
                assert row.coefficient != 0, (text, N, row.label)
                assert row.weight_ok, (text, N, row.label)
            checked += len(report.rows) + 1
    print(f"criterion 2 PASS: {checked} witness coefficients nonzero in the printed bases")


def test_criterion_3_odd_factor_permutations():
    trials = 0
    for text, N in SMALLEST.items():
        case = CaseId.parse(text)
        ctx = build_context(case)
        lam = default_lambda(case, N, 0, ctx.alg)
        params = CaseParams(case, N, lam)
        u = candidate_u(params, ctx)
        neg = {mono: -c for mono, c in u.body.items()}
        cand = candidate(params, ctx)
        ids = cand.odd_ids
        for trial in range(20):
            rng = random.Random(f"acceptance:flip:{text}:{trial}")
            perm = list(range(len(ids)))
            rng.shuffle(perm)
            w = cand.build(ctx.default_engine, [ids[i] for i in perm])
            assert w.body == u.body or w.body == neg, (text, perm)
            trials += 1
    print(f"criterion 3 PASS: {trials} permutations each changed u by a factor in {{+1, -1}}")


CHAINS = (
    ("D-I:m=3,n=2", 1, 1, "2d1"),
    ("D-I:m=3,n=2", 2, 1, "2d1"),
    ("B-I:m=3,n=1", 1, 1, "d1"),
    ("B-I:m=3,n=1", 3, 1, "d1"),
    ("B-II:m=1,n=3", 1, 1, "e1"),
    ("B-II:m=1,n=3", 2, 1, "e1"),
    ("D-II:m=1,n=3", 1, (1, 2), "e1+e2"),
    ("D-II:m=1,n=3", 2, (1, 2), "e1+e2"),
)


def test_criterion_4_orbit_chains():
    steps = 0
    for text, C, target, final_name in CHAINS:
        case = CaseId.parse(text)
        ctx = build_context(case)
        report = propagate_chain(case, C, target, seed=0, ctx=ctx)
        assert report.start_singular, (text, C)
        assert report.final_ok and report.final_beta == final_name, (text, C)
        for step in report.steps:
            # right_divide refuses a lifted monomial that is not theta' f^p
            # in normal form; the flags certify singularity around each lift
            assert step.ok, (text, C, step)
            steps += 1
    print(f"criterion 4 PASS: {len(CHAINS)} chains, {steps} reflection steps, all lifts singular")


def _string_identity(ctx, lam, powers):
    alg = ctx.alg
    table = ctx.table
    engine = ctx.default_engine
    g = alg.gamma
    T = table.bracket(table.e_gen(g), table.f_gen(g))
    tau = table.h_value_pairing(T, wdiff(lam, alg.rho))
    s = table.h_value_pairing(T, g.weight)
    fg = table.f_gen(g)
    eg = engine.gen(table.e_gen(g))
    for j in powers:
        cur = act(engine.gen(fg, j), highest_weight_vector(lam), engine)
        got = act(eg, cur, engine)
        k = j // 2
        coeff = (tau - k * s) if j % 2 else (-k * s)
        want = act(engine.gen(fg, j - 1), highest_weight_vector(lam), engine).scaled(coeff)
        assert got.body == want.body, j


def test_criterion_5_exact_identity_suite():
    # alternating string for powers of the odd nonisotropic generator, k <= 4
    for text in ("B-I:m=1,n=1", "G3"):
        ctx = build_context(CaseId.parse(text))
        _string_identity(ctx, default_lambda(ctx.alg.case, 1, 0, ctx.alg), range(1, 10))
    # the string coefficient vanishes exactly at the candidate's tail exponent
    ctx = build_context(CaseId.parse("B-I:m=1,n=2"))
    engine = ctx.default_engine
    lam = default_lambda(ctx.alg.case, 3, 0, ctx.alg)
    g = ctx.alg.gamma
    tail = act(engine.gen(ctx.table.f_gen(g), 3 + 2 * 2), highest_weight_vector(lam), engine)
    assert not tail.is_zero()
    assert act(engine.gen(ctx.table.e_gen(g)), tail, engine).is_zero()

    # sl2 commutation along a reflection, l <= p + 2C <= 8
    case = CaseId.parse("D-I:m=2,n=2")
    ctx = build_context(case)
    alg = ctx.alg
    kappa = chain_kappas(1, alg)[0]
    for C, p in ((1, 2), (2, 4)):
        mu = chain_weight(C, [kappa], seed=0, alg=alg, p_first=p)
        top = p + 2 * C
        assert top <= 8
        fk = ctx.table.f_gen(kappa)
        engine = ctx.engine(tail=(fk,))
        theta = engine.import_element(candidate_u(CaseParams(case, C, mu), ctx).body)
        ek = engine.gen(ctx.table.e_gen(kappa))
        for l in range(top + 1):
            lifted = VermaVector(engine.multiply(engine.gen(fk, l), theta), mu)
            got = act(ek, lifted, engine)
            want = (
                VermaVector(engine.multiply(engine.gen(fk, l - 1), theta), mu).scaled(l * (top - l))
                if l
                else VermaVector({}, mu)
            )
            assert got.body == want.body, (C, l)

    # odd squares collapse onto the doubled root with a nonzero constant
    for text, odd_name, doubled in (
        ("B-I:m=1,n=1", "d1", "2d1"),
        ("B-II:m=1,n=1", "d1", "2d1"),
        ("G3", "D", "2D"),
    ):
        ctx = build_context(CaseId.parse(text))
        table = ctx.table
        engine = ctx.default_engine
        fo = table.f_gen(odd_name)
        sq = engine.multiply(engine.gen(fo), engine.gen(fo))
        target = table.f_gen(doubled)
        assert set(sq) == {((target, 1),)}
        assert sq[((target, 1),)] != 0

    # binomial expansion of an even power past an element, l <= 6
    ctx = build_context(CaseId.parse("B-I:m=2,n=1"))
    table = ctx.table
    kappa = table.f_gen("d1-d2")
    engine = ctx.engine(tail=(kappa,))
    theta = engine.multiply(engine.gen(table.f_gen("d2-e1")), engine.gen(table.f_gen("e1")))
    fk_one = engine.gen(kappa)

    def ad(u):
        return el_sub(engine.multiply(fk_one, u), engine.multiply(u, fk_one))

    for l in range(7):
        lhs = engine.multiply(engine.gen(kappa, l), theta)
        rhs = el_zero()
        term = theta
        for i in range(l + 1):
            rhs = el_add(rhs, el_scale(engine.multiply(term, engine.gen(kappa, l - i)), math.comb(l, i)))
            term = ad(term)
        assert lhs == rhs, l
    print("criterion 5 PASS: string, sl2, odd-square, and binomial identities hold exactly")


def test_criterion_6_structure_integrity():
    algebras = 0
    for text in grid_cases():
        ctx = build_context(CaseId.parse(text))
        report = check_jacobi(ctx.table)
        assert report.ok, (text, report.first_violation)
        alg = ctx.alg
        for s in alg.simple_system:
            if s.isotropic:
                assert form(alg, alg.rho, s.weight) == 0, (text, s.name)
            else:
                assert alg.coroot_pairing(alg.rho, s) == 1, (text, s.name)
        algebras += 1
    rescalings = 0
    for m in (1, 2):
        for n in (1, 2):
            ctx = build_context(CaseId.parse(f"B-II:m={m},n={n}"))
            report = check_reference_scaling(ctx.table)
            assert report.ok, (m, n, report.detail)
            assert all(c != 0 for c in report.scales.values())
            rescalings += 1
    print(
        f"criterion 6 PASS: {algebras} bracket tables closed under the graded"
        f" identities; {rescalings} reference rescalings matched"
    )


def test_criterion_7_engine_properties():
    assoc = div = 0
    for text in SMALLEST:
        ctx = build_context(CaseId.parse(text))
        engine = ctx.default_engine
        rng = random.Random(f"acceptance:engine:{text}")
        for _ in range(200):
            x, y, z = (engine.gen(rng.randrange(ctx.table.dim)) for _ in range(3))
            left = engine.multiply(engine.multiply(x, y), z)
            right = engine.multiply(x, engine.multiply(y, z))
            assert left == right
            assoc += 1
        for _ in range(10):
            el = el_one()
            for _ in range(3):
                el = engine.multiply(el, engine.gen(rng.randrange(ctx.table.n_pos)))
            assert engine.import_element(el) == el
            gid = rng.randrange(ctx.table.n_pos)
            other = engine.multiply(el, engine.gen(gid))
            if el and other:
                assert engine.element_weight(other) == wsum(
                    engine.element_weight(el), basis_weight(ctx.table, gid)
                )
        bid = ctx.table.f_gen(next(r for r in ctx.alg.pos_roots if not r.odd))
        tailed = ctx.engine(tail=(bid,))
        for _ in range(17):
            theta = el_one()
            for _ in range(2):
                theta = tailed.multiply(theta, tailed.gen(rng.randrange(ctx.table.n_pos)))
            p = rng.randint(1, 3)
            x = tailed.multiply(theta, tailed.gen(bid, p))
            assert tailed.right_divide(x, bid, p) == theta
            div += 1
    assert div >= 100
    print(
        f"criterion 7 PASS: {assoc} associativity triples, normal-form idempotence,"
        f" weight additivity, {div} quotients of theta f^p equal to theta"
    )


def test_criterion_8_negative_controls():
    # parity gates, both through the library and the command line
    for text in ("B-I:m=1,n=1", "G3"):
        case = CaseId.parse(text)
        with pytest.raises(ParityViolation):
            default_lambda(case, 2, 0)
    assert cli_main(["verify", "--case", "B-I", "--m", "1", "--n", "1", "--N", "2"]) == 2
    assert cli_main(["verify", "--case", "G3", "--N", "4"]) == 2

    # a generic lowering vector is not singular and names its residual
    ctx = build_context(CaseId.parse("B-I:m=1,n=1"))
    engine = ctx.default_engine
    lam = (Fraction(1), Fraction(1, 3))
    v = act(engine.gen(ctx.table.f_gen("e1")), highest_weight_vector(lam), engine)
    report = is_singular(v, engine)
    assert report.nonzero and not report.ok
    assert ("e1", 1) in report.residuals
    residual = act(engine.gen(ctx.table.e_gen("e1")), v, engine)
    assert residual.body == {(): Fraction(-1, 3)}

    # the zero vector is never singular
    assert not is_singular(VermaVector({}, lam), engine).ok
    print("criterion 8 PASS: parity violations exit 2; non-singular vectors certify a residual")
