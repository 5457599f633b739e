"""Candidate vector construction and parameter handling."""

import itertools
import random
from fractions import Fraction

import pytest

from superverma.cli import SMALLEST_CASES
from superverma.pbw import PBWEngine, WrongOrder
from helpers import el_scale
from superverma.rootdata import (
    AlgebraData, CaseId, InvalidParams, ParityViolation, parse_weight, wdiff, wscale,
)
from superverma import cli, singular
from superverma.singular import (
    Candidate,
    CaseParams,
    build_context,
    candidate,
    candidate_u,
    chain_kappas,
    chain_weight,
    claimed_drop,
    default_lambda,
    run_witness,
    settled_roots,
    signflip_counterexample,
    validate_params,
    witness_monomial,
    witness_spec,
)
from superverma.verma import VermaVector, _Action, act, highest_weight_vector, is_singular, weight_of
from test_acceptance import full_grid, grid_cases
from test_superalgebra import non_canonical

SMALLEST = {
    "B-I:m=1,n=1": 1,
    "B-II:m=1,n=1": 1,
    "D-I:m=1,n=2": 1,
    "D-II:m=1,n=2": 1,
    "F31": 1,
    "G3": 1,
}


def params_for(text: str, N: int, seed: int = 0) -> CaseParams:
    case = CaseId.parse(text)
    table = build_context(case)
    return CaseParams(N, default_lambda(case, N, seed)), table


def levels(text):
    """The levels of text on the standard grid."""
    return sorted({N for t, N in full_grid() if t == text})


def apply_one_at_a_time(engine, lam, e_factors, tail):
    """Reference for the candidate's construction: every lowering power and
    then every odd raising factor (a generator id) acts on the growing
    module vector, one act per factor, rightmost first; tail is (lowering
    generator id, exponent) pairs."""
    v = highest_weight_vector(lam)
    for g, exp in reversed(list(tail)):
        v = act(engine.gen(g, exp), v, engine)
    for g in reversed(list(e_factors)):
        v = act(engine.gen(g), v, engine)
    return v


def raising_product(engine, e_factors):
    """The word of odd raising factors (generator ids), straightened in U(n^+)."""
    return engine.import_element({tuple((g, 1) for g in e_factors): 1})


def test_default_lambda_frozen_values():
    case = CaseId.parse("B-I:m=1,n=1")
    assert default_lambda(case, 1, 0) == (Fraction(1, 2), Fraction(2))
    assert default_lambda(case, 1, 1) == (Fraction(1, 2), Fraction(-2))
    assert default_lambda(CaseId.parse("F31"), 3, 0) == (
        Fraction(3, 2), Fraction(-2), Fraction(3), Fraction(3),
    )
    assert default_lambda(CaseId.parse("D-II:m=1,n=2"), 2, 0) == (
        Fraction(0), Fraction(-1), Fraction(3),
    )


def test_default_lambda_is_deterministic_and_constrained():
    for text, N in SMALLEST.items():
        case = CaseId.parse(text)
        table = build_context(case)
        lam = default_lambda(case, N, 7)
        assert lam == default_lambda(case, N, 7)
        assert table.alg.coroot_pairing(lam, table.alg.gamma) == N
        validate_params(CaseParams(N, lam), table.alg)


@pytest.mark.parametrize("text", grid_cases())
def test_weights_are_canonical(text):
    """default_lambda, chain_weight, parse_weight and from_lattice give an
    int for every integral coordinate, a Fraction only for the others, on
    each case of the standard grid at its levels and seeds 0..2; so do
    coroot_pairing and reflect at every step of each case's orbit chain."""
    case = CaseId.parse(text)
    alg = build_context(case).alg
    weights = {}
    for N in levels(text):
        for seed in range(3):
            lam = default_lambda(case, N, seed)
            # p/q text with q even for every coordinate, integral ones too
            parsed = parse_weight(",".join(f"{2 * c.numerator}/{2 * c.denominator}" for c in lam), alg.rank)
            assert parsed == lam
            weights[f"default_lambda N={N} seed={seed}"] = lam
            weights[f"parse_weight N={N} seed={seed}"] = parsed
            if case.m:
                target = (1, 2) if len(singular._support(alg)) == 2 else 1
                kappas = chain_kappas(target, alg)
                mu = chain_weight(N, kappas, seed, alg)
                weights[f"chain_weight C={N} seed={seed}"] = mu
                for k in kappas:
                    name = alg.pos_roots[k].name
                    weights[f"<mu, h_{name}> C={N} seed={seed}"] = alg.coroot_pairing(mu, k)
                    mu = alg.reflect(mu, k)
                    weights[f"reflected in {name} C={N} seed={seed}"] = mu
    for i, point in enumerate(alg.lattice):
        weights[f"from_lattice root {i}"] = alg.from_lattice(point)
    bad = list(non_canonical(weights, text))
    assert not bad, bad[:5]


def test_level_parity_is_enforced():
    for text in ("B-I:m=1,n=1", "G3"):
        case = CaseId.parse(text)
        with pytest.raises(ParityViolation):
            default_lambda(case, 2, 0)
        table = build_context(case)
        lam = default_lambda(case, 1, 0)
        with pytest.raises(ParityViolation):
            validate_params(CaseParams(2, lam), table.alg)
    # even N is fine elsewhere
    default_lambda(CaseId.parse("B-II:m=1,n=1"), 2, 0)


def test_validate_params_rejections():
    (params, table) = params_for("B-I:m=1,n=1", 1)
    with pytest.raises(InvalidParams):
        validate_params(CaseParams(0, params.lam), table.alg)
    with pytest.raises(InvalidParams):
        validate_params(CaseParams(1, params.lam + (Fraction(0),)), table.alg)
    bad = (params.lam[0] + 1,) + params.lam[1:]
    with pytest.raises(InvalidParams):
        validate_params(CaseParams(1, bad), table.alg)


def test_the_case_comes_from_the_table():
    """CaseParams carry no case: a B-I table applies B-I's odd-level rule,
    so a lambda with <lambda, h_gamma> = 2 is refused however it was made."""
    table = build_context(CaseId.parse("B-I:m=1,n=1"))
    alg = table.alg
    lam = singular._solve_level(alg, [Fraction(0)] * alg.rank, 2, max(singular._support(alg)))
    assert alg.coroot_pairing(lam, alg.gamma) == 2
    with pytest.raises(ParityViolation, match="B-I needs an odd level, got N=2"):
        candidate(CaseParams(2, lam), table)


def test_candidate_factor_shapes():
    expected_counts = {
        "B-I:m=1,n=1": (2, 3),
        "B-II:m=1,n=1": (2, 3),
        "D-I:m=1,n=2": (4, 3),
        "D-II:m=1,n=2": (4, 3),
        "F31": (8, 5),
        "G3": (6, 7),
    }
    for text, N in SMALLEST.items():
        params, table = params_for(text, N)
        cand = candidate(params, table)
        odd, tail = cand.odd, cand.tail_ids
        n_odd, tail_exp = expected_counts[text]
        assert len(odd) == n_odd
        assert tail == ((table.f_gen(table.alg.gamma), tail_exp),)
        assert cand.odd_ids == tuple(table.e_gen(i) for i in odd)
        roots = [table.alg.pos_roots[i] for i in odd]
        assert all(r.odd for r in roots)
        total = wscale(-tail_exp, table.alg.gamma.weight)
        for r in roots:
            total = tuple(a + b for a, b in zip(total, r.weight))
        assert total == wscale(-N, table.alg.gamma.weight)


def test_candidates_are_singular_of_claimed_weight():
    for text, N in SMALLEST.items():
        params, table = params_for(text, N)
        u = candidate_u(params, table)
        assert not u.is_zero()
        engine = PBWEngine(table)
        expected = wdiff(wdiff(params.lam, table.alg.rho), table.alg.from_lattice(claimed_drop(params, table.alg)))
        assert weight_of(u, engine) == expected
        report = is_singular(u, engine)
        assert report.ok, (text, report.residuals)


def test_second_level_candidate():
    params, table = params_for("B-II:m=1,n=1", 2, seed=3)
    u = candidate_u(params, table)
    assert not u.is_zero()
    assert is_singular(u, PBWEngine(table)).ok


def test_factor_permutations_flip_sign_at_most():
    for text in ("D-I:m=1,n=2", "F31"):
        params, table = params_for(text, 1)
        u = candidate_u(params, table)
        neg = {m: -c for m, c in u.body.items()}
        cand = candidate(params, table)
        odd = cand.odd_ids
        k = len(odd)
        engine = PBWEngine(table)
        y_id = raising_product(engine, odd)
        rng = random.Random(f"perm:{text}")
        seen_minus = seen_other_product = False
        for _ in range(8):
            perm = list(range(k))
            rng.shuffle(perm)
            w = cand.build(engine, [odd[i] for i in perm])
            assert w.body in (u.body, neg)
            seen_minus = seen_minus or w.body == neg
            y = raising_product(engine, [odd[i] for i in perm])
            seen_other_product = seen_other_product or y not in (y_id, el_scale(y_id, -1))
        assert seen_minus
        # some permuted product is not +-Y_id itself, so the flip is decided in the module
        assert seen_other_product


def test_context_is_kept_per_case():
    table = build_context(CaseId.parse("B-I:m=1,n=1"))
    assert build_context(CaseId.parse("B-I:m=1,n=1")) is table


def test_context_budget_drops_the_least_recently_used(monkeypatch, capsys):
    """With a budget of one D-II m=2 n=3 table, a case grid run twice drops
    and rebuilds contexts, prints what an unbounded run prints, and never
    holds tables above the budget."""
    argv = ["verify", "--case", "D-II", "--m", "1,2", "--n", "2,3", "--seed", "0,1",
            "--check", "nonzero", "--check", "singular", "--json"]

    class Watched(dict):
        def __setitem__(self, key, table):
            super().__setitem__(key, table)
            held.append(sum(t.dim ** 2 for t in self.values()))

    def run_twice():
        monkeypatch.setattr(singular, "_CONTEXTS", Watched())
        out = []
        for _ in range(2):
            assert cli.main(argv) == 0
            out.append(capsys.readouterr().out)
        return out

    held, built = [], []
    expected = run_twice()
    assert len(singular._CONTEXTS) == 4
    budget = CaseId.parse("D-II:m=2,n=3").dim ** 2
    monkeypatch.setattr(singular, "CONTEXT_BUDGET", budget)
    real = singular.build_algebra_data
    monkeypatch.setattr(singular, "build_algebra_data", lambda case: built.append(case.text) or real(case))
    held.clear()
    assert run_twice() == expected
    assert len(built) > 4 and max(held) <= budget


def test_engines_of_a_case_share_the_table_and_make_each_order_once(monkeypatch):
    """An engine makes its order once, from its tail, and keeps only its
    table, its tail and that order; it refuses a tail that is no order of
    lowering generator ids, whether the ids come as ints or from roots by
    table.f_gen; and two engines of a case read the same ad chain rows, and
    so the same chain lists, from the bracket table."""
    case = CaseId.parse("B-I:m=2,n=1")
    table = build_context(case)
    kappa = table.f_gen("d1-d2")
    default, tailed = PBWEngine(table), PBWEngine(table, (kappa,))
    assert all(set(vars(e)) == {"table", "tail", "sequence", "rank"} for e in (default, tailed))
    # a tail entry must be a lowering generator, given once
    for tail, message in (
        ((table.e_gen("d1-d2"),), "is not a lowering generator id"),
        ((table.dim,), "is not a lowering generator id"),
        ((-1,), "is not a lowering generator id"),
        ((table.n_pos,), "is not a lowering generator id"),  # the first Cartan id
        ((kappa, table.f_gen("d1-d2")), "tail entries must be distinct"),
    ):
        with pytest.raises(WrongOrder, match=message):
            PBWEngine(table, tail)
    rows = []
    real_row = table.ad_row
    monkeypatch.setattr(table, "ad_row", lambda g: rows.append((g, real_row(g))) or rows[-1][1])
    cand = candidate(CaseParams(1, default_lambda(case, 1, 0)), table)
    read = {}
    for engine in (default, tailed):
        rows.clear()
        assert is_singular(cand.build(engine), engine).ok
        read[engine] = dict(rows)
    common = read[default].keys() & read[tailed].keys()
    assert common and all(read[default][g] is read[tailed][g] for g in common)
    assert any(read[default][g] for g in common)


@pytest.mark.parametrize("text", SMALLEST_CASES + ("D-II:m=2,n=2",))
def test_straightened_factors_match_one_at_a_time(text):
    """The raising word straightened in U(n^+) and acting once gives the
    body of the factor-at-a-time reference exactly: for the candidate under
    the default engine and the witness engine, and for every witness step
    under the witness engine, each in its own order and five seeded
    permutations, all through one Candidate and one dict of monomial
    images per (engine, tail), which every order on it shares."""
    params, table = params_for(text, 1)
    cand = candidate(params, table)
    odd, tail = cand.odd_ids, cand.tail_ids
    spec = witness_spec(cand, table.alg)
    witness_engine = PBWEngine(table, spec.order_tail)
    spec_tail = tuple((table.f_gen(w), e) for w, e in spec.steps[-1].v_mono)
    jobs = [(PBWEngine(table), odd, tail), (witness_engine, odd, tail)]
    jobs += [
        (witness_engine, [table.e_gen(w) for w in step.e_factors], spec_tail)
        for step in spec.steps
    ]
    rng = random.Random(f"straighten:{text}")
    for engine, e_factors, tail in jobs:
        images = {(): engine.import_element({tail: 1})}
        orders = [list(e_factors)] + [rng.sample(e_factors, len(e_factors)) for _ in range(5)]
        for factors in orders:
            got = cand.build(engine, factors, images)
            want = apply_one_at_a_time(engine, params.lam, factors, tail)
            assert got.body == want.body, (text, engine.sequence, factors)


def clashing_pairs(cand, table):
    """The factor positions (i, j), i < j, whose generators' bracket is
    nonzero."""
    ids = cand.odd_ids
    return [(i, j) for i in range(len(ids)) for j in range(i + 1, len(ids)) if table.bracket(ids[i], ids[j])]


# the osp cases with m, n <= 3 off the standard grid (D needs n >= 2)
SMALL_OSP = [
    text
    for family in ("B-I", "B-II", "D-I", "D-II")
    for m in (1, 2, 3)
    for n in ((1, 2, 3) if family.startswith("B") else (2, 3))
    if (text := f"{family}:m={m},n={n}") not in grid_cases()
]


def test_every_swap_of_clashing_pairs_builds_u_up_to_sign():
    """Reference for the sign-flip certificate, run on the engine: on every
    standard-grid point at seeds 0..2, and on the osp cases with m, n <= 3
    off the grid at level 1 (seed 0), the identity order with each subset S
    of the clashing pairs swapped in place builds exactly (-1)^|S| u."""
    points = [(text, N, seed) for text, N in full_grid() for seed in range(3)]
    points += [(text, 1, 0) for text in SMALL_OSP]
    for text, N, seed in points:
        params, table = params_for(text, N, seed)
        cand = candidate(params, table)
        ids = cand.odd_ids
        engine = PBWEngine(table)
        u = cand.build(engine).body
        clash = clashing_pairs(cand, table)
        for size in range(len(clash) + 1):
            for swapped in itertools.combinations(clash, size):
                order = list(ids)
                for i, j in swapped:
                    order[i], order[j] = order[j], order[i]
                w = cand.build(engine, order).body
                assert w == el_scale(u, (-1) ** size), (text, N, seed, swapped)


@pytest.mark.parametrize("text", grid_cases() + SMALL_OSP)
def test_grid_clashing_pairs_are_disjoint(text):
    """The sign-flip certificate's premises hold on every standard-grid case
    at its levels and on the osp cases with m, n <= 3 off the grid at levels
    1 and the next, each at seeds 0..2: the candidate's clashing pairs are
    disjoint, K/2 of them (none in B-II); c = 1 - <rho, h_gamma>, so the
    tail f_gamma^(N + c) is the top of gamma's string; and each pair's
    bracket kills the tail vector, applied through act."""
    alg = build_context(CaseId.parse(text)).alg
    for N in levels(text) or ([1, 3] if alg.case.odd_gamma else [1, 2]):
        for seed in range(3):
            params, table = params_for(text, N, seed)
            cand = candidate(params, table)
            clash = clashing_pairs(cand, table)
            places = [i for pair in clash for i in pair]
            assert len(places) == len(set(places))
            assert len(clash) == (0 if text.startswith("B-II") else len(cand.odd_ids) // 2)
            ((_, top),) = cand.tail_ids
            assert top - N == 1 - alg.coroot_pairing(alg.rho, alg.gamma)
            engine = PBWEngine(table)
            tail = VermaVector(engine.import_element({cand.tail_ids: 1}), params.lam)
            for i, j in clash:
                bracket = table.bracket(cand.odd_ids[i], cand.odd_ids[j])
                z = engine.import_element({(table.powers[g, 1],): c for g, c in bracket.items()})
                assert act(z, tail, engine).is_zero(), (text, N, seed, i, j)


def test_signflip_certificate_builds_no_candidate_and_draws_nothing(monkeypatch):
    """On every standard-grid point at seeds 0..2 the sign-flip check
    certifies every order with no Candidate.build call and no random draw."""
    points = []
    for text, N in full_grid():
        for seed in range(3):
            params, table = params_for(text, N, seed)
            points.append((candidate(params, table), PBWEngine(table)))
    calls = []
    for cls, name in ((Candidate, "build"), (random.Random, "random"), (random.Random, "getrandbits")):
        monkeypatch.setattr(cls, name, lambda *args, name=name: calls.append(name))
    for cand, engine in points:
        assert signflip_counterexample(cand, engine) is None
    assert calls == []


# settled_roots on each case's default factors, by simple-root name: the
# annihilated root (the odd simple root among the factors; G3 has none) and
# the commuting ones
SETTLED = {
    "B-I:m=1,n=1": ("d1-e1", ()),
    "B-I:m=1,n=2": ("d1-e1", ("e1-e2",)),
    "B-I:m=2,n=1": ("d2-e1", ()),
    "B-I:m=2,n=2": ("d2-e1", ("e1-e2",)),
    "B-II:m=1,n=1": ("e1-d1", ()),
    "B-II:m=1,n=2": ("e2-d1", ()),
    "B-II:m=2,n=1": ("e1-d1", ("d1-d2",)),
    "B-II:m=2,n=2": ("e2-d1", ("d1-d2",)),
    "D-I:m=1,n=2": ("d1-e1", ("e1-e2",)),
    "D-I:m=1,n=3": ("d1-e1", ("e1-e2", "e2-e3")),
    "D-I:m=2,n=2": ("d2-e1", ("e1-e2",)),
    "D-I:m=2,n=3": ("d2-e1", ("e1-e2", "e2-e3")),
    "D-II:m=1,n=2": ("e2-d1", ("2d1",)),
    "D-II:m=1,n=3": ("e3-d1", ("2d1",)),
    "D-II:m=2,n=2": ("e2-d1", ("d1-d2", "2d2")),
    "D-II:m=2,n=3": ("e3-d1", ("d1-d2", "2d2")),
    "F31": ("+---", ("e2-e3", "e3")),
    "G3": (None, ("e2-e1",)),
    "B-I:m=1,n=3": ("d1-e1", ("e1-e2", "e2-e3")),
    "B-I:m=2,n=3": ("d2-e1", ("e1-e2", "e2-e3")),
    "B-I:m=3,n=1": ("d3-e1", ("d1-d2",)),
    "B-I:m=3,n=2": ("d3-e1", ("d1-d2", "e1-e2")),
    "B-I:m=3,n=3": ("d3-e1", ("d1-d2", "e1-e2", "e2-e3")),
    "B-II:m=1,n=3": ("e3-d1", ("e1-e2",)),
    "B-II:m=2,n=3": ("e3-d1", ("e1-e2", "d1-d2")),
    "B-II:m=3,n=1": ("e1-d1", ("d1-d2", "d2-d3")),
    "B-II:m=3,n=2": ("e2-d1", ("d1-d2", "d2-d3")),
    "B-II:m=3,n=3": ("e3-d1", ("e1-e2", "d1-d2", "d2-d3")),
    "D-I:m=3,n=2": ("d3-e1", ("d1-d2", "e1-e2")),
    "D-I:m=3,n=3": ("d3-e1", ("d1-d2", "e1-e2", "e2-e3")),
    "D-II:m=3,n=2": ("e2-d1", ("d1-d2", "d2-d3", "2d3")),
    "D-II:m=3,n=3": ("e3-d1", ("d1-d2", "d2-d3", "2d3")),
}


def test_settled_roots_are_pinned():
    """settled_roots on every standard-grid case and every osp case with
    m, n <= 3 off the grid: the roots and premises are pinned, at least one
    simple root is left to be raised, and the result is kept on the table
    under the factor ids and the tail's generator, so a candidate at
    another level and seed reads the same one."""
    assert sorted(SETTLED) == sorted(grid_cases() + SMALL_OSP)
    for text, (annihilated, commuting) in SETTLED.items():
        params, table = params_for(text, 1)
        cand = candidate(params, table)
        settled = settled_roots(cand, table)
        names = [s.name for s in table.alg.simple_system]
        want = dict.fromkeys(commuting, "commuting")
        if annihilated is not None:
            want[annihilated] = "annihilated"
        assert {names[j]: premise for j, premise in settled.items()} == want, text
        assert len(settled) < table.alg.rank
        ((f, _),) = cand.tail_ids
        assert table.settled[cand.odd_ids, f] is settled
        assert settled_roots(candidate(*params_for(text, 3, seed=1)), table) is settled


def test_settled_roots_raise_to_zero():
    """Engine cross-check of settled_roots: on every standard-grid point at
    seeds 0..2, and on the osp cases with m, n <= 3 off the grid at levels
    up to 2 (seed 0), u and the word on a tail one above the top of gamma's
    string, which is not singular, are raised by every simple root.  Each
    settled root's image is 0 on both, as the premises hold for any power
    of f_gamma; the tail above the top leaves an open root's image nonzero;
    and is_singular given the settled roots reports what the full raise
    reports."""
    points = [(text, N, seed) for text, N in full_grid() for seed in range(3)]
    points += [(text, N, 0) for text in SMALL_OSP for N in (1, 2) if N == 1 or not text.startswith("B-I:")]
    for text, N, seed in points:
        params, table = params_for(text, N, seed)
        cand = candidate(params, table)
        engine = PBWEngine(table)
        settled = settled_roots(cand, table)
        ((f, top),) = cand.tail_ids
        above = {(): engine.import_element({(table.powers[f, top + 1],): 1})}
        for v in (cand.build(engine), cand.build(engine, images=above)):
            full = is_singular(v, engine)
            assert all(full.residuals[j][1] == 0 for j in settled), (text, N, seed, full.residuals)
            assert is_singular(v, engine, settled) == full
        assert not full.ok and full.failure[0] not in [full.residuals[j][0] for j in settled]


@pytest.mark.parametrize("text", ["B-I:m=1,n=1", "G3", "D-II:m=2,n=2", "F31"])
def test_rebuilds_resolve_no_roots(text, monkeypatch):
    """The candidate's factors and tail are generator ids from the start, so
    no build, neither the candidate nor a witness step, resolves a root
    (AlgebraData.as_index), and neither does the sign-flip check, which
    builds nothing and makes one module action per clashing pair.  A candidate
    holds no images: one witness run makes one dict, on the normal form of
    the candidate's tail, and every build of the run reads it, the
    candidate's own too, for an odd gamma as well."""
    params, table = params_for(text, 1)
    cand = candidate(params, table)
    fields = {"params", "odd", "odd_ids", "tail_ids"}
    lookups = []
    actions = []
    real_index, real_build, real_action = AlgebraData.as_index, Candidate.build, _Action.__init__

    def counted_index(self, root):
        lookups.append(root)
        return real_index(self, root)

    def counted_action(self, *args):
        actions.append(self)
        real_action(self, *args)

    per_build = []
    dicts = []

    def counted_build(self, engine, factors=None, images=None):
        before = len(lookups)
        u = real_build(self, engine, factors, images)
        per_build.append(len(lookups) - before)
        dicts.append(images)
        assert set(vars(self)) == fields
        return u

    monkeypatch.setattr(AlgebraData, "as_index", counted_index)
    monkeypatch.setattr(_Action, "__init__", counted_action)
    monkeypatch.setattr(Candidate, "build", counted_build)
    engine = PBWEngine(table)
    cand.build(engine)
    del lookups[:]
    assert len(actions) == 1
    assert signflip_counterexample(cand, engine) is None
    assert lookups == []
    ids = cand.odd_ids
    clashing = [(x, y) for i, x in enumerate(ids) for y in ids[i + 1 :] if table.bracket(x, y)]
    assert clashing and len(actions) == 1 + len(clashing)
    assert run_witness(cand, table).ok
    spec = witness_spec(cand, table.alg)
    assert per_build == [0] * (1 + len(spec.steps) + 1)
    assert set(vars(cand)) == fields

    assert dicts[0] is None
    images = dicts[1]
    assert all(d is images for d in dicts[1:])
    witness_engine = PBWEngine(table, [table.f_id(i) for i in spec.order_tail])
    tail = witness_monomial(witness_engine, spec.steps[-1].v_mono)
    assert images[()] == {tail: 1}
    ((own, s),) = witness_engine.import_element({cand.tail_ids: 1}).items()
    assert own == tail and (s != 1) == table.alg.gamma.odd
    # the candidate's straightened word is among the images the run kept
    word = witness_engine.import_element({tuple(table.powers[g, 1] for g in cand.odd_ids): 1})
    assert set(word) <= set(images)
