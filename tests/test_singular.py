"""Candidate vector construction and parameter handling."""

import random
from fractions import Fraction

import pytest

from superverma.cli import SMALLEST_CASES
from superverma.pbw import WrongOrder
from helpers import el_scale
from superverma.rootdata import AlgebraData, CaseId, InvalidParams, ParityViolation, wdiff, wscale
from superverma import cli, singular
from superverma.singular import (
    Candidate,
    CaseParams,
    Context,
    build_context,
    candidate,
    candidate_u,
    claimed_drop,
    default_lambda,
    run_witness,
    signflip_counterexample,
    validate_params,
    witness_spec,
)
from superverma.verma import _Action, act, highest_weight_vector, is_singular, weight_of

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
    ctx = build_context(case)
    return CaseParams(case, N, default_lambda(case, N, seed, ctx.alg)), ctx


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
        ctx = build_context(case)
        lam = default_lambda(case, N, 7, ctx.alg)
        assert lam == default_lambda(case, N, 7, ctx.alg)
        assert ctx.alg.coroot_pairing(lam, ctx.alg.gamma) == N
        validate_params(CaseParams(case, N, lam), ctx.alg)


def test_level_parity_is_enforced():
    for text in ("B-I:m=1,n=1", "G3"):
        case = CaseId.parse(text)
        with pytest.raises(ParityViolation):
            default_lambda(case, 2, 0)
        ctx = build_context(case)
        lam = default_lambda(case, 1, 0, ctx.alg)
        with pytest.raises(ParityViolation):
            validate_params(CaseParams(case, 2, lam), ctx.alg)
    # even N is fine elsewhere
    default_lambda(CaseId.parse("B-II:m=1,n=1"), 2, 0)


def test_validate_params_rejections():
    (params, ctx) = params_for("B-I:m=1,n=1", 1)
    with pytest.raises(InvalidParams):
        validate_params(CaseParams(params.case, 0, params.lam), ctx.alg)
    with pytest.raises(InvalidParams):
        validate_params(CaseParams(params.case, 1, params.lam + (Fraction(0),)), ctx.alg)
    bad = (params.lam[0] + 1,) + params.lam[1:]
    with pytest.raises(InvalidParams):
        validate_params(CaseParams(params.case, 1, bad), ctx.alg)


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
        params, ctx = params_for(text, N)
        cand = candidate(params, ctx)
        odd, tail = cand.odd, cand.tail_ids
        n_odd, tail_exp = expected_counts[text]
        assert len(odd) == n_odd
        assert tail == ((ctx.table.f_gen(ctx.alg.gamma), tail_exp),)
        assert cand.odd_ids == tuple(ctx.table.e_gen(i) for i in odd)
        roots = [ctx.alg.pos_roots[i] for i in odd]
        assert all(r.odd for r in roots)
        total = wscale(-tail_exp, ctx.alg.gamma.weight)
        for r in roots:
            total = tuple(a + b for a, b in zip(total, r.weight))
        assert total == wscale(-N, ctx.alg.gamma.weight)


def test_candidates_are_singular_of_claimed_weight():
    for text, N in SMALLEST.items():
        params, ctx = params_for(text, N)
        u = candidate_u(params, ctx)
        assert not u.is_zero()
        engine = ctx.default_engine
        expected = wdiff(wdiff(params.lam, ctx.alg.rho), ctx.alg.from_lattice(claimed_drop(params, ctx.alg)))
        assert weight_of(u, engine) == expected
        report = is_singular(u, engine)
        assert report.ok, (text, report.residuals)


def test_second_level_candidate():
    params, ctx = params_for("B-II:m=1,n=1", 2, seed=3)
    u = candidate_u(params, ctx)
    assert not u.is_zero()
    assert is_singular(u, ctx.default_engine).ok


def test_factor_permutations_flip_sign_at_most():
    for text in ("D-I:m=1,n=2", "F31"):
        params, ctx = params_for(text, 1)
        u = candidate_u(params, ctx)
        neg = {m: -c for m, c in u.body.items()}
        cand = candidate(params, ctx)
        odd = cand.odd_ids
        k = len(odd)
        engine = ctx.default_engine
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


def test_context_caches_engines():
    ctx = build_context(CaseId.parse("B-I:m=1,n=1"))
    assert ctx.default_engine is ctx.default_engine
    tailed = ctx.engine(tail=("e1",))
    assert tailed is ctx.engine(tail=("e1",))
    assert tailed is not ctx.default_engine
    assert build_context(CaseId.parse("B-I:m=1,n=1")) is ctx


def test_context_budget_drops_the_least_recently_used(monkeypatch, capsys):
    """With a budget of one D-II m=2 n=3 table, a case grid run twice drops
    and rebuilds contexts, prints what an unbounded run prints, and never
    holds tables above the budget."""
    argv = ["verify", "--case", "D-II", "--m", "1,2", "--n", "2,3", "--seed", "0,1",
            "--check", "nonzero", "--check", "singular", "--json"]

    class Watched(dict):
        def __setitem__(self, key, ctx):
            super().__setitem__(key, ctx)
            held.append(sum(c.table.dim ** 2 for c in self.values()))

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
    """A context builds each engine once, however often the engine is
    looked up and whether its tail names a generator by id or by root, and
    refuses a tail that is no order; an engine keeps only its table, its
    tail and the order derived from them, and two engines of a case read
    the same ad chain rows, and so the same chain lists, from the bracket
    table."""
    made = []
    real_engine = singular.PBWEngine
    monkeypatch.setattr(singular, "PBWEngine",
                        lambda table, tail=(): made.append(tail) or real_engine(table, tail))
    case = CaseId.parse("B-I:m=2,n=1")
    shared = build_context(case)
    ctx = Context(shared.alg, shared.table)
    kappa = ctx.table.f_gen("d1-d2")
    for _ in range(3):
        default, tailed = ctx.default_engine, ctx.engine(tail=(kappa,))
        assert ctx.engine(tail=("d1-d2",)) is tailed
    assert made == [(), (kappa,)] and len(ctx._engines) == 2
    assert all(set(vars(e)) == {"table", "tail", "sequence", "rank"} for e in (default, tailed))
    # a tail entry must be a lowering generator, given once, by id or by root
    for tail, message in (
        ((ctx.table.e_gen("d1-d2"),), "is not a lowering generator id"),
        ((ctx.table.dim,), "is not a lowering generator id"),
        ((-1,), "is not a lowering generator id"),
        ((kappa, "d1-d2"), "tail entries must be distinct"),
    ):
        with pytest.raises(WrongOrder, match=message):
            ctx.engine(tail=tail)
    assert len(ctx._engines) == 2
    rows = []
    real_row = ctx.table.ad_row
    monkeypatch.setattr(ctx.table, "ad_row", lambda g: rows.append((g, real_row(g))) or rows[-1][1])
    cand = candidate(CaseParams(case, 1, default_lambda(case, 1, 0, ctx.alg)), ctx)
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
    permutations, all through one Candidate, whose dict of monomial images
    each (engine, tail) shares."""
    params, ctx = params_for(text, 1)
    cand = candidate(params, ctx)
    odd, tail = cand.odd_ids, cand.tail_ids
    spec = witness_spec(cand, ctx.alg)
    witness_engine = ctx.engine(tail=spec.order_tail)
    spec_tail = tuple((ctx.table.f_gen(w), e) for w, e in spec.tail)
    jobs = [(ctx.default_engine, odd, tail), (witness_engine, odd, tail)]
    jobs += [
        (witness_engine, [ctx.table.e_gen(w) for w in step.e_factors], spec_tail)
        for step in spec.steps
    ]
    rng = random.Random(f"straighten:{text}")
    for engine, e_factors, tail in jobs:
        orders = [list(e_factors)] + [rng.sample(e_factors, len(e_factors)) for _ in range(5)]
        for factors in orders:
            got = cand.build(engine, factors, tail)
            want = apply_one_at_a_time(engine, params.lam, factors, tail)
            assert got.body == want.body, (text, engine.sequence, factors)


@pytest.mark.parametrize("text", ["B-I:m=1,n=1", "G3", "D-II:m=2,n=2", "F31"])
def test_rebuilds_resolve_no_roots(text, monkeypatch):
    """The candidate's factors and tail are generator ids from the start, so
    no build, neither a sign-flip rebuild nor a witness step, looks up a
    root weight (AlgebraData.root_index).  The candidate keeps the images of
    its last (engine, tail) only: the sign-flip rebuilds reuse u's action,
    the witness engine keeps the spec's tail and, for an odd gamma, the
    candidate's own, a scalar multiple of it whose images it never shares,
    and after the witness run the memo holds that last key alone."""
    params, ctx = params_for(text, 1)
    cand = candidate(params, ctx)
    lookups = []
    actions = []
    real_index, real_build, real_action = AlgebraData.root_index, Candidate.build, _Action.__init__

    def counted_index(self, w):
        lookups.append(w)
        return real_index(self, w)

    def counted_action(self, *args):
        actions.append(self)
        real_action(self, *args)

    per_build = []
    memos = {}

    def counted_build(self, *args):
        before = len(lookups)
        u = real_build(self, *args)
        per_build.append(len(lookups) - before)
        key, _, images = self._images
        memos.setdefault(key, images)
        assert memos[key] is images
        return u

    monkeypatch.setattr(AlgebraData, "root_index", counted_index)
    monkeypatch.setattr(_Action, "__init__", counted_action)
    monkeypatch.setattr(Candidate, "build", counted_build)
    engine = ctx.default_engine
    u = cand.build(engine)
    del lookups[:]
    assert len(actions) == 1
    assert signflip_counterexample(cand, ctx, u, 0, 20) is None
    assert lookups == []
    assert len(actions) == 1
    assert run_witness(cand, ctx).ok
    spec = witness_spec(cand, ctx.alg)
    assert per_build == [0] * (1 + 20 + len(spec.steps) + 1)

    witness_engine = ctx.engine(tail=spec.order_tail)
    spec_tail = tuple((ctx.table.f_gen(w), e) for w, e in spec.tail)
    assert (spec_tail != cand.tail_ids) == ctx.alg.gamma.odd
    assert cand._images[0] == (witness_engine, cand.tail_ids)
    assert set(memos) == {
        (engine, cand.tail_ids), (witness_engine, spec_tail), (witness_engine, cand.tail_ids),
    }
    if ctx.alg.gamma.odd:
        own = memos[(witness_engine, cand.tail_ids)]
        split = memos[(witness_engine, spec_tail)]
        assert own is not split and own[()] != split[()]
