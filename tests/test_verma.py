import random
import re
from fractions import Fraction

import pytest

from superverma.cli import SMALLEST_CASES
from superverma.pbw import (
    Inhomogeneous,
    PBWEngine,
    WrongOrder,
    el_one,
)
from superverma.rootdata import OSP_FAMILIES, CaseId, build_algebra_data, wdiff, wscale, wsum
from superverma.singular import (
    CaseParams,
    ShapovalovElement,
    build_context,
    candidate,
    candidate_u,
    chain_kappas,
    default_lambda,
    orbit_propagate,
    propagate_chain,
)
from superverma.superalgebra import _exact, build_structure_constants
from helpers import basis_weight, cartan_duals, el_add, el_scale, form
from superverma.verma import (
    SingularityReport,
    UnexpectedRaising,
    VermaVector,
    _Action,
    act,
    highest_weight_vector,
    is_singular,
    weight_of,
)


def setup(text: str):
    alg = build_algebra_data(CaseId.parse(text))
    table = build_structure_constants(alg)
    engine = PBWEngine(table)
    return alg, table, engine


def frac_weight(*xs):
    return tuple(Fraction(x) for x in xs)


def is_canonical(c) -> bool:
    """An int when integral, a Fraction only otherwise."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def non_canonical(values):
    return [c for c in values if not is_canonical(c)]


def straightening_act(x, v, engine):
    """Reference action: straighten x * body in all of U(g), then let the
    raising generators kill v+ and the Cartan generators act by
    <lambda - rho, h>."""
    table = engine.table
    shift = wdiff(v.highest_weight, table.alg.rho)
    duals = cartan_duals(table.alg)
    body = {}
    for mono, coef in engine.multiply(x, v.body).items():
        scalar = coef
        cut = len(mono)
        for pos, (bid, exp) in enumerate(mono):
            kind = table.basis[bid].kind
            if kind == "e":
                scalar = 0
                break
            if kind == "h":
                cut = min(cut, pos)
                scalar *= form(table.alg, shift, duals[table.basis[bid].index]) ** exp
        if scalar:
            rest = mono[:cut]
            body[rest] = body.get(rest, Fraction(0)) + scalar
    return VermaVector({m: c for m, c in body.items() if c}, v.highest_weight)


def straightening_is_singular(v, engine):
    """Reference singularity check: each simple raising generator acts on v
    through straightening_act, in all of U(g)."""
    table = engine.table
    residuals = []
    failure = None
    for j, s in enumerate(table.alg.simple_system):
        e = engine.gen(table.e_id(table.alg.simple_pos_index[j]))
        image = straightening_act(e, v, engine).body
        residuals.append((s.name, len(image)))
        if image and failure is None:
            failure = (s.name, image)
    nonzero = not v.is_zero()
    return SingularityReport(nonzero and failure is None, nonzero, tuple(residuals), failure)


def test_highest_weight_vector_basics():
    alg, table, eng = setup("B-I:m=1,n=1")
    lam = frac_weight("3/2", 2)
    v = highest_weight_vector(lam)
    assert weight_of(v, eng) == wdiff(lam, alg.rho)
    # every raising generator kills v+, every Cartan acts by a scalar
    for i in range(table.n_pos):
        image = act(eng.gen(table.e_id(i)), v, eng)
        assert image.is_zero()
    for j, dual in enumerate(cartan_duals(alg)):
        image = act(eng.gen(table.h_id(j)), v, eng)
        expected = form(alg, wdiff(lam, alg.rho), dual)
        assert image.body == el_scale(v.body, expected)


def test_act_is_algebra_action():
    alg, table, eng = setup("D-II:m=1,n=2")
    lam = frac_weight(2, "1/2", -1)
    v = highest_weight_vector(lam)
    rng = random.Random(5)
    ids = list(range(table.dim))
    for _ in range(40):
        x = eng.multiply(el_one(), {tuple((rng.choice(ids), 1) for _ in range(rng.randint(1, 2))): 1})
        y = eng.multiply(el_one(), {tuple((rng.choice(ids), 1) for _ in range(rng.randint(1, 2))): 1})
        via_product = act(eng.multiply(x, y), v, eng)
        stepwise = act(x, act(y, v, eng), eng)
        assert via_product.body == stepwise.body


def test_weight_bookkeeping():
    alg, table, eng = setup("B-II:m=1,n=1")
    lam = frac_weight(1, "5/2")
    v = highest_weight_vector(lam)
    fd = table.f_gen("d1")
    w = act(eng.gen(fd, 3), v, eng)
    d1 = alg.root_named("d1").weight
    assert weight_of(w, eng) == wdiff(wdiff(lam, alg.rho), wscale(3, d1))
    mixed = VermaVector(el_add(w.body, v.body), lam)
    with pytest.raises(Inhomogeneous):
        weight_of(mixed, eng)
    with pytest.raises(Inhomogeneous):
        weight_of(VermaVector({}, lam), eng)


def test_classical_singular_vectors_on_even_simples():
    # f_alpha^t v+ is singular exactly when <lambda, h_alpha> = t > 0
    for text in ("B-I:m=2,n=1", "D-II:m=1,n=2"):
        alg, table, eng = setup(text)
        for j, s in enumerate(alg.simple_system):
            if s.odd:
                continue
            for t in (1, 2, 3):
                # lambda proportional to alpha itself has <lambda, h_alpha> = t
                lam = wscale(Fraction(t) / alg.coroot_pairing(s.weight, s), s.weight)
                assert alg.coroot_pairing(lam, s) == t
                v = act(eng.gen(table.f_id(alg.simple_pos_index[j]), t), highest_weight_vector(lam), eng)
                report = is_singular(v, eng)
                assert report.ok, (text, s.name, t, report)
                bad = act(
                    eng.gen(table.f_id(alg.simple_pos_index[j]), t + 1),
                    highest_weight_vector(lam),
                    eng,
                )
                assert not is_singular(bad, eng).ok


def test_osp12_string_identity():
    # e_d f_d^j v+ alternates between (tau - k s) f^{2k} v+ at j = 2k+1 and
    # -k s f^{2k-1} v+ at j = 2k, where tau and s pair lambda - rho and the
    # root with [e_d, f_d]
    alg, table, eng = setup("B-I:m=1,n=1")
    lam = frac_weight("7/2", -2)
    v = highest_weight_vector(lam)
    d = alg.root_named("d1")
    fd, ed = table.f_gen(d), table.e_gen(d)
    tval = table.bracket(ed, fd)
    tau = table.h_value_pairing(tval, wdiff(lam, alg.rho))
    s = table.h_value_pairing(tval, d.weight)
    for k in range(5):
        lhs = act(eng.gen(ed), act(eng.gen(fd, 2 * k + 1), v, eng), eng)
        rhs = act(eng.gen(fd, 2 * k), v, eng).scaled(tau - k * s)
        assert lhs.body == rhs.body
        if k:
            lhs = act(eng.gen(ed), act(eng.gen(fd, 2 * k), v, eng), eng)
            rhs = act(eng.gen(fd, 2 * k - 1), v, eng).scaled(-k * s)
            assert lhs.body == rhs.body


def test_osp12_vanishing_point():
    # with <lambda, h_gamma> = N = 2M + 1 the odd string truncates at
    # k = M + n, which is what the candidate vector construction relies on
    alg, table, eng = setup("B-I:m=1,n=2")
    N, n = 3, 2
    M = (N - 1) // 2
    lam = frac_weight("3/2", 1, -2)
    assert alg.coroot_pairing(lam, alg.gamma) == N
    d = alg.gamma
    fd, ed = table.f_gen(d), table.e_gen(d)
    v = highest_weight_vector(lam)
    k = M + n
    image = act(eng.gen(ed), act(eng.gen(fd, 2 * k + 1), v, eng), eng)
    assert image.is_zero()
    image = act(eng.gen(ed), act(eng.gen(fd, 2 * k - 1), v, eng), eng)
    assert not image.is_zero()


def test_singularity_certificate_names_failures():
    alg, table, eng = setup("B-I:m=1,n=1")
    lam = frac_weight("1/3", 1)
    v = act(eng.gen(table.f_gen("e1")), highest_weight_vector(lam), eng)
    report = is_singular(v, eng)
    assert not report.ok
    assert report.nonzero
    failing = [name for name, count in report.residuals if count]
    assert failing == ["e1"]
    image = act(eng.gen(table.e_gen("e1")), v, eng)
    assert report.failure == ("e1", image.body) and image.body
    zero = VermaVector({}, lam)
    report = is_singular(zero, eng)
    assert not report.ok
    assert not report.nonzero
    assert report.failure is None
    assert is_singular(highest_weight_vector(lam), eng).failure is None


@pytest.mark.parametrize("text", SMALLEST_CASES)
def test_module_action_matches_straightening(text):
    """Every basis generator at exponents 1 and 2, on the candidate body, on
    random lowering bodies and on a body of two weights, under the default
    order and a tail order."""
    case = CaseId.parse(text)
    ctx = build_context(case)
    table = ctx.table
    lam = default_lambda(case, 1, 0, ctx.alg)
    rng = random.Random(f"module-action:{text}")
    tail = (table.f_gen(ctx.alg.gamma),)
    for eng in (ctx.default_engine, ctx.engine(tail=tail)):
        reference = PBWEngine(table, eng.tail)
        bodies = [candidate(CaseParams(case, 1, lam), ctx).build(eng).body]
        for _ in range(2):
            word = tuple((rng.randrange(table.n_pos), rng.randint(1, 2)) for _ in range(3))
            bodies.append(eng.multiply(el_one(), {word: Fraction(rng.randint(1, 5))}))
        # a Cartan generator scales each monomial by its own scalar
        bodies.append(el_add(bodies[1], el_one()))
        for body in bodies:
            v = VermaVector(body, lam)
            for g in range(table.dim):
                for e in (1, 2):
                    x = eng.gen(g, e)
                    got = act(x, v, eng).body
                    assert got == straightening_act(x, v, reference).body, (
                        text, eng.sequence[: table.n_pos], table.basis[g].name, e)
                    assert not non_canonical(got.values()), (text, table.basis[g].name, e)
        assert not non_canonical(c for body in bodies for c in body.values()), text


def test_module_action_needs_a_normal_form_body():
    alg, table, eng = setup("B-I:m=1,n=1")
    lam = frac_weight("3/2", 2)
    e = eng.gen(table.e_id(0))
    f0, f1 = sorted(range(table.n_pos), key=eng.rank.get)[:2]
    for body in (
        {((f1, 1), (f0, 1)): Fraction(1)},  # out of order
        {((f0, 1), (f0, 1)): Fraction(1)},  # a repeated generator
        {((f0, 1), (table.h_id(0), 1)): Fraction(1)},  # not in U(n^-)
    ):
        with pytest.raises(WrongOrder):
            act(e, VermaVector(body, lam), eng)


def test_action_and_check_read_the_body_only():
    """act and is_singular leave the caller's body as it was, the same
    object with the same items, and never return it: with integral
    coefficients the action reads the body itself, with Fraction ones
    (den > 1) a scaled copy."""
    case = CaseId.parse("B-I:m=1,n=1")
    ctx = build_context(case)
    eng, table = ctx.default_engine, ctx.table
    lam = default_lambda(case, 3, 0, ctx.alg)
    u = candidate_u(CaseParams(case, 3, lam), ctx).body
    bodies = [u, {((table.f_gen("e1"), 1),): 1}]
    bodies += [el_scale(body, Fraction(1, 6)) for body in bodies]
    assert all(type(c) is Fraction for body in bodies[2:] for c in body.values())
    failures = 0
    for body in bodies:
        items = list(body.items())
        v = VermaVector(body, lam)
        report = is_singular(v, eng)
        out = [act(el_one(), v, eng).body] + [act(eng.gen(g), v, eng).body for g in range(table.dim)]
        if report.failure is not None:
            out.append(report.failure[1])
            failures += 1
        assert v.body is body and list(body.items()) == items
        assert out[0] == body and all(x is not body for x in out)
    assert failures == 2


def test_orbit_coefficients_are_canonical():
    """The candidate body, theta imported into the step's order and lifted,
    and the propagated theta of an orbit step hold each coefficient as an
    int, or as a Fraction only when it is not one."""
    case = CaseId.parse("B-I:m=2,n=1")
    ctx = build_context(case)
    report = propagate_chain(case, 1, 1, seed=0, ctx=ctx)
    assert report.ok
    (kappa,) = chain_kappas(1, ctx.alg)
    u = candidate_u(CaseParams(case, 1, report.mu0), ctx)
    shap, step = orbit_propagate(ShapovalovElement(ctx.alg.gamma, 1, report.mu0, u.body), kappa, ctx)
    f = ctx.table.f_gen(kappa)
    eng = ctx.engine(tail=(f,))
    theta = eng.import_element(u.body)
    for el in (u.body, theta, eng.lift(f, step.exponent, theta), shap.theta):
        assert el and not non_canonical(el.values())


def random_homogeneous_body(eng, rng):
    """Several orderings of one random multiset of lowering generator
    powers, straightened, with random coefficients: one weight, many terms."""
    table = eng.table
    word = [(rng.randrange(table.n_pos), rng.randint(1, 2)) for _ in range(rng.randint(2, 5))]
    body = {}
    for _ in range(3):
        rng.shuffle(word)
        coef = Fraction(rng.randint(1, 7), rng.randint(1, 3))
        body = el_add(body, eng.multiply(el_one(), {tuple(word): coef}))
    return body


@pytest.mark.parametrize("text", SMALLEST_CASES)
def test_grouped_singularity_check_matches_act(text):
    """is_singular agrees with the straightening reference, residual counts
    and failure image alike, on the candidate, on random homogeneous bodies and
    on a body of two weights, under the default order and a tail order."""
    case = CaseId.parse(text)
    ctx = build_context(case)
    table = ctx.table
    rng = random.Random(f"grouped-check:{text}")
    tail = (table.f_gen(ctx.alg.gamma),)
    failures = 0
    for eng in (ctx.default_engine, ctx.engine(tail=tail)):
        reference = PBWEngine(table, eng.tail)
        for seed in (0, 1):
            lam = default_lambda(case, 1, seed, ctx.alg)
            bodies = [candidate(CaseParams(case, 1, lam), ctx).build(eng).body]
            bodies += [random_homogeneous_body(eng, rng) for _ in range(4)]
            # f_j (B + 1): a leading-power group whose rest has two weights
            f = min((table.f_id(i) for i in ctx.alg.simple_pos_index), key=eng.rank.get)
            bodies.append(eng.multiply(eng.gen(f), el_add(bodies[1], el_one())))
            for body in bodies:
                v = VermaVector(body, lam)
                report = is_singular(v, eng)
                assert report == straightening_is_singular(v, reference), (
                    text, eng.sequence[: table.n_pos], sorted(body))
                failures += report.failure is not None
    assert failures


def test_alternating_highest_weights_match_fresh_engines():
    """One engine that alternates two highest weights gives, for act and
    is_singular, what a fresh engine gives for each weight: the engine
    keeps nothing keyed on a highest weight."""
    case = CaseId.parse("D-II:m=2,n=2")
    ctx = build_context(case)
    table = ctx.table
    eng = PBWEngine(table)
    lams = [default_lambda(case, 2, seed, ctx.alg) for seed in (0, 1)]
    assert lams[0] != lams[1]
    body = candidate_u(CaseParams(case, 2, lams[0]), ctx).body
    rng = random.Random("alternate")
    ids = list(range(table.dim))
    x = {}
    for _ in range(6):
        word = tuple((rng.choice(ids), 1) for _ in range(rng.randint(1, 2)))
        x = el_add(x, eng.multiply(el_one(), {word: rng.randint(1, 5)}))
    for lam in lams * 2:
        v = VermaVector(body, lam)
        fresh = PBWEngine(table, eng.tail)
        assert act(x, v, eng).body == act(x, v, fresh).body
        assert is_singular(v, eng) == is_singular(v, fresh)
    assert is_singular(VermaVector(body, lams[0]), eng).ok


def test_candidates_at_two_weights_share_an_engine():
    """Two candidates at different highest weights, built suffix by suffix
    on one shared engine, with act and is_singular at the other weight in
    between, equal what fresh engines give: each candidate keeps its own
    action, and the engine keeps nothing keyed on a highest weight."""
    case = CaseId.parse("D-II:m=2,n=2")
    ctx = build_context(case)
    table = ctx.table
    shared = PBWEngine(table)
    lams = [default_lambda(case, 2, seed, ctx.alg) for seed in (0, 1)]
    assert lams[0] != lams[1]
    cands = [candidate(CaseParams(case, 2, lam), ctx) for lam in lams]
    ids = cands[0].odd_ids
    f = table.f_id(ctx.alg.simple_pos_index[0])
    for k in reversed(range(len(ids) + 1)):
        for cand, other in zip(cands, reversed(lams)):
            u = cand.build(shared, ids[k:]).body
            fresh = PBWEngine(table, shared.tail)
            assert u == candidate(cand.params, ctx).build(fresh, ids[k:]).body
            v = VermaVector(u, other)
            x = shared.gen(f)
            assert act(x, v, shared).body == act(x, v, PBWEngine(table, shared.tail)).body
            assert is_singular(v, shared) == is_singular(v, PBWEngine(table, shared.tail))
    assert all(is_singular(cand.build(shared), shared).ok for cand in cands)


def test_raising_generator_out_of_a_bracket_is_an_internal_error(monkeypatch):
    """[e_j, x] for a simple e_j and a lowering x has no raising part; a
    table that says otherwise stops the check with a named error."""
    alg, table, eng = setup("B-I:m=1,n=1")
    lam = frac_weight("3/2", 2)
    e = table.e_id(alg.simple_pos_index[0])
    f = table.f_id(alg.simple_pos_index[0])
    v = act(eng.gen(f), highest_weight_vector(lam), eng)
    other = next(table.e_id(i) for i in range(table.n_pos) if table.e_id(i) != e)
    real = table.bracket
    monkeypatch.setattr(
        table, "bracket", lambda y, x: {other: 1} if (y, x) == (e, f) else real(y, x)
    )
    with pytest.raises(UnexpectedRaising, match=table.basis[other].name):
        is_singular(v, eng)


def test_equal_height_raising_out_of_a_bracket_is_an_internal_error(monkeypatch):
    """Commuting a raising g past a lowering x leaves only raising
    generators of lower roots; a table whose [g, x] holds another raising
    generator of g's height stops act with a named error."""
    case = CaseId.parse("D-II:m=2,n=2")
    alg, table, eng = setup(case.text)
    heights = alg.heights
    g, z = next(
        (table.e_id(a), table.e_id(b))
        for a in range(table.n_pos)
        for b in range(table.n_pos)
        if a != b and heights[a] == heights[b] > 1
    )
    f = table.f_id(alg.simple_pos_index[0])
    v = act(eng.gen(f), highest_weight_vector(default_lambda(case, 1, 0, alg)), eng)
    real = table.bracket
    monkeypatch.setattr(
        table, "bracket", lambda y, x: {z: 1} if (y, x) == (g, f) else real(y, x)
    )
    names = [re.escape(table.basis[b].name) for b in (z, g)]
    with pytest.raises(UnexpectedRaising, match="^{} came out of commuting {} ".format(*names)):
        act(eng.gen(g), v, eng)


def reference_pairings(table):
    """<wt(b), h_j> for every basis id b and Cartan generator h_j, one form
    per pair, independent of the bracket table and its cartan_rows."""
    return tuple(
        tuple(_exact(form(table.alg, basis_weight(table, b), dual)) for dual in cartan_duals(table.alg))
        for b in range(table.dim)
    )


SMALL_CASES = [
    CaseId(family, m, n)
    for family in OSP_FAMILIES
    for m in range(1, 4)
    for n in range(2 if family.startswith("D") else 1, 4)
] + [CaseId("F31"), CaseId("G3")]


def test_action_pairings_come_from_the_bracket_table():
    """The table's pairings equal the forms, value and type, [h_j, b] is
    pairings[b][j] b and nothing else, and the action, which reads them,
    holds a <lambda - rho, h_j> equal to the forms, for every case with
    m, n <= 3."""
    pairs = 0
    for case in SMALL_CASES:
        ctx = build_context(case)
        table = ctx.table
        want = reference_pairings(table)
        assert table.pairings == want, case.text
        assert not non_canonical(c for row in table.pairings for c in row), case.text
        for b in range(table.dim):
            for j, c in enumerate(table.pairings[b]):
                assert table.bracket(table.h_id(j), b) == ({b: c} if c else {}), (case.text, b, j)
        lam = default_lambda(case, 1, 0, ctx.alg)
        action = _Action(ctx.default_engine, lam)
        shift = wdiff(lam, ctx.alg.rho)
        forms = [_exact(form(ctx.alg, shift, dual)) for dual in cartan_duals(ctx.alg)]
        assert list(action.shift) == forms and not non_canonical(action.shift), case.text
        pairs += table.n_pos * table.n_cartan
    assert len(SMALL_CASES) == 32 and pairs == 2814
