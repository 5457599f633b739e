"""Propagation of Shapovalov elements along even simple reflections."""

import gc
import weakref

import pytest

from superverma import pbw, singular
from superverma.cli import SMALLEST_CASES
from superverma.pbw import PBWEngine, el_one
from helpers import el_add, words_times
from superverma.rootdata import CaseId, InvalidParams, ParityViolation, wdiff
from superverma.singular import (
    CaseParams,
    ShapovalovElement,
    build_context,
    candidate_u,
    chain_kappas,
    chain_weight,
    default_lambda,
    final_beta,
    orbit_propagate,
    propagate_chain,
)
from superverma.superalgebra import MAX_SHARED_EXPONENT
from superverma.verma import VermaVector, _Action, _integral, act, is_singular
from test_acceptance import CHAINS

CHAIN_CONFIGS = [
    ("D-I:m=3,n=2", 1, 1, "2d1"),
    ("B-I:m=3,n=1", 1, 1, "d1"),
    ("B-II:m=1,n=3", 1, 1, "e1"),
    ("D-II:m=1,n=3", 1, (1, 2), "e1+e2"),
]


def test_single_step_round_trip():
    case = CaseId.parse("B-I:m=2,n=1")
    table = build_context(case)
    report = propagate_chain(table, 1, 1, seed=0)
    assert report.ok
    assert len(report.steps) == 1
    step = report.steps[0]
    assert step.kappa == "d1-d2"
    assert (step.beta_from, step.beta_to) == ("d2", "d1")
    assert step.nu == table.alg.reflect(step.mu, "d1-d2")
    assert step.exponent == step.p + 1  # C=1 and <beta, h_kappa> = -1 here
    assert report.final_beta == "d1"


def test_chain_configs_reach_target():
    for text, C, target, final_name in CHAIN_CONFIGS:
        case = CaseId.parse(text)
        table = build_context(case)
        report = propagate_chain(table, C, target, seed=0)
        assert report.ok, (text, report)
        assert report.case == table.alg.case
        assert report.final_beta == final_name
        assert table.alg.root_named(final_name).index == final_beta(target, table.alg)
        assert all(s.p >= 1 for s in report.steps)


@pytest.fixture(scope="module")
def golden_steps():
    """(engine, f_kappa, theta, lifted, theta', step) at every step of every
    chain in tests/golden and of the one-step B-I m=2 n=1 chain, from the
    lift and the division the step made."""
    lifts, quotients, steps = [], [], []
    real_lift, real_divide = PBWEngine.lift, PBWEngine.right_divide

    def lift(self, f, L, theta):
        got = real_lift(self, f, L, theta)
        lifts.append((self, f, theta, got))
        return got

    def right_divide(self, x, g, p):
        got = real_divide(self, x, g, p)
        quotients.append(got)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PBWEngine, "lift", lift)
        mp.setattr(PBWEngine, "right_divide", right_divide)
        for text, C, target, _ in CHAINS + (("B-I:m=2,n=1", 1, 1, "d1"),):
            case = CaseId.parse(text)
            steps.extend(propagate_chain(build_context(case), C, target, seed=0).steps)
    assert len(lifts) == len(quotients) == len(steps) >= len(CHAINS)
    return [(*lifted, theta2, step) for lifted, theta2, step in zip(lifts, quotients, steps)]


def test_lift_equals_power_times_on_every_golden_chain(golden_steps):
    """At every step of every chain in tests/golden, the adjoint-expansion
    lift gives what walking f_kappa through theta L times gives."""
    for engine, fk, theta, lifted, _, step in golden_steps:
        assert lifted == engine.power_times(fk, step.exponent, theta), step
        assert step.ok, step


def test_lifted_vector_is_its_quotient_times_f_kappa_p(golden_steps):
    """The reference for right_divide, which reads each quotient off the
    normal form: at every step of every chain in tests/golden, theta' times
    f_kappa^p gives the lifted vector again, by multiply and by the
    reference loop that applies one generator power at a time."""
    for engine, fk, _, lifted, theta2, step in golden_steps:
        assert engine.right_divide(lifted, fk, step.p) == theta2, step
        divisor = engine.gen(fk, step.p)
        assert engine.multiply(theta2, divisor) == lifted, step
        assert words_times(theta2, divisor, engine.power_times) == lifted, step


def _append_power(m, f, p):
    """m f^p in normal form, for f the rightmost lowering generator."""
    if m and m[-1][0] == f:
        return m[:-1] + ((f, m[-1][1] + p),)
    return m + ((f, p),)


def test_lifted_images_are_the_image_checks_images_with_f_kappa_appended(golden_steps):
    """The Verma embedding x v_nu -> x f_kappa^p v_mu, term for term: for
    every simple e_i, raising the whole lifted vector in M(mu) gives the
    image check's e_i theta' v_nu with f_kappa^p appended to each monomial,
    and the brute-force singularity check agrees with lifted_singular.
    Those images are all zero, so the same is asserted of theta' less its
    first monomial, whose images are not."""
    for engine, fk, _, lifted, theta2, step in golden_steps:
        table = engine.table
        den, body = _integral(VermaVector(lifted, step.mu), engine)
        den2, body2 = _integral(VermaVector(theta2, step.nu), engine)
        assert den == den2

        def embedded(x):
            return {_append_power(m, fk, step.p): c for m, c in x.items()}

        assert body == embedded(body2)
        lifted_action, image_action = _Action(engine, step.mu), _Action(engine, step.nu)
        nonzero = 0
        for x in (body2, dict(list(body2.items())[1:])):
            for j in table.alg.simple_pos_index:
                e = table.e_id(j)
                want = image_action.apply(e, 1, x)
                assert lifted_action.apply(e, 1, embedded(x)) == embedded(want), (step, j)
                nonzero += bool(want)
        assert nonzero, step
        assert is_singular(VermaVector(lifted, step.mu), engine).ok == step.lifted_singular


def test_embedding_premise_fails_off_p(golden_steps):
    """f_kappa^p v_mu is singular at p = <mu, h_kappa> and at no exponent next
    to it (p - 1 >= 1 only), so the premise check of each step can fail."""
    for engine, fk, _, _, _, step in golden_steps:
        def singular_at(e):
            return is_singular(VermaVector({((fk, e),): 1}, step.mu), engine).ok

        assert singular_at(step.p)
        assert not singular_at(step.p + 1)
        if step.p >= 2:
            assert not singular_at(step.p - 1)


def test_every_pair_of_a_candidate_and_of_each_theta_prime_is_its_tables(golden_steps):
    """Every (generator, exponent) pair of the candidate body of each
    smallest case, at N = 1 and 3, and of theta' at every step of every
    chain in tests/golden is the one object the table's store holds for
    that power, and no exponent there is above the store's bound."""
    bodies = []
    for text in SMALLEST_CASES:
        case = CaseId.parse(text)
        table = build_context(case)
        for N in (1, 3):
            bodies.append((table, candidate_u(CaseParams(N, default_lambda(case, N, 0)), table).body))
    bodies += [(engine.table, theta2) for engine, _, _, _, theta2, _ in golden_steps]
    for table, x in bodies:
        assert x and max(e for m in x for _, e in m) <= MAX_SHARED_EXPONENT
        # get does not fill the store, so a pair built past it fails
        # whether or not its power is stored
        assert [p for m in x for p in m if table.powers.get(p) is not p] == [], table.alg.case.text


def test_a_tables_pair_store_goes_with_the_table(monkeypatch):
    """A table's store is empty when the table is built and filled by the
    runs on it; every engine of the case shares it, it keeps no power
    outside 1..MAX_SHARED_EXPONENT, and it is freed with the table once the
    context budget drops the table.  pbw keeps no store of its own at
    module level."""
    monkeypatch.setattr(singular, "_CONTEXTS", {})
    monkeypatch.setattr(singular, "CONTEXT_BUDGET", 0)
    table = build_context(CaseId.parse("B-I:m=2,n=1"))
    assert len(table.powers) == 0
    report = propagate_chain(table, 1, 1, seed=0)
    assert report.ok and len(table.powers) > 0
    assert PBWEngine(table).table.powers is PBWEngine(table, (0,)).table.powers
    top = MAX_SHARED_EXPONENT
    assert table.powers[0, top] is table.powers[0, top]
    for e in (0, top + 1):
        assert table.powers[0, e] == (0, e) and (0, e) not in table.powers
    store = weakref.ref(table.powers)
    del table, report
    build_context(CaseId.parse("B-II:m=1,n=1"))
    assert "B-I:m=2,n=1" not in singular._CONTEXTS
    gc.collect()
    assert store() is None
    assert [name for name, v in vars(pbw).items() if isinstance(v, dict) and not name.startswith("__")] == []


class _Watched(dict):
    """A body that a weak reference can watch."""


def test_orbit_step_drops_the_lifted_vector_before_its_image_check(monkeypatch):
    """No check reads f_kappa^L theta once right_divide has returned, so on
    every chain in tests/golden the lift's result is gone by the time the
    image check raises theta' v_nu."""
    real_lift, real_divide, real_singular = PBWEngine.lift, PBWEngine.right_divide, singular.is_singular
    lifts, quotients, checked = [], [], []

    def lift(self, f, L, theta):
        got = _Watched(real_lift(self, f, L, theta))
        lifts.append(weakref.ref(got))
        return got

    def right_divide(self, x, g, p):
        got = real_divide(self, x, g, p)
        quotients.append(got)
        return got

    def is_singular_at(v, engine):
        if quotients and v.body is quotients[-1]:
            assert lifts[-1]() is None, "the lifted vector outlived right_divide"
            checked.append(v)
        return real_singular(v, engine)

    monkeypatch.setattr(PBWEngine, "lift", lift)
    monkeypatch.setattr(PBWEngine, "right_divide", right_divide)
    monkeypatch.setattr(singular, "is_singular", is_singular_at)
    steps = 0
    for text, C, target, _ in CHAINS:
        case = CaseId.parse(text)
        report = propagate_chain(build_context(case), C, target, seed=0)
        assert report.ok
        steps += len(report.steps)
    assert len(checked) == len(lifts) == steps >= len(CHAINS)


def test_chain_frees_the_candidate_once_step_1_returns(monkeypatch):
    """propagate_chain takes the start check and the candidate's size before
    step 1 and keeps no other reference to the candidate, so on every chain
    in tests/golden (each of at least two steps) its body is gone when step
    2 starts."""
    real_candidate, real_step = singular.candidate_u, singular.orbit_propagate
    bodies, freed_at_start = [], []

    def candidate_u(params, table):
        u = real_candidate(params, table)
        body = _Watched(u.body)
        bodies.append(weakref.ref(body))
        return VermaVector(body, u.highest_weight)

    def orbit_propagate(shap, kappa, table):
        freed_at_start.append(bodies[-1]() is None)
        return real_step(shap, kappa, table)

    monkeypatch.setattr(singular, "candidate_u", candidate_u)
    monkeypatch.setattr(singular, "orbit_propagate", orbit_propagate)
    for text, C, target, _ in CHAINS:
        case = CaseId.parse(text)
        report = propagate_chain(build_context(case), C, target, seed=0)
        assert report.ok and len(report.steps) >= 2
        assert freed_at_start == [False] + [True] * (len(report.steps) - 1), text
        del freed_at_start[:]
    assert len(bodies) == len(CHAINS)


def test_chain_drops_the_previous_theta_before_each_lift(monkeypatch):
    """The chain hands each step its only reference to the element it
    imports, so on every chain in tests/golden the candidate's body (before
    step 1) and the previous theta' (before every later step) are gone when
    the lift starts; an element a caller passes keeps its theta."""
    real_candidate, real_divide, real_lift = singular.candidate_u, PBWEngine.right_divide, PBWEngine.lift
    previous, gone_at_lift = [], []

    def candidate_u(params, table):
        u = real_candidate(params, table)
        body = _Watched(u.body)
        previous.append(weakref.ref(body))
        return VermaVector(body, u.highest_weight)

    def right_divide(self, x, g, p):
        got = _Watched(real_divide(self, x, g, p))
        previous.append(weakref.ref(got))
        return got

    def lift(self, f, L, theta):
        gone_at_lift.append(previous[-1]() is None)
        return real_lift(self, f, L, theta)

    monkeypatch.setattr(singular, "candidate_u", candidate_u)
    monkeypatch.setattr(PBWEngine, "right_divide", right_divide)
    monkeypatch.setattr(PBWEngine, "lift", lift)
    steps = 0
    for text, C, target, _ in CHAINS:
        case = CaseId.parse(text)
        report = propagate_chain(build_context(case), C, target, seed=0)
        assert report.ok and len(report.steps) >= 2
        steps += len(report.steps)
    assert gone_at_lift == [True] * steps

    case = CaseId.parse("B-I:m=2,n=1")
    table = build_context(case)
    kappas = chain_kappas(1, table.alg)
    mu = chain_weight(1, kappas, seed=0, alg=table.alg)
    theta = real_candidate(CaseParams(1, mu), table).body
    shap = ShapovalovElement(table.alg.gamma, 1, mu, theta)
    kept = dict(theta)
    orbit_propagate(shap, kappas[0], table)
    assert shap.theta is theta and theta == kept


def test_dii_chain_visits_expected_roots():
    case = CaseId.parse("D-II:m=1,n=3")
    table = build_context(case)
    report = propagate_chain(table, 1, (1, 2), seed=1)
    assert [s.beta_to for s in report.steps] == ["e1+e3", "e1+e2"]
    assert [s.kappa for s in report.steps] == ["e1-e2", "e2-e3"]


def test_sl2_commutation_identity_exact():
    """e_kappa f_kappa^l theta v+ = l (p + C a - l) f_kappa^(l-1) theta v+
    whenever theta v+ is singular and e_kappa commutes with theta."""
    case = CaseId.parse("D-I:m=2,n=2")
    table = build_context(case)
    alg = table.alg
    kappas = chain_kappas(1, alg)
    assert len(kappas) == 1
    kappa = kappas[0]
    C, p = 1, 2
    mu = chain_weight(C, kappas, seed=0, alg=alg, p_first=p)
    assert alg.coroot_pairing(mu, kappa) == p
    a = int(-alg.coroot_pairing(alg.gamma.weight, kappa))
    assert a == 2 and p + C * a <= 8
    fk = table.f_gen(kappa)
    engine = PBWEngine(table, (fk,))
    theta = engine.import_element(candidate_u(CaseParams(C, mu), table).body)
    ek = engine.gen(table.e_gen(kappa))
    top = p + C * a
    for l in range(top + 1):
        lifted = VermaVector(engine.multiply(engine.gen(fk, l), theta), mu)
        lhs = act(ek, lifted, engine)
        scale = l * (top - l)
        rhs = VermaVector(engine.multiply(engine.gen(fk, l - 1), theta), mu).scaled(
            scale
        ) if l else VermaVector({}, mu)
        assert lhs.body == rhs.body, l
    # the top lift is singular again, which is what propagation exploits
    assert is_singular(
        VermaVector(engine.multiply(engine.gen(fk, top), theta), mu), engine
    ).ok


def test_chain_weight_honors_p_first():
    case = CaseId.parse("B-I:m=3,n=1")
    table = build_context(case)
    kappas = chain_kappas(1, table.alg)
    for p in (1, 3):
        mu = chain_weight(1, kappas, seed=0, alg=table.alg, p_first=p)
        assert table.alg.coroot_pairing(mu, kappas[0]) == p


def test_chain_weight_refuses_p_first_without_a_chain():
    """A pinned first pairing with no reflection to pin is a usage error."""
    alg = build_context(CaseId.parse("B-I:m=2,n=1")).alg
    assert chain_kappas(2, alg) == []
    with pytest.raises(InvalidParams, match="--p"):
        chain_weight(1, [], seed=0, alg=alg, p_first=5)
    assert len(chain_weight(1, [], seed=0, alg=alg)) == alg.rank


def test_orbit_propagate_validation():
    case = CaseId.parse("B-I:m=2,n=1")
    table = build_context(case)
    alg = table.alg
    kappas = chain_kappas(1, alg)
    mu = chain_weight(1, kappas, seed=0, alg=alg)
    u = candidate_u(CaseParams(1, mu), table)
    shap = ShapovalovElement(alg.gamma, 1, mu, u.body)
    with pytest.raises(InvalidParams):
        orbit_propagate(shap, "d2-e1", table)  # odd simple
    with pytest.raises(InvalidParams):
        orbit_propagate(shap, "2d1", table)  # even but not simple
    # reflecting back: <s_kappa mu, h_kappa> = -p
    moved, _ = orbit_propagate(shap, kappas[0], table)
    with pytest.raises(InvalidParams):
        orbit_propagate(moved, kappas[0], table)
    # a beta that kappa lowers, at a mu that still pairs with kappa to p
    with pytest.raises(InvalidParams, match=f"reflection in d1-d2 does not move {moved.beta.name} up"):
        orbit_propagate(ShapovalovElement(moved.beta, 1, mu, u.body), kappas[0], table)


@pytest.mark.parametrize("spoil", ["shifted", "mixed"])
def test_orbit_weight_check_bites(monkeypatch, spoil):
    """A theta' multiplied by one extra lowering generator, or with a stray
    monomial of another weight, fails weight_ok instead of raising."""
    case = CaseId.parse("B-I:m=2,n=1")
    table = build_context(case)
    alg = table.alg
    kappas = chain_kappas(1, alg)
    mu = chain_weight(1, kappas, seed=0, alg=alg)
    shap = ShapovalovElement(alg.gamma, 1, mu, candidate_u(CaseParams(1, mu), table).body)
    assert orbit_propagate(shap, kappas[0], table)[1].weight_ok
    real = PBWEngine.right_divide

    def spoiled(self, x, g, p):
        quotient = real(self, x, g, p)
        if spoil == "shifted":
            return self.multiply(self.gen(0), quotient)
        return el_add(quotient, el_one())

    monkeypatch.setattr(PBWEngine, "right_divide", spoiled)
    _, step = orbit_propagate(shap, kappas[0], table)
    assert not step.weight_ok
    assert not step.ok


def test_orbit_propagate_needs_integral_positive_pairing():
    case = CaseId.parse("B-I:m=2,n=1")
    table = build_context(case)
    alg = table.alg
    lam = chain_weight(1, chain_kappas(1, alg), seed=0, alg=alg)
    flat = (lam[1],) + lam[1:]  # pairing with d1-d2 becomes zero
    u = candidate_u(CaseParams(1, flat), table)
    shap = ShapovalovElement(alg.gamma, 1, flat, u.body)
    with pytest.raises(InvalidParams):
        orbit_propagate(shap, "d1-d2", table)


def test_chain_target_validation():
    alg_f31 = build_context(CaseId.parse("F31")).alg
    with pytest.raises(InvalidParams):
        chain_kappas(1, alg_f31)
    bad_targets = {
        "D-II:m=1,n=3": ((2, 2), (0, 1), (1, 4), 1, (1, 2, 3)),
        "B-I:m=2,n=1": (0, 3, (1, 2), (1, 2, 3)),
        "B-II:m=1,n=3": (0, 4, (1, 2), (1, 2, 3)),
        "D-I:m=3,n=2": (0, 4, (2, 1), (1, 2, 3)),
    }
    for text, targets in bad_targets.items():
        alg = build_context(CaseId.parse(text)).alg
        for bad in targets:
            with pytest.raises(InvalidParams):
                chain_kappas(bad, alg)


def test_chain_weight_parity_and_failure():
    case = CaseId.parse("B-I:m=2,n=1")
    alg = build_context(case).alg
    with pytest.raises(ParityViolation):
        chain_weight(2, chain_kappas(1, alg), seed=0, alg=alg)
    with pytest.raises(InvalidParams):
        chain_weight(0, [], seed=0, alg=alg)


def test_empty_chain_when_target_is_start():
    case = CaseId.parse("B-I:m=2,n=1")
    table = build_context(case)
    report = propagate_chain(table, 1, 2, seed=0)
    assert report.steps == ()
    assert report.ok
    assert report.final_beta == "d2"
