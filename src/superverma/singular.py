"""Candidate singular vectors, orbit propagation, and witness coefficients.

For a case with distinguished root gamma and a weight lambda satisfying
<lambda, h_gamma> = N, the candidate vector u lives in M(lambda) at weight
lambda - rho - N*gamma: a product of odd raising generators summing to
c*gamma, straightened once in U(n^+), acts once on f_gamma^(N + c) v+.
In the osp families those factors are read off gamma's support: the
pivots are the unit vectors there, the block is the other letter's
coordinates.  Everything but lambda is lambda-free and named by
positive-root index: the factors, the tail, the witness ladder and the
orbit chain's kappas and final beta are found by int steps on the root
data's packed lattice (AlgebraData.keys, unit_key and at), and weights are
compared as lattice points.

A case is its bracket table (build_context): every entry point takes the
table, reads the case from table.alg, and builds the engines it uses,
which cache nothing.

A Shapovalov element (beta, C, mu, theta) records theta in U(n^-) with
theta v+ singular in M(mu) at weight mu - rho - C*beta.  Reflecting in an
even simple root kappa with p = <mu, h_kappa> a positive integer moves it
to (s_kappa beta, C, s_kappa mu, theta') where theta' is the exact right
quotient of f_kappa^(p + C*a) theta by f_kappa^p and a = -<beta, h_kappa>.
In the osp families the chain of such kappas is derived from gamma as well:
gamma's support moves down its own letter's coordinates, one place per
reflection, until it sits on the target places.

Witness data pins published basis presentations: a fixed ordering of the
lowering generators per case and, for each step k of the evaluation chain,
a monomial v_k whose coefficient in the partial product u_k must not
vanish.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .pbw import Inhomogeneous, Monomial, PBWEngine, UEAElement
from .rootdata import (
    AlgebraData,
    CaseId,
    Exact,
    InvalidParams,
    ParityViolation,
    RootDataError,
    RootDatum,
    RootSpec,
    Weight,
    _quotient,
    build_algebra_data,
    format_weight,
    pairing,
)
from .superalgebra import BracketTable, Coefficient, _exact, _merge, build_structure_constants
from .verma import VermaVector, _Action, is_singular


# the largest superalgebra a case may have, by dimension: set-up grows about
# as dim^2 to dim^2.5, and D-II m=n=10 (dim 800) takes about 0.17 s on a
# 2-core VM and stores the 63,560 nonzero of its 640,000 bracket pairs
MAX_CASE_DIM = 800
# the tables held at once, by the sum of their dim^2, so this is one
# largest case.  A table stores its nonzero brackets only, 12% of dim^2
# at D-II m=n=8 and 10% at m=n=10, so the count is conservative by that much
CONTEXT_BUDGET = MAX_CASE_DIM ** 2
# the largest level (N for verify, C for orbit) of an odd gamma (B-I, G3):
# there f_gamma^L carries the exact scalar (c/2)^(L div 2) of
# x^2 = [x, x] / 2, about L/2 bits, so memory grows with L and verify's
# checks take time about quadratic in L: B-I m=n=1 at N = 10^6 + 1 takes
# 0.4 s on a 2-core VM, at 4 * 10^6 + 1 6 s
MAX_ODD_LEVEL = 10**6 + 1

# by case text, least recently used first
_CONTEXTS: Dict[str, BracketTable] = {}


def check_case_size(case: CaseId, lead: str) -> None:
    """InvalidParams, led by lead, when case is larger than MAX_CASE_DIM."""
    if case.dim > MAX_CASE_DIM:
        raise InvalidParams(f"{lead} {case.text} of dimension {case.dim}, more than the {MAX_CASE_DIM} a case may have")


def check_level(case: CaseId, level: int, name: str) -> None:
    """A level, named name (N for verify, C for orbit), is a positive integer
    and, for an odd gamma (B-I, G3), odd (ParityViolation) and at most
    MAX_ODD_LEVEL.  It reads the CaseId alone, so it needs no set-up."""
    if level < 1:
        raise InvalidParams(f"{name} must be a positive integer, got {level}")
    if case.odd_gamma and level % 2 == 0:
        raise ParityViolation(f"{case.family} needs an odd level, got {name}={level}")
    if case.odd_gamma and level > MAX_ODD_LEVEL:
        raise InvalidParams(f"{case.family} has an odd gamma and takes a level of at most {MAX_ODD_LEVEL}, got {name}={level}")


def build_context(case: CaseId) -> BracketTable:
    """The case's bracket table, whose alg is its root data, built on first
    use (InvalidParams above MAX_CASE_DIM, before anything is built).
    Building one drops the least recently used others until the tables held
    fit in CONTEXT_BUDGET."""
    key = case.text
    table = _CONTEXTS.pop(key, None)
    if table is not None:
        _CONTEXTS[key] = table
        return table
    check_case_size(case, "cannot build")
    table = build_structure_constants(build_algebra_data(case))
    held = table.dim ** 2 + sum(t.dim ** 2 for t in _CONTEXTS.values())
    while _CONTEXTS and held > CONTEXT_BUDGET:
        held -= _CONTEXTS.pop(next(iter(_CONTEXTS))).dim ** 2
    _CONTEXTS[key] = table
    return table


# ---------------------------------------------------------------------------
# parameters


class CaseParams(NamedTuple):
    N: int
    lam: Weight


def validate_params(params: CaseParams, alg: AlgebraData) -> None:
    check_level(alg.case, params.N, "N")
    if len(params.lam) != alg.rank:
        raise InvalidParams("lambda has the wrong number of coordinates")
    got = alg.coroot_pairing(params.lam, alg.gamma)
    if got != params.N:
        raise InvalidParams(
            f"<lambda, h_gamma> = {got}, expected N = {params.N}"
        )


def default_lambda(case: CaseId, N: int, seed: int) -> Weight:
    """Deterministic weight with <lambda, h_gamma> = N; other coordinates
    are small seeded integers.  N is checked before the case is built."""
    check_level(case, N, "N")
    alg = build_context(case).alg
    rng = random.Random(f"{case.text}:{N}:{seed}")
    coords = [rng.randint(-3, 3) for _ in range(alg.rank)]
    return _solve_level(alg, coords, N, max(_support(alg)))


def _solve_level(alg: AlgebraData, coords: List[Exact], N, k: int) -> Weight:
    """Set coords[k] so that <coords, h_gamma> = N, one dot product with
    gamma's coroot row, which is linear in coords, kept canonical."""
    row = alg.coroot_rows[alg.gamma.index]
    coords[k] = 0
    rest = pairing(row, coords)
    coords[k] = _quotient(N - rest, dict(row)[k])
    lam = tuple(coords)
    if alg.coroot_pairing(lam, alg.gamma) != N:
        raise RootDataError(f"solving <lambda, h_gamma> = {N} for {alg.case.text} failed")
    return lam


# ---------------------------------------------------------------------------
# candidate vectors


def _support(alg: AlgebraData) -> List[int]:
    """gamma's support: the coordinates where it is nonzero."""
    return [k for k, c in enumerate(alg.lattice[alg.gamma.index]) if c]


def _letters(alg: AlgebraData) -> Tuple[List[int], range, range]:
    """gamma's support, the coordinates of its letter (d or e) and those of
    the other letter.  Only the osp cases have letters; gamma's orbit in the
    others is a single point."""
    if not alg.case.m:
        raise InvalidParams(f"{alg.case.family} has a single-point orbit; nothing to propagate")
    support = _support(alg)
    d, e = range(alg.case.m), range(alg.case.m, alg.rank)
    return (support, d, e) if support[0] < alg.case.m else (support, e, d)


def _osp_shape(alg: AlgebraData) -> Tuple[List[int], List[int]]:
    """The pivots and the block of an osp case, as keys on the packed
    lattice: the pivots are the unit vectors on gamma's support, last first;
    the block b_1..b_K is the other letter's unit vectors, and the odd
    factors are p -+ b."""
    support, _, other = _letters(alg)
    return [alg.unit_key(k) for k in reversed(support)], [alg.unit_key(k) for k in other]


def _gamma_multiple(alg: AlgebraData, roots: Sequence[int]) -> int:
    """The integer c with the sum of the roots (positive-root indices) c * gamma."""
    total = [sum(c) for c in zip(*(alg.lattice[i] for i in roots))]
    gamma = alg.lattice[alg.gamma.index]
    k = next(i for i, x in enumerate(gamma) if x)
    c, r = divmod(total[k], gamma[k])
    if r or [c * x for x in gamma] != total:
        raise RootDataError(f"the odd factors of {alg.case.text} do not sum to a multiple of gamma")
    return c


class Candidate:
    """One point's candidate, validated and derived once: the odd raising
    factors (positive-root indices in application order, leftmost first),
    which sum to c * gamma, and as raising generator ids, and the lowering
    tail f_gamma^(N + c) as a monomial of lowering generator ids."""

    def __init__(
        self, params: CaseParams, odd: Tuple[int, ...], odd_ids: Tuple[int, ...], tail_ids: Monomial
    ) -> None:
        self.params = params
        self.odd = odd
        self.odd_ids = odd_ids
        self.tail_ids = tail_ids

    def build(
        self,
        engine: PBWEngine,
        factors: Optional[Sequence[int]] = None,
        images: Optional[Dict[Monomial, UEAElement]] = None,
    ) -> VermaVector:
        """The word of raising factors, as generator ids (the odd factors
        by default), straightened in U(n^+), acting once on images[()] v+
        through _Action.words, which reads and extends images: U(n^+)
        monomials' images on images[()] v+ under this engine and lambda.
        By default images is fresh, on the candidate's tail, and dropped
        when the call returns."""
        lam = self.params.lam
        factors = self.odd_ids if factors is None else factors
        if images is None:
            images = {(): engine.import_element({self.tail_ids: 1})}
        powers = engine.table.powers
        word = engine.import_element({tuple(powers[g, 1] for g in factors): 1})
        return VermaVector(_Action(engine, lam).words(word, images), lam)


# the F31 and G3 odd factors, by root name, in application order
F31_FACTOR_ORDER = ("+---", "+--+", "+-+-", "+-++", "++--", "++-+", "+++-", "++++")
G3_FACTOR_ORDER = ("D-e1", "D+e1", "D-e2", "D+e2", "D-e3", "D+e3")


def candidate(params: CaseParams, table: BracketTable) -> Candidate:
    """The params, validated against the table's case, with their odd
    factors and tail, as positive-root indices and as the table's generator
    ids."""
    alg = table.alg
    validate_params(params, alg)
    family = alg.case.family
    if family in ("F31", "G3"):
        odd = [alg.as_index(name) for name in (F31_FACTOR_ORDER if family == "F31" else G3_FACTOR_ORDER)]
    else:
        pivots, block = _osp_shape(alg)
        odd = [alg.root_of(p + s * b) for p in pivots for b in block for s in (-1, 1)]
    top = params.N + _gamma_multiple(alg, odd)
    return Candidate(
        params,
        tuple(odd),
        tuple(table.e_id(i) for i in odd),
        (table.powers[table.f_id(alg.gamma.index), top],),
    )


def candidate_u(params: CaseParams, table: BracketTable) -> VermaVector:
    """The candidate singular vector of weight lambda - rho - N*gamma."""
    return candidate(params, table).build(PBWEngine(table))


def claimed_drop(params: CaseParams, alg: AlgebraData) -> Tuple[int, ...]:
    """N * gamma on the lattice (alg.from_lattice gives the weight)."""
    return tuple(params.N * c for c in alg.lattice[alg.gamma.index])


def _of_weight(engine: PBWEngine, x: UEAElement, point: Tuple[int, ...]) -> bool:
    """Whether x is nonzero and every monomial of x has the lattice weight point."""
    try:
        return engine.element_lattice(x) == point
    except Inhomogeneous:
        return False


# ---------------------------------------------------------------------------
# orbit propagation


class ShapovalovElement:
    """theta, of weight mu, at root beta and level C; compared by identity."""

    def __init__(self, beta: RootDatum, C: int, mu: Weight, theta: UEAElement) -> None:
        self.beta = beta
        self.C = C
        self.mu = mu
        self.theta = theta


class _Handed(ShapovalovElement):
    """The chain's own element: the step that imports its theta drops it."""


class OrbitStep(NamedTuple):
    kappa: str
    beta_from: str
    beta_to: str
    p: int
    exponent: int
    mu: Weight
    nu: Weight
    theta_terms: int
    start_singular: bool
    lifted_singular: bool
    image_singular: bool
    weight_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.start_singular
            and self.lifted_singular
            and self.image_singular
            and self.weight_ok
        )


def orbit_propagate(shap: ShapovalovElement, kappa, table: BracketTable) -> Tuple[ShapovalovElement, OrbitStep]:
    """Reflect shap in the even simple root kappa: lift theta to
    f_kappa^L theta with L = p + C*a, divide f_kappa^p off on the right, and
    check the start, lifted and image vectors.

    The lifted vector is certified through the Verma embedding, not raised
    whole (see Musson, "Lie Superalgebras and Enveloping Algebras", AMS
    GSM 131, 2012).  With p = <mu, h_kappa>, f_kappa^p v_mu is singular of
    weight nu - rho, so x v_nu -> x f_kappa^p v_mu is a module map
    M(nu) -> M(mu).  f_kappa is the engine's rightmost generator, so the
    map appends f_kappa^p to each normal-form monomial, which is injective
    on bodies.  right_divide finds every monomial of the lifted vector a
    normal-form monomial of U(n^-) ending in f_kappa^p (WrongOrder or
    NotDivisible otherwise), so lifted = theta' f_kappa^p term by term,
    each e_i . lifted v_mu is e_i . theta' v_nu with f_kappa^p appended,
    and lifted v_mu is nonzero and singular exactly when the one-monomial
    premise f_kappa^p v_mu is singular and theta' v_nu is.

    So the step holds theta only until the lift returns and the lifted
    vector, its largest element, only until right_divide returns: the image
    check and everything after it see theta' alone.  shap stays intact
    unless it is the chain's own (_Handed), whose theta goes once imported."""
    alg = table.alg
    kdatum = alg.pos_roots[alg.as_index(kappa)]
    if kdatum.odd or kdatum.index not in alg.simple_pos_index:
        raise InvalidParams(f"{kdatum.name} is not an even simple root")
    p_frac = alg.coroot_pairing(shap.mu, kdatum)
    if p_frac.denominator != 1 or p_frac <= 0:
        raise InvalidParams(
            f"<mu, h_{kdatum.name}> = {p_frac} must be a positive integer"
        )
    p = int(p_frac)
    a_frac = -alg.coroot_pairing(shap.beta.weight, kdatum)
    if a_frac.denominator != 1 or a_frac < 1:
        raise InvalidParams(
            f"reflection in {kdatum.name} does not move {shap.beta.name} up"
        )
    a = int(a_frac)
    L = p + shap.C * a
    fk = table.f_id(kdatum.index)
    engine = PBWEngine(table, (fk,))
    theta = engine.import_element(shap.theta)
    if isinstance(shap, _Handed):
        shap.theta = {}
    start_ok = is_singular(VermaVector(theta, shap.mu), engine).ok
    lifted = engine.lift(fk, L, theta)
    del theta
    premise_ok = is_singular(VermaVector({(table.powers[fk, p],): 1}, shap.mu), engine).ok
    theta2 = engine.right_divide(lifted, fk, p)
    del lifted
    nu = alg.reflect(shap.mu, kdatum)
    # s_kappa beta = beta + a kappa, a positive root, found by its key
    beta2 = alg.pos_roots[alg.root_of(alg.keys[shap.beta.index] + a * alg.keys[kdatum.index])]
    image_ok = is_singular(VermaVector(theta2, nu), engine).ok
    weight_ok = (
        _of_weight(engine, theta2, tuple(-shap.C * c for c in alg.lattice[beta2.index]))
        and alg.coroot_pairing(nu, beta2) == shap.C
    )
    step = OrbitStep(
        kappa=kdatum.name,
        beta_from=shap.beta.name,
        beta_to=beta2.name,
        p=p,
        exponent=L,
        mu=shap.mu,
        nu=nu,
        theta_terms=len(theta2),
        start_singular=start_ok,
        lifted_singular=premise_ok and image_ok,
        image_singular=image_ok,
        weight_ok=weight_ok,
    )
    return ShapovalovElement(beta2, shap.C, nu, theta2), step


OrbitTarget = Union[int, Tuple[int, int]]


def _target_places(target: OrbitTarget, alg: AlgebraData) -> Tuple[List[int], range, List[int]]:
    """gamma's support, its block and the target: one strictly increasing
    1-based place in the block per support coordinate (an int for one)."""
    support, block, _ = _letters(alg)
    k, K = len(support), len(block)
    places = (target,) if k == 1 else target
    ok = isinstance(places, tuple) and len(places) == k and all(isinstance(t, int) for t in places)
    if not (ok and 1 <= places[0] and places[-1] <= K and all(a < b for a, b in zip(places, places[1:]))):
        shape = f"an index in 1..{K}" if k == 1 else f"a pair 1 <= i < j <= {K}"
        raise InvalidParams(f"target must be {shape}")
    return support, block, list(places)


def chain_kappas(target: OrbitTarget, alg: AlgebraData) -> List[int]:
    """The even simple roots x_(i-1) - x_i, as positive-root indices, that
    walk gamma's support down its block to the target: each moves the
    highest support coordinate that is above its target and not directly
    above the next lower one."""
    support, block, want = _target_places(target, alg)
    here = [block.index(k) + 1 for k in support]
    x = [alg.unit_key(k) for k in block]
    out = []
    while here != want:
        s = max(s for s, i in enumerate(here) if i > want[s] and (s == 0 or i - 1 > here[s - 1]))
        here[s] -= 1
        out.append(alg.root_of(x[here[s] - 1] - x[here[s]]))
    return out


def final_beta(target: OrbitTarget, alg: AlgebraData) -> int:
    """The positive-root index of gamma's coefficients on the target places:
    d_t, 2d_t, e_t or e_i + e_j.  gamma's lattice coordinates count units of
    1 / weight_den, and every unit key is a multiple of weight_den."""
    support, block, want = _target_places(target, alg)
    gamma = alg.lattice[alg.gamma.index]
    key = sum(gamma[k] * alg.unit_key(block[t - 1]) for k, t in zip(support, want))
    return alg.root_of(key // alg.weight_den)


def chain_weight(
    C: int,
    kappas: Sequence[int],
    seed: int,
    alg: AlgebraData,
    p_first: Optional[int] = None,
) -> Weight:
    """Seeded weight with <mu, h_gamma> = C whose chain pairings all come
    out as positive integers.  The level is solved on gamma's support (in
    D-II after drawing its second coordinate -k), and the rest of gamma's
    block rises from there by seeded gaps (p_first for the first kappa).
    Each kappa then pairs a moving support coordinate with a larger one by
    an integer gap, so a failed check is a fault of the program."""
    check_level(alg.case, C, "C")
    if p_first is not None and p_first < 1:
        raise InvalidParams("p must be a positive integer")
    if p_first is not None and not kappas:
        raise InvalidParams(
            f"p (--p) pins the first reflection, but this chain of {alg.case.text} has none"
        )
    support, block, _ = _letters(alg)
    forced_gap = None
    if p_first is not None:
        forced_gap = next(i for i, x in enumerate(alg.lattice[kappas[0]]) if x > 0)
    rng = random.Random(f"chain:{alg.case.text}:{C}:{seed}:0")  # ":0" keeps the seeds in use
    coords = [rng.randint(-3, 3) for _ in range(alg.rank)]
    for k in support[1:]:
        coords[k] = -rng.randint(1, 3)
    _solve_level(alg, coords, C, support[0])
    for idx in reversed(block):
        if idx not in support:
            coords[idx] = coords[idx + 1] + (p_first if forced_gap == idx else rng.randint(1, 3))
    mu = cur = tuple(coords)
    for j, k in enumerate(kappas):
        p = alg.coroot_pairing(cur, k)
        if p.denominator != 1 or p <= 0 or (j == 0 and p_first is not None and p != p_first):
            raise RootDataError(f"{alg.case.text}: chain weight {format_weight(mu)}"
                                f" pairs to {p} with {alg.pos_roots[k].name}")
        cur = alg.reflect(cur, k)
    return mu


class ChainReport(NamedTuple):
    case: CaseId
    C: int
    target: OrbitTarget
    seed: int
    mu0: Weight
    start_singular: bool
    start_terms: int
    steps: Tuple[OrbitStep, ...]
    final_beta: str
    final_ok: bool

    @property
    def ok(self) -> bool:
        return self.start_singular and self.final_ok and all(s.ok for s in self.steps)


def propagate_chain(
    table: BracketTable,
    C: int,
    target: OrbitTarget,
    seed: int,
    p_first: Optional[int] = None,
) -> ChainReport:
    alg = table.alg
    kappas = chain_kappas(target, alg)
    mu = chain_weight(C, kappas, seed, alg, p_first=p_first)
    # only shap holds the candidate's body and each theta', freed once imported
    shap = _Handed(alg.gamma, C, mu, candidate_u(CaseParams(C, mu), table).body)
    start_singular = is_singular(VermaVector(shap.theta, mu), PBWEngine(table)).ok
    start_terms = len(shap.theta)
    steps: List[OrbitStep] = []
    for k in kappas:
        shap, step = orbit_propagate(shap, k, table)
        shap = _Handed(shap.beta, C, shap.mu, shap.theta)
        steps.append(step)
    return ChainReport(
        case=alg.case,
        C=C,
        target=target,
        seed=seed,
        mu0=mu,
        start_singular=start_singular,
        start_terms=start_terms,
        steps=tuple(steps),
        final_beta=shap.beta.name,
        final_ok=shap.beta.index == final_beta(target, alg),
    )


# ---------------------------------------------------------------------------
# witness bases


class WitnessStep(NamedTuple):
    label: int
    # positive-root indices of the raising factors, and (index, exponent)
    # pairs of the lowering monomial
    e_factors: Tuple[int, ...]
    v_mono: Tuple[Tuple[int, int], ...]


class WitnessSpec(NamedTuple):
    # the lowering generators the witness engine orders last, as positive-root indices
    order_tail: Tuple[int, ...]
    # the last step applies no factor: its v_mono is the tail every step acts on
    steps: Tuple[WitnessStep, ...]


def _pair_desc(indices: Sequence[int]) -> List[Tuple[int, int]]:
    pairs = [(i, j) for i in indices for j in indices if i < j]
    return sorted(pairs, key=lambda ij: (-(ij[0] + ij[1]), -ij[0]))


def _f_power(alg: AlgebraData, i: int, e: int) -> Tuple[Tuple[int, int], ...]:
    """f_i^e as PBW exponents: an odd f_i squares into f_{2i}, so its power
    is f_i^(e mod 2) f_{2i}^(e div 2)."""
    if alg.pos_roots[i].odd:
        return ((i, e % 2), (alg.root_of(2 * alg.keys[i]), e // 2))
    return ((i, e),)


def _named_spec(alg: AlgebraData, order, factors, v_monos) -> WitnessSpec:
    """A hand-written spec, its roots given by name or index, resolved once:
    step k, from 0, applies factors[k:] and reads v_monos[k]."""
    ix = alg.as_index
    steps = tuple(
        WitnessStep(k, tuple(ix(r) for r in factors[k:]), tuple((ix(r), e) for r, e in mono))
        for k, mono in enumerate(v_monos)
    )
    return WitnessSpec(tuple(ix(r) for r in order), steps)


def witness_spec(cand: Candidate, alg: AlgebraData) -> WitnessSpec:
    """The lowering generators to order last and the witness ladder.

    In the osp families, step k applies the odd factors p -+ b_i with
    i >= k to the tail; its monomial is a lowering path of weight gamma
    times a power of f_gamma, and step K + 1 is the bare tail.
    """
    N = cand.params.N
    ((_, top),) = cand.tail_ids
    g = alg.gamma.index
    tail = _f_power(alg, g, top)

    if alg.case.family == "F31":
        c = cand.odd
        order = ["e3", "e2", "e1", "e2+e3", "e2-e3", "e1+e3", "e1-e3", "e1+e2", "e1-e2", *c, "D"]
        v_monos = [
            (("e3", 1), ("e2-e3", 1), ("e1-e2", 1), (c[0], 1), (c[3], 1), ("D", N - 1)),
            (("e2-e3", 1), ("e1-e2", 1), (c[0], 1), (c[1], 1), (c[3], 1), ("D", N - 1)),
            (("e1-e2", 1), (c[0], 1), (c[1], 1), (c[2], 1), (c[3], 1), ("D", N - 1)),
            (*((ci, 1) for ci in c[:5]), ("D", N - 1)),
            (*((ci, 1) for ci in c[:4]), ("D", N)),
            (*((ci, 1) for ci in c[:3]), ("D", N + 1)),
            (*((ci, 1) for ci in c[:2]), ("D", N + 2)),
            ((c[0], 1), ("D", N + 3)),
            tail,
        ]
        return _named_spec(alg, order, c, v_monos)

    if alg.case.family == "G3":
        M = (N - 1) // 2
        order = [
            "e1+e2", "e2", "e1", "e1+2e2", "2e1+e2", "e2-e1",
            "D-e3", "D+e3", "D-e2", "D+e2", "D-e1", "D+e1", "D", "2D",
        ]
        factors = ("D+e1", "D+e2", "D-e1", "D-e2", "D+e3", "D-e3")
        v_monos = [
            (("e1", 2), ("e2-e1", 1), ("D+e3", 1), ("2D", M)),
            (("e1", 2), ("D+e3", 1), ("D+e2", 1), ("2D", M)),
            (("e1", 1), ("D-e3", 1), ("D+e3", 1), ("D+e2", 1), ("2D", M)),
            (("D-e3", 1), ("D+e3", 1), ("D+e2", 1), ("D", 1), ("2D", M)),
            (("D-e3", 1), ("D+e3", 1), ("D", 1), ("2D", M + 1)),
            (("D+e3", 1), ("D", 1), ("2D", M + 2)),
            tail,
        ]
        return _named_spec(alg, order, factors, v_monos)

    pivots, block = _osp_shape(alg)
    root, at = alg.root_of, alg.at
    K = len(block)
    stride = (top - N) // K  # gamma multiple that one block index contributes
    covered: List[int] = []
    for b in reversed(block):
        covered += [at[w] for w in (b, 2 * b) if w in at][:1]
    for i, j in _pair_desc(range(K)):
        covered += [root(block[i] + block[j]), root(block[i] - block[j])]
    covered += [root(p + s * b) for b in reversed(block) for p in pivots for s in (-1, 1)]
    on_pivots = set(_support(alg))
    covered += [
        i
        for i in sorted(range(len(alg.pos_roots)), key=lambda i: (alg.heights[i], i))
        if all(k in on_pivots for k, c in enumerate(alg.lattice[i]) if c)
    ]
    top_root = at.get(len(pivots) * block[-1])
    if top_root is None:
        top_root = root(pivots[0] + block[-1])
    steps = []
    for k in range(1, K + 2):
        factors = tuple(root(p + s * b) for b in block[k - 1:] for p in pivots for s in (-1, 1))
        if k <= K:
            mono = [(top_root, 1)]
            mono += [(root(block[i - 1] - block[i]), len(pivots)) for i in range(K - 1, k - 1, -1)]
            mono += [(root(p - block[k - 1]), 1) for p in pivots]
            mono += _f_power(alg, g, N + stride * (k - 1) - 1)
        else:
            mono = tail
        steps.append(WitnessStep(k, factors, tuple(mono)))
    return WitnessSpec(tuple(covered), tuple(steps))


class WitnessRow(NamedTuple):
    label: int
    coefficient: Coefficient
    weight_ok: bool


class WitnessReport(NamedTuple):
    rows: Tuple[WitnessRow, ...]
    candidate_coefficient: Coefficient

    @property
    def ok(self) -> bool:
        return all(r.coefficient != 0 and r.weight_ok for r in self.rows) and (
            self.candidate_coefficient != 0
        )


def witness_monomial(engine: PBWEngine, mono_spec: Sequence[Tuple[RootSpec, int]]):
    """Normalize a (root, exponent) list, each root a positive-root index or
    any other RootSpec, into an engine monomial.  Zero exponents are allowed
    in specs at small N and drop out here; what is left must be a
    normal-form monomial (WrongOrder otherwise)."""
    table = engine.table
    pairs = [table.powers[table.f_gen(r), e] for r, e in mono_spec if e]
    pairs.sort(key=lambda ge: engine.rank[ge[0]])
    mono = tuple(pairs)
    engine.check_lowering(mono)
    return mono


def run_witness(cand: Candidate, table: BracketTable) -> WitnessReport:
    spec = witness_spec(cand, table.alg)
    engine = PBWEngine(table, [table.f_id(i) for i in spec.order_tail])
    # every build reads one dict on the candidate's tail in normal form, s * tail,
    # with s = (c/2)^k for an odd gamma through x^2 = [x, x] / 2, else 1
    ((tail, s),) = engine.import_element({cand.tail_ids: 1}).items()
    images = {(): {tail: 1}}
    rows = []
    for step in spec.steps:
        ids = [table.e_id(i) for i in step.e_factors]
        u_k = cand.build(engine, ids, images)
        mono = witness_monomial(engine, step.v_mono)
        coeff = u_k.body.get(mono, 0)
        weight_ok = _of_weight(engine, u_k.body, engine.element_lattice({mono: 1}))
        rows.append(WitnessRow(step.label, coeff, weight_ok))
    u = cand.build(engine, images=images)
    first = u.body.get(witness_monomial(engine, spec.steps[0].v_mono), 0)
    return WitnessReport(tuple(rows), _exact(s * first))


def signflip_counterexample(cand: Candidate, engine: PBWEngine) -> Optional[str]:
    """None when every order of the odd factors builds u or -u, by a
    certificate; else a text naming the premise that fails.

    Call factor positions i < j a clashing pair when their generators'
    bracket is nonzero; factors whose bracket is 0 supercommute in U(g).
    The premises: (1) the clashing pairs are disjoint, and (2) each pair's
    bracket [x, y] kills the tail vector f_gamma^(N + c) v+.  With (1),
    every order's word is +- a product of blocks, x y or y x, one per pair,
    and of the unpaired factors, as a factor outside a pair supercommutes
    with both of its members.  y x = [x, y] - x y, and by Jacobi [x, y]
    supercommutes with every factor outside its pair, so each term of the
    expanded word that holds a bracket carries it onto the tail, where (2)
    makes it 0: the word acts as +- the candidate's own, and none is built."""
    ids = cand.odd_ids
    table = engine.table
    name = [table.basis[g].name for g in ids]
    clash = [(i, j) for i in range(len(ids)) for j in range(i + 1, len(ids)) if table.bracket(ids[i], ids[j])]
    places = [k for pair in clash for k in pair]
    shared = next((k for k in places if places.count(k) > 1), None)
    if shared is not None:
        partners = " and ".join(name[i + j - shared] for i, j in clash if shared in (i, j))
        return f"factor {name[shared]} clashes with {partners}"
    action = _Action(engine, cand.params.lam)
    tail = engine.import_element({cand.tail_ids: 1})
    for i, j in clash:
        image: UEAElement = {}
        for g, c in table.bracket(ids[i], ids[j]).items():
            _merge(image, action.apply(g, 1, tail), c)
        if image:
            on = engine.render_monomial(cand.tail_ids)
            return f"[{name[i]}, {name[j]}] {on} v+ = {engine.render(image, 'v+')}"
    return None
