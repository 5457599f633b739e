"""Candidate singular vectors, orbit propagation, and witness coefficients.

For a case with distinguished root gamma and a weight lambda satisfying
<lambda, h_gamma> = N, the candidate vector u lives in M(lambda) at weight
lambda - rho - N*gamma.  It is built by applying an explicit product of
odd raising generators and a lowering-generator power to v+.  The family
dispatch below fixes those factor lists.

A Shapovalov element (beta, C, mu, theta) records theta in U(n^-) with
theta v+ singular in M(mu) at weight mu - rho - C*beta.  Reflecting in an
even simple root kappa with p = <mu, h_kappa> a positive integer moves it
to (s_kappa beta, C, s_kappa mu, theta') where theta' is the exact right
quotient of f_kappa^(p + C*a) theta by f_kappa^p and a = -<beta, h_kappa>.

Witness data pins published basis presentations: a fixed ordering of the
lowering generators per case and, for each step k of the evaluation chain,
a monomial v_k whose coefficient in the partial product u_k must not
vanish.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .pbw import PBWEngine, UEAElement, make_order
from .rootdata import (
    AlgebraData,
    CaseId,
    InvalidParams,
    ParityViolation,
    RootDatum,
    Weight,
    _unit,
    build_algebra_data,
    f31_sign_weight,
    wdiff,
    wscale,
    wsum,
)
from .superalgebra import BracketTable, build_structure_constants
from .verma import VermaVector, act, highest_weight_vector, is_singular


# ---------------------------------------------------------------------------
# shared per-case context


@dataclass(eq=False)
class Context:
    alg: AlgebraData
    table: BracketTable
    _engines: Dict[Tuple[int, ...], PBWEngine] = field(default_factory=dict)

    def engine(
        self,
        tail: Sequence = (),
        negative_sequence: Optional[Sequence] = None,
    ) -> PBWEngine:
        order = make_order(self.table, tail=tail, negative_sequence=negative_sequence)
        key = order.sequence
        if key not in self._engines:
            self._engines[key] = PBWEngine(self.table, order)
        return self._engines[key]

    @property
    def default_engine(self) -> PBWEngine:
        return self.engine()


_CONTEXTS: Dict[str, Context] = {}


def build_context(case: CaseId) -> Context:
    key = case.text
    if key not in _CONTEXTS:
        alg = build_algebra_data(case)
        _CONTEXTS[key] = Context(alg=alg, table=build_structure_constants(alg))
    return _CONTEXTS[key]


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class CaseParams:
    case: CaseId
    N: int
    lam: Weight


ODD_N_FAMILIES = ("B-I", "G3")


def require_parity(case: CaseId, N: int) -> None:
    if case.family in ODD_N_FAMILIES and N % 2 == 0:
        raise ParityViolation(f"{case.family} needs an odd level, got N={N}")


def validate_params(params: CaseParams, alg: AlgebraData) -> None:
    if params.N < 1:
        raise InvalidParams(f"N must be a positive integer, got {params.N}")
    require_parity(params.case, params.N)
    if len(params.lam) != alg.rank:
        raise InvalidParams("lambda has the wrong number of coordinates")
    got = alg.coroot_pairing(params.lam, alg.gamma)
    if got != params.N:
        raise InvalidParams(
            f"<lambda, h_gamma> = {got}, expected N = {params.N}"
        )


def default_lambda(case: CaseId, N: int, seed: int, alg: Optional[AlgebraData] = None) -> Weight:
    """Deterministic weight with <lambda, h_gamma> = N; other coordinates
    are small seeded integers."""
    if N < 1:
        raise InvalidParams(f"N must be a positive integer, got {N}")
    require_parity(case, N)
    if alg is None:
        alg = build_context(case).alg
    rng = random.Random(f"{case.text}:{N}:{seed}")
    coords = [Fraction(rng.randint(-3, 3)) for _ in range(alg.rank)]
    # the constraint is linear in lambda: solve it on gamma's last nonzero coordinate
    gamma = alg.gamma.weight
    k = max(i for i, x in enumerate(gamma) if x)
    coords[k] = Fraction(0)
    rest = alg.coroot_pairing(tuple(coords), gamma)
    coords[k] = (N - rest) / alg.coroot_pairing(_unit(alg.rank, k), gamma)
    lam = tuple(coords)
    assert alg.coroot_pairing(lam, alg.gamma) == N
    return lam


# ---------------------------------------------------------------------------
# candidate vectors


def _delta_w(alg: AlgebraData, i: int) -> Weight:
    return _unit(alg.rank, i - 1)


def _eps_w(alg: AlgebraData, j: int) -> Weight:
    return _unit(alg.rank, alg.case.m + j - 1)


F31_FACTOR_ORDER = ("+---", "+--+", "+-+-", "+-++", "++--", "++-+", "+++-", "++++")


def candidate_factors(params: CaseParams, alg: AlgebraData):
    """Odd raising factors (in application order, leftmost first) and the
    lowering tail as (root weight, exponent) pairs."""
    case, N = params.case, params.N
    family, m, n = case.family, case.m, case.n
    if family == "B-I":
        dm = _delta_w(alg, m)
        odd = [w for i in range(1, n + 1) for w in (wdiff(dm, _eps_w(alg, i)), wsum(dm, _eps_w(alg, i)))]
        tail = [(dm, N + 2 * n)]
    elif family == "B-II":
        en = _eps_w(alg, n)
        odd = [w for i in range(1, m + 1) for w in (wdiff(en, _delta_w(alg, i)), wsum(en, _delta_w(alg, i)))]
        tail = [(en, N + 2 * m)]
    elif family == "D-I":
        dm = _delta_w(alg, m)
        odd = [w for i in range(1, n + 1) for w in (wdiff(dm, _eps_w(alg, i)), wsum(dm, _eps_w(alg, i)))]
        tail = [(wscale(2, dm), N + n)]
    elif family == "D-II":
        en = _eps_w(alg, n)
        en1 = _eps_w(alg, n - 1)
        odd = [w for i in range(1, m + 1) for w in (wdiff(en, _delta_w(alg, i)), wsum(en, _delta_w(alg, i)))]
        odd += [w for i in range(1, m + 1) for w in (wdiff(en1, _delta_w(alg, i)), wsum(en1, _delta_w(alg, i)))]
        tail = [(wsum(en1, en), N + 2 * m)]
    elif family == "F31":
        odd = [f31_sign_weight(s) for s in F31_FACTOR_ORDER]
        tail = [(_unit(4, 0), N + 4)]
    else:  # G3
        D = _unit(3, 0)
        e1, e2 = _unit(3, 1), _unit(3, 2)
        e3 = tuple(-a - b for a, b in zip(e1, e2))
        odd = [wdiff(D, e1), wsum(D, e1), wdiff(D, e2), wsum(D, e2), wdiff(D, e3), wsum(D, e3)]
        tail = [(D, N + 6)]
    return odd, tail


def _apply_factors(
    engine: PBWEngine,
    lam: Weight,
    e_factors: Sequence[Weight],
    tail: Sequence[Tuple[Weight, int]],
) -> VermaVector:
    table = engine.table
    v = highest_weight_vector(lam)
    for w, exp in reversed(list(tail)):
        v = act(engine.gen(table.f_gen(w), exp), v, engine)
    for w in reversed(list(e_factors)):
        v = act(engine.gen(table.e_gen(w)), v, engine)
    return v


def candidate_u(
    params: CaseParams,
    ctx: Context,
    perm: Optional[Sequence[int]] = None,
    engine: Optional[PBWEngine] = None,
) -> VermaVector:
    """The candidate singular vector of weight lambda - rho - N*gamma."""
    validate_params(params, ctx.alg)
    odd, tail = candidate_factors(params, ctx.alg)
    if perm is not None:
        if sorted(perm) != list(range(len(odd))):
            raise InvalidParams("perm must permute the odd factor positions")
        odd = [odd[i] for i in perm]
    if engine is None:
        engine = ctx.default_engine
    return _apply_factors(engine, params.lam, odd, tail)


def claimed_drop(params: CaseParams, alg: AlgebraData) -> Weight:
    return wscale(params.N, alg.gamma.weight)


# ---------------------------------------------------------------------------
# orbit propagation


@dataclass(eq=False)
class ShapovalovElement:
    beta: RootDatum
    C: int
    mu: Weight
    theta: UEAElement


@dataclass(frozen=True)
class OrbitStep:
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


def orbit_propagate(shap: ShapovalovElement, kappa, ctx: Context) -> Tuple[ShapovalovElement, OrbitStep]:
    alg = ctx.alg
    kw = alg.as_weight(kappa)
    kdatum = alg.root_at(kw)
    if kdatum.odd or kw not in {s.weight for s in alg.simple_system}:
        raise InvalidParams(f"{kdatum.name} is not an even simple root")
    p_frac = alg.coroot_pairing(shap.mu, kw)
    if p_frac.denominator != 1 or p_frac <= 0:
        raise InvalidParams(
            f"<mu, h_{kdatum.name}> = {p_frac} must be a positive integer"
        )
    p = int(p_frac)
    a_frac = -alg.coroot_pairing(shap.beta.weight, kw)
    if a_frac.denominator != 1 or a_frac < 1:
        raise InvalidParams(
            f"reflection in {kdatum.name} does not move {shap.beta.name} up"
        )
    a = int(a_frac)
    L = p + shap.C * a
    fk = ctx.table.f_gen(kw)
    engine = ctx.engine(tail=(fk,))
    theta = engine.import_element(shap.theta)
    start_ok = is_singular(VermaVector(theta, shap.mu), engine).ok
    lifted = engine.multiply(engine.gen(fk, L), theta)
    lifted_ok = is_singular(VermaVector(lifted, shap.mu), engine).ok
    theta2 = engine.right_divide(lifted, fk, p)
    nu = alg.reflect(shap.mu, kw)
    beta2 = alg.root_at(alg.reflect(shap.beta.weight, kw))
    image_ok = is_singular(VermaVector(theta2, nu), engine).ok
    weight_ok = engine.element_weight(theta2) == wscale(-shap.C, beta2.weight)
    assert alg.coroot_pairing(nu, beta2) == shap.C
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
        lifted_singular=lifted_ok,
        image_singular=image_ok,
        weight_ok=weight_ok,
    )
    return ShapovalovElement(beta2, shap.C, nu, theta2), step


OrbitTarget = Union[int, Tuple[int, int]]


def chain_kappas(case: CaseId, target: OrbitTarget, alg: AlgebraData) -> List[Weight]:
    family, m, n = case.family, case.m, case.n
    if family in ("B-I", "D-I"):
        if not isinstance(target, int) or not 1 <= target <= m:
            raise InvalidParams(f"target must be an index in 1..{m}")
        return [wdiff(_delta_w(alg, i - 1), _delta_w(alg, i)) for i in range(m, target, -1)]
    if family == "B-II":
        if not isinstance(target, int) or not 1 <= target <= n:
            raise InvalidParams(f"target must be an index in 1..{n}")
        return [wdiff(_eps_w(alg, i - 1), _eps_w(alg, i)) for i in range(n, target, -1)]
    if family == "D-II":
        if (
            not isinstance(target, tuple)
            or len(target) != 2
            or not 1 <= target[0] < target[1] <= n
        ):
            raise InvalidParams(f"target must be a pair 1 <= i < j <= {n}")
        ti, tj = target
        i, j = n - 1, n
        out = []
        while (i, j) != (ti, tj):
            if j > tj and j - 1 > i:
                out.append(wdiff(_eps_w(alg, j - 1), _eps_w(alg, j)))
                j -= 1
            elif i > ti:
                out.append(wdiff(_eps_w(alg, i - 1), _eps_w(alg, i)))
                i -= 1
            else:
                raise InvalidParams(f"cannot reach target {target}")
        return out
    raise InvalidParams(f"{family} has a single-point orbit; nothing to propagate")


def final_beta_weight(case: CaseId, target: OrbitTarget, alg: AlgebraData) -> Weight:
    family = case.family
    if family == "B-I":
        return _delta_w(alg, target)
    if family == "D-I":
        return wscale(2, _delta_w(alg, target))
    if family == "B-II":
        return _eps_w(alg, target)
    if family == "D-II":
        return wsum(_eps_w(alg, target[0]), _eps_w(alg, target[1]))
    raise InvalidParams(f"{family} has a single-point orbit")


def chain_weight(
    case: CaseId,
    C: int,
    kappas: Sequence[Weight],
    seed: int,
    alg: AlgebraData,
    p_first: Optional[int] = None,
) -> Weight:
    """Seeded weight with <mu, h_gamma> = C whose chain pairings all come
    out as positive integers.  The moving coordinate block is built
    strictly decreasing; the simulation below rejects a draw that still
    fails, and the seed is salted and retried."""
    if C < 1:
        raise InvalidParams(f"C must be a positive integer, got {C}")
    require_parity(case, C)
    if p_first is not None and p_first < 1:
        raise InvalidParams("p must be a positive integer")
    family, m, n = case.family, case.m, case.n
    if family in ("B-I", "D-I"):
        block = list(range(m))
        anchors = {m - 1: Fraction(C, 2) if family == "B-I" else Fraction(C)}
    elif family == "B-II":
        block = list(range(m, m + n))
        anchors = {m + n - 1: Fraction(C, 2)}
    else:  # D-II
        block = list(range(m, m + n))
        anchors = None  # drawn per attempt
    forced_gap = None
    if p_first is not None and kappas:
        forced_gap = next(i for i, x in enumerate(kappas[0]) if x == 1)
    for attempt in range(25):
        rng = random.Random(f"chain:{case.text}:{C}:{seed}:{attempt}")
        coords = [Fraction(rng.randint(-3, 3)) for _ in range(alg.rank)]
        if family == "D-II":
            k = rng.randint(1, 3)
            vals = {m + n - 1: Fraction(-k), m + n - 2: Fraction(C + k)}
        else:
            vals = dict(anchors)
        for idx in sorted(block, reverse=True):
            if idx in vals:
                continue
            gap = p_first if forced_gap == idx else rng.randint(1, 3)
            vals[idx] = vals[idx + 1] + gap
        for idx, v in vals.items():
            coords[idx] = v
        mu = tuple(coords)
        if alg.coroot_pairing(mu, alg.gamma) != C:
            continue
        cur = mu
        good = True
        for kw in kappas:
            p = alg.coroot_pairing(cur, kw)
            if p.denominator != 1 or p <= 0:
                good = False
                break
            cur = alg.reflect(cur, kw)
        if good and (p_first is None or not kappas or alg.coroot_pairing(mu, kappas[0]) == p_first):
            return mu
    raise InvalidParams(
        f"no chain weight found for {case.text} with C={C}, seed={seed}"
    )


@dataclass(frozen=True)
class ChainReport:
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
    case: CaseId,
    C: int,
    target: OrbitTarget,
    seed: int,
    ctx: Context,
    p_first: Optional[int] = None,
) -> ChainReport:
    alg = ctx.alg
    kappas = chain_kappas(case, target, alg)
    mu = chain_weight(case, C, kappas, seed, alg, p_first=p_first)
    params = CaseParams(case, C, mu)
    u = candidate_u(params, ctx)
    start_report = is_singular(u, ctx.default_engine)
    shap = ShapovalovElement(alg.gamma, C, mu, u.body)
    steps: List[OrbitStep] = []
    for kw in kappas:
        shap, step = orbit_propagate(shap, kw, ctx)
        steps.append(step)
    expected = final_beta_weight(case, target, alg)
    return ChainReport(
        case=case,
        C=C,
        target=target,
        seed=seed,
        mu0=mu,
        start_singular=start_report.ok,
        start_terms=len(u.body),
        steps=tuple(steps),
        final_beta=shap.beta.name,
        final_ok=shap.beta.weight == expected,
    )


# ---------------------------------------------------------------------------
# witness bases


@dataclass(frozen=True)
class WitnessStep:
    label: int
    e_factors: Tuple[Weight, ...]
    tail: Tuple[Tuple[Weight, int], ...]
    v_mono: Tuple[Tuple[Weight, int], ...]


@dataclass(frozen=True)
class WitnessSpec:
    negative_sequence: Tuple[Weight, ...]
    steps: Tuple[WitnessStep, ...]


def _pair_desc(indices: Sequence[int]) -> List[Tuple[int, int]]:
    pairs = [(i, j) for i in indices for j in indices if i < j]
    return sorted(pairs, key=lambda ij: (-(ij[0] + ij[1]), -ij[0]))


def witness_spec(params: CaseParams, alg: AlgebraData) -> WitnessSpec:
    case, N = params.case, params.N
    family, m, n = case.family, case.m, case.n
    M = (N - 1) // 2

    if family == "F31":
        e = [_unit(4, j) for j in (1, 2, 3)]
        D = _unit(4, 0)
        c = [f31_sign_weight(s) for s in F31_FACTOR_ORDER]
        seq = [e[2], e[1], e[0]]
        seq += [wsum(e[1], e[2]), wdiff(e[1], e[2]), wsum(e[0], e[2]), wdiff(e[0], e[2])]
        seq += [wsum(e[0], e[1]), wdiff(e[0], e[1])]
        seq += c
        seq += [D]
        tail = ((D, N + 4),)
        v_monos = [
            ((e[2], 1), (wdiff(e[1], e[2]), 1), (wdiff(e[0], e[1]), 1), (c[0], 1), (c[3], 1), (D, N - 1)),
            ((wdiff(e[1], e[2]), 1), (wdiff(e[0], e[1]), 1), (c[0], 1), (c[1], 1), (c[3], 1), (D, N - 1)),
            ((wdiff(e[0], e[1]), 1), (c[0], 1), (c[1], 1), (c[2], 1), (c[3], 1), (D, N - 1)),
            (*((ci, 1) for ci in c[:5]), (D, N - 1)),
            (*((ci, 1) for ci in c[:4]), (D, N)),
            (*((ci, 1) for ci in c[:3]), (D, N + 1)),
            (*((ci, 1) for ci in c[:2]), (D, N + 2)),
            ((c[0], 1), (D, N + 3)),
            ((D, N + 4),),
        ]
        steps = tuple(
            WitnessStep(k, tuple(c[k:]), tail, v_monos[k]) for k in range(9)
        )
        return WitnessSpec(tuple(seq), steps)

    if family == "G3":
        D = _unit(3, 0)
        e1, e2 = _unit(3, 1), _unit(3, 2)
        e3 = tuple(-a - b for a, b in zip(e1, e2))
        seq = [
            wsum(e1, e2), e2, e1,
            wsum(e1, wscale(2, e2)), wsum(wscale(2, e1), e2), wdiff(e2, e1),
            wdiff(D, e3), wsum(D, e3), wdiff(D, e2), wsum(D, e2),
            wdiff(D, e1), wsum(D, e1), D, wscale(2, D),
        ]
        factors = (
            wsum(D, e1), wsum(D, e2), wdiff(D, e1), wdiff(D, e2), wsum(D, e3), wdiff(D, e3),
        )
        tail = ((D, 1), (wscale(2, D), M + 3))
        v_monos = [
            ((e1, 2), (wdiff(e2, e1), 1), (wsum(D, e3), 1), (wscale(2, D), M)),
            ((e1, 2), (wsum(D, e3), 1), (wsum(D, e2), 1), (wscale(2, D), M)),
            ((e1, 1), (wdiff(D, e3), 1), (wsum(D, e3), 1), (wsum(D, e2), 1), (wscale(2, D), M)),
            ((wdiff(D, e3), 1), (wsum(D, e3), 1), (wsum(D, e2), 1), (D, 1), (wscale(2, D), M)),
            ((wdiff(D, e3), 1), (wsum(D, e3), 1), (D, 1), (wscale(2, D), M + 1)),
            ((wsum(D, e3), 1), (D, 1), (wscale(2, D), M + 2)),
            ((D, 1), (wscale(2, D), M + 3)),
        ]
        steps = tuple(
            WitnessStep(k, tuple(factors[k:]), tail, v_monos[k]) for k in range(7)
        )
        return WitnessSpec(tuple(seq), steps)

    # osp families share the scaffolding; step k of B-I, B-II and D-I
    # applies the candidate's odd factors from pair k on
    odd_factors = candidate_factors(params, alg)[0]
    deltas = [_delta_w(alg, i) for i in range(1, m + 1)]
    epss = [_eps_w(alg, j) for j in range(1, n + 1)]

    if family == "B-I":
        dm = deltas[-1]
        covered: List[Weight] = [epss[q] for q in range(n - 1, -1, -1)]
        for i, j in _pair_desc(range(1, n + 1)):
            covered += [wsum(epss[i - 1], epss[j - 1]), wdiff(epss[i - 1], epss[j - 1])]
        for q in range(n, 0, -1):
            covered += [wdiff(dm, epss[q - 1]), wsum(dm, epss[q - 1])]
        covered += [dm, wscale(2, dm)]
        tail = ((dm, 1), (wscale(2, dm), M + n))
        steps = []
        for k in range(1, n + 2):
            factors = tuple(odd_factors[2 * (k - 1):])
            if k <= n:
                mono = [(epss[n - 1], 1)]
                mono += [(wdiff(epss[i - 1], epss[i]), 1) for i in range(n - 1, k - 1, -1)]
                mono += [(wdiff(dm, epss[k - 1]), 1), (wscale(2, dm), M + k - 1)]
            else:
                mono = [(dm, 1), (wscale(2, dm), M + n)]
            steps.append(WitnessStep(k, factors, tail, tuple(mono)))
        return WitnessSpec(_with_uncovered(alg, covered), tuple(steps))

    if family == "B-II":
        en = epss[-1]
        covered = [deltas[i] for i in range(m - 1, -1, -1)]
        for i, j in _pair_desc(range(1, m + 1)):
            covered += [wsum(deltas[i - 1], deltas[j - 1]), wdiff(deltas[i - 1], deltas[j - 1])]
        for q in range(m, 0, -1):
            covered += [wdiff(en, deltas[q - 1]), wsum(en, deltas[q - 1])]
        covered += [en]
        tail = ((en, N + 2 * m),)
        steps = []
        for k in range(1, m + 2):
            factors = tuple(odd_factors[2 * (k - 1):])
            if k <= m:
                mono = [(deltas[m - 1], 1)]
                mono += [(wdiff(deltas[i - 1], deltas[i]), 1) for i in range(m - 1, k - 1, -1)]
                mono += [(wdiff(en, deltas[k - 1]), 1), (en, N + 2 * k - 3)]
            else:
                mono = [(en, N + 2 * m)]
            steps.append(WitnessStep(k, factors, tail, tuple(mono)))
        return WitnessSpec(_with_uncovered(alg, covered), tuple(steps))

    if family == "D-I":
        dm = deltas[-1]
        covered = []
        for i, j in _pair_desc(range(1, n + 1)):
            covered += [wsum(epss[i - 1], epss[j - 1]), wdiff(epss[i - 1], epss[j - 1])]
        for q in range(n, 0, -1):
            covered += [wdiff(dm, epss[q - 1]), wsum(dm, epss[q - 1])]
        covered += [wscale(2, dm)]
        tail = ((wscale(2, dm), N + n),)
        steps = []
        for k in range(1, n + 2):
            factors = tuple(odd_factors[2 * (k - 1):])
            if k <= n:
                mono = [(wdiff(epss[i - 1], epss[i]), 1) for i in range(n - 1, k - 1, -1)]
                mono += [(wsum(dm, epss[n - 1]), 1), (wdiff(dm, epss[k - 1]), 1)]
                mono += [(wscale(2, dm), N + k - 2)]
            else:
                mono = [(wscale(2, dm), N + n)]
            steps.append(WitnessStep(k, factors, tail, tuple(mono)))
        return WitnessSpec(_with_uncovered(alg, covered), tuple(steps))

    if family == "D-II":
        en, en1 = epss[-1], epss[-2]
        covered = [wscale(2, deltas[i]) for i in range(m - 1, -1, -1)]
        for i, j in _pair_desc(range(1, m + 1)):
            covered += [wsum(deltas[i - 1], deltas[j - 1]), wdiff(deltas[i - 1], deltas[j - 1])]
        for q in range(m, 0, -1):
            covered += [
                wdiff(en, deltas[q - 1]), wsum(en, deltas[q - 1]),
                wdiff(en1, deltas[q - 1]), wsum(en1, deltas[q - 1]),
            ]
        covered += [wdiff(en1, en), wsum(en1, en)]
        tail = ((wsum(en1, en), N + 2 * m),)
        steps = []
        for k in range(1, m + 2):
            factors = tuple(
                w
                for i in range(k, m + 1)
                for w in (
                    wdiff(en, deltas[i - 1]), wsum(en, deltas[i - 1]),
                    wdiff(en1, deltas[i - 1]), wsum(en1, deltas[i - 1]),
                )
            )
            if k <= m:
                mono = [(wscale(2, deltas[m - 1]), 1)]
                mono += [(wdiff(deltas[i - 1], deltas[i]), 2) for i in range(m - 1, k - 1, -1)]
                mono += [(wdiff(en, deltas[k - 1]), 1), (wdiff(en1, deltas[k - 1]), 1)]
                mono += [(wsum(en1, en), N + 2 * k - 3)]
            else:
                mono = [(wsum(en1, en), N + 2 * m)]
            steps.append(WitnessStep(k, factors, tail, tuple(mono)))
        return WitnessSpec(_with_uncovered(alg, covered), tuple(steps))

    raise InvalidParams(f"no witness data for {family}")


def _with_uncovered(alg: AlgebraData, covered: Sequence[Weight]) -> Tuple[Weight, ...]:
    """Prefix the default-ordered lowering generators that the witness
    monomials never touch, keeping the printed block at the end."""
    covered_idx = [alg.root_index(w) for w in covered]
    seen = set(covered_idx)
    assert len(seen) == len(covered_idx), "covered roots must be distinct"
    rest = [
        i
        for i in sorted(range(len(alg.pos_roots)), key=lambda i: (alg.heights[i], i))
        if i not in seen
    ]
    return tuple(alg.pos_roots[i].weight for i in rest) + tuple(covered)


@dataclass(frozen=True)
class WitnessRow:
    label: int
    coefficient: Fraction
    terms: int
    weight_ok: bool


@dataclass(frozen=True)
class WitnessReport:
    rows: Tuple[WitnessRow, ...]
    candidate_coefficient: Fraction

    @property
    def ok(self) -> bool:
        return all(r.coefficient != 0 and r.weight_ok for r in self.rows) and (
            self.candidate_coefficient != 0
        )


def witness_monomial(engine: PBWEngine, mono_spec: Sequence[Tuple[Weight, int]]):
    """Normalize a (root weight, exponent) list into an engine monomial.
    Zero exponents are allowed in specs at small N and drop out here."""
    table = engine.table
    pairs = [(table.f_gen(w), e) for w, e in mono_spec if e]
    assert all(e > 0 for _, e in pairs)
    pairs.sort(key=lambda ge: engine.order.rank[ge[0]])
    for (g1, _), (g2, _) in zip(pairs, pairs[1:]):
        assert g1 != g2, "duplicate generator in witness monomial"
    return tuple(pairs)


def coefficient_witness(v: VermaVector, mono_spec, engine: PBWEngine) -> Fraction:
    """Coefficient of the given lowering monomial in the body of v."""
    return v.body.get(witness_monomial(engine, mono_spec), Fraction(0))


def run_witness(params: CaseParams, ctx: Context) -> WitnessReport:
    validate_params(params, ctx.alg)
    spec = witness_spec(params, ctx.alg)
    engine = ctx.engine(negative_sequence=spec.negative_sequence)
    rows = []
    for step in spec.steps:
        u_k = _apply_factors(engine, params.lam, step.e_factors, step.tail)
        mono = witness_monomial(engine, step.v_mono)
        coeff = u_k.body.get(mono, Fraction(0))
        weight_ok = bool(u_k.body) and engine.monomial_weight(mono) == engine.element_weight(
            u_k.body
        )
        rows.append(WitnessRow(step.label, coeff, len(u_k.body), weight_ok))
    u = candidate_u(params, ctx, engine=engine)
    cand = u.body.get(witness_monomial(engine, spec.steps[0].v_mono), Fraction(0))
    return WitnessReport(tuple(rows), cand)
