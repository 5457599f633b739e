"""Verma modules with exact rational coefficients (an int when integral, a
Fraction otherwise).

A module M(lambda) has highest-weight vector v+ of weight lambda - rho.
Vectors are stored through their U(n^-) body: v = body * v+, with every
monomial in the engine's normal form.  An algebra element acts one basis
generator g at a time, from the right, on each monomial m of the body,
without leaving the module:

- a lowering g multiplies m on the left (the engine's lambda-free
  gen_times_mono and power_times, which serve all of U(g) and here stay
  inside U(n^-));
- a Cartan g is the scalar <lambda - rho + wt(m), h>;
- a raising g kills v+, and on m = x^a rest commutes past x^a by the
  binomial rule of PBWEngine.commute_left, acting on rest v+ with each
  generator of (ad_R x)^k(g).

act applies each word of an element with the engine's word loop, one
generator power at a time, as PBWEngine.multiply does in U(g).

The values g . (m v+) for raising and Cartan g depend on lambda.  act
memoises them in one slot per engine, which the next highest weight
replaces, and an engine keeps at most one.  Only a point's candidate and
its sign-flip rebuilds share that memo: the rebuilds re-read it, and the
point validates its params and derives its odd factors once for all of
them (singular.signflip_counterexample).

A slot holds <lambda - rho, h_j>, one form per Cartan generator, and the
lambda-free pairings <wt(f), h_j> of the lowering generators, which it
reads from the bracket table: [h_j, f] = <wt(f), h_j> f.

The singularity check is_singular writes nothing into the memo; it only
reads lambda - rho and the Cartan pairings from the slot.  It raises the
whole body at once, grouped by leading power, body = sum x^a R: each
group goes through the same commute_left with its rest R, recursing only
for e on R, and a Cartan generator on the homogeneous R is one scalar.
It keeps the first image that fails, so a counterexample needs no second
action.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Optional, Tuple

from .pbw import Monomial, PBWEngine, UEAElement
from .rootdata import Weight, wdiff, wsum
from .superalgebra import _exact, _merge, _scaled


@dataclass(eq=False)
class VermaVector:
    body: UEAElement
    highest_weight: Weight

    def is_zero(self) -> bool:
        return not self.body

    def scaled(self, c) -> "VermaVector":
        return VermaVector(_scaled(self.body, c), self.highest_weight)


def highest_weight_vector(lam: Weight) -> VermaVector:
    return VermaVector({(): 1}, lam)


class UnexpectedRaising(RuntimeError):
    """A raising generator came out of (ad_R x)^k(e_j) for a simple raising
    e_j and a lowering x, where only lowering and Cartan generators can:
    the bracket table or the check is broken."""


class _Action:
    """g . (m v+) in M(lam) for basis generators g and normal-form
    monomials m of U(n^-), memoised for raising and Cartan g; raise_body
    acts on a whole body without the memo."""

    def __init__(self, engine: PBWEngine, lam: Weight) -> None:
        table = engine.table
        self.engine = engine
        self.lam = lam
        self.basis = table.basis
        shift = wdiff(lam, table.alg.rho)
        cartans = range(table.n_cartan)
        # <lambda - rho, h_j>, and <wt(f), h_j> per lowering generator f
        # as the coefficient of f in [h_j, f]
        self.shift = tuple(_exact(table.cartan_pairing(j, shift)) for j in cartans)
        hs = [table.h_id(j) for j in cartans]
        self.pairings = [
            tuple(table.bracket(h, f).get(f, 0) for h in hs) for f in range(table.n_pos)
        ]
        self.memo: Dict[Tuple[int, Monomial], UEAElement] = {}

    def scalar(self, j: int, m: Monomial):
        """<lambda - rho + wt(m), h_j>: the Cartan h_j on m v+."""
        return _exact(self.shift[j] + sum(a * self.pairings[x][j] for x, a in m))

    def gen(self, g: int, m: Monomial) -> UEAElement:
        kind = self.basis[g].kind
        if kind == "f":
            return self.engine.gen_times_mono(g, m)
        key = (g, m)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if kind == "h":
            scalar = self.scalar(self.basis[g].index, m)
            res: UEAElement = {m: scalar} if scalar else {}
        elif m:
            x, a = m[0]
            res = self.engine.commute_left(g, x, a, m[1:], self.gen)
        else:
            res = {}
        self.memo[key] = res
        return res

    def apply(self, g: int, e: int, body: UEAElement) -> UEAElement:
        """g^e . (body v+) as a body."""
        if self.basis[g].kind == "f":
            return self.engine.power_times(g, e, body)
        for _ in range(e):
            out: UEAElement = {}
            for mono, coef in body.items():
                _merge(out, self.gen(g, mono), coef)
            body = out
        return body

    def raise_body(self, e: int, body: UEAElement) -> UEAElement:
        """e . (body v+) for a simple raising e and a homogeneous body,
        writing nothing into the memo.

        The body is grouped by leading power, body = sum x^a R, and each
        group goes through commute_left with its whole rest R: e on R is
        the only recursion, a lowering z acts by power_times(z, 1, R), and
        a Cartan h_j by the one scalar <lambda - rho + wt(R), h_j>, since R
        is homogeneous.  For a simple e, [e, n^-] lies in n^- + h, so no
        other raising generator can come out of (ad_R x)^k(e).
        """
        basis = self.basis

        def times(z: int, rest: UEAElement) -> UEAElement:
            kind = basis[z].kind
            if kind == "f":
                return self.engine.power_times(z, 1, rest)
            if kind == "h":
                return _scaled(rest, self.scalar(basis[z].index, next(iter(rest))))
            if z != e:
                raise UnexpectedRaising(
                    f"{basis[z].name} came out of commuting {basis[e].name} "
                    "past a lowering generator"
                )
            return grouped(rest)

        def grouped(el: UEAElement) -> UEAElement:
            groups: Dict[Tuple[int, int], UEAElement] = {}
            for m, c in el.items():
                if m:
                    groups.setdefault(m[0], {})[m[1:]] = c
            # commute_left returns a new dict, so the first group's is kept
            out: Optional[UEAElement] = None
            for (x, a), rest in groups.items():
                part = self.engine.commute_left(e, x, a, rest, times)
                if out is None:
                    out = part
                else:
                    _merge(out, part)
            return {} if out is None else out

        return grouped(body)


def _action(engine: PBWEngine, lam: Weight) -> _Action:
    """The engine's module memo for highest weight lam, replacing the slot
    of any other highest weight."""
    slot = engine.module_memo
    if slot is None or slot.lam != lam:
        slot = engine.module_memo = _Action(engine, lam)
    return slot


def act(x: UEAElement, v: VermaVector, engine: PBWEngine) -> VermaVector:
    """Apply an enveloping-algebra element, in the engine's normal form, to
    a module vector whose body is in the same normal form."""
    for mono in v.body:
        engine.check_lowering(mono)
    body = engine._words_times(x, v.body, _action(engine, v.highest_weight).apply)
    return VermaVector(body, v.highest_weight)


def weight_of(v: VermaVector, engine: PBWEngine) -> Weight:
    """Weight of a homogeneous vector, lambda - rho + (body weight)."""
    return wsum(v.highest_weight, wdiff(engine.element_weight(v.body), engine.table.alg.rho))


@dataclass(frozen=True)
class SingularityReport:
    ok: bool
    nonzero: bool
    residuals: Tuple[Tuple[str, int], ...]
    # the first simple root whose raising generator leaves a residual, and
    # that image's body; None when every image vanishes
    failure: Optional[Tuple[str, UEAElement]]


def is_singular(v: VermaVector, engine: PBWEngine) -> SingularityReport:
    """Check that v is nonzero and killed by every raising simple generator.

    The residual list names each simple root together with the number of
    surviving terms, so a failure is attributable; the first nonzero image
    is kept as the failure.  Each weight component of the body is raised
    on its own (one, for a homogeneous body), by _Action.raise_body.
    """
    for mono in v.body:
        engine.check_lowering(mono)
    table = engine.table
    slot = _action(engine, v.highest_weight)
    # raise den * body, whose coefficients are ints: a Fraction coefficient
    # would be carried through every group and level of the recursion
    den = lcm(*(c.denominator for c in v.body.values()))
    components: Dict[Tuple[int, ...], UEAElement] = {}
    for mono, coef in v.body.items():
        components.setdefault(engine._lattice_weight(mono), {})[mono] = _exact(den * coef)
    residuals = []
    failure = None
    for j, s in enumerate(table.alg.simple_system):
        e = table.e_id(table.alg.simple_pos_index[j])
        image: UEAElement = {}
        for part in components.values():
            _merge(image, slot.raise_body(e, part))
        residuals.append((s.name, len(image)))
        if image and failure is None:
            failure = (s.name, _scaled(image, Fraction(1, den)))
    nonzero = not v.is_zero()
    return SingularityReport(
        ok=nonzero and failure is None,
        nonzero=nonzero,
        residuals=tuple(residuals),
        failure=failure,
    )
