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

The values g . (m v+) for raising and Cartan g depend on lambda.  They are
memoised in one slot per engine, which the next highest weight replaces: a
point's candidate, its singularity check and its sign-flip rebuilds share
one memo, and an engine keeps at most one.  The singularity check keeps the
first image that fails, so a counterexample needs no second action.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class _Action:
    """g . (m v+) in M(lam) for basis generators g and normal-form
    monomials m of U(n^-), memoised for raising and Cartan g."""

    def __init__(self, engine: PBWEngine, lam: Weight) -> None:
        table = engine.table
        self.engine = engine
        self.lam = lam
        self.basis = table.basis
        shift = wdiff(lam, table.alg.rho)
        cartans = range(table.n_cartan)
        # <lambda - rho, h_j>, and <wt(f), h_j> per lowering generator f
        self.shift = tuple(_exact(table.cartan_pairing(j, shift)) for j in cartans)
        self.pairings = [
            tuple(_exact(table.cartan_pairing(j, table.basis[f].weight)) for j in cartans)
            for f in range(table.n_pos)
        ]
        self.memo: Dict[Tuple[int, Monomial], UEAElement] = {}

    def gen(self, g: int, m: Monomial) -> UEAElement:
        kind = self.basis[g].kind
        if kind == "f":
            return self.engine.gen_times_mono(g, m)
        key = (g, m)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if kind == "h":
            j = self.basis[g].index
            scalar = _exact(self.shift[j] + sum(a * self.pairings[x][j] for x, a in m))
            res: UEAElement = {m: scalar} if scalar else {}
        elif m:
            res = self.engine.commute_left(g, m, self.gen)
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
    is kept as the failure.
    """
    table = engine.table
    residuals = []
    failure = None
    for j, s in enumerate(table.alg.simple_system):
        image = act(engine.gen(table.e_id(table.alg.simple_pos_index[j])), v, engine)
        residuals.append((s.name, len(image.body)))
        if image.body and failure is None:
            failure = (s.name, image.body)
    nonzero = not v.is_zero()
    return SingularityReport(
        ok=nonzero and failure is None,
        nonzero=nonzero,
        residuals=tuple(residuals),
        failure=failure,
    )
