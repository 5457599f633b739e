"""Verma modules with exact rational coefficients (an int when integral, a
Fraction otherwise).

A module M(lambda) has highest-weight vector v+ of weight lambda - rho.
Vectors are stored through their U(n^-) body: v = body * v+, with every
monomial in the engine's normal form.  act and is_singular split the body
into weight components, scaled to integral coefficients, and act on each
one basis generator power at a time, from the right, inside the module:

- a lowering g multiplies on the left by the engine's lambda-free
  power_times, which serves all of U(g) and here stays inside U(n^-);
- a Cartan h_j is one scalar <lambda - rho + wt, h_j> on a homogeneous body;
- a raising g kills v+ and raises the whole body at once, grouped by
  leading power, body = sum x^a R: each group goes through the binomial
  rule of PBWEngine.commute_left, and each generator of (ad_R x)^k(g)
  acts on R by the same step.

act applies each word of an element with the engine's word loop, as
PBWEngine.multiply does in U(g); is_singular applies each simple raising
generator and keeps the first image that fails as the counterexample.

Nothing keyed on lambda outlives a call.  The engine's module slot holds
<lambda - rho, h_j>, one form per Cartan generator, and the lambda-free
pairings <wt(f), h_j>, read from the bracket table as [h_j, f] =
<wt(f), h_j> f; the next highest weight replaces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import lcm
from typing import Dict, List, Optional, Tuple

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
    """A raising generator other than g, with a root no lower than g's,
    came out of (ad_R x)^k(g) for a raising g and a lowering x, whose weight
    is wt(g) - k wt(x): the bracket table or the action is broken."""


class _Action:
    """The lambda-constants of M(lam) on one engine, and g^e . (body v+) for
    a basis generator g and a homogeneous body."""

    def __init__(self, engine: PBWEngine, lam: Weight) -> None:
        table = engine.table
        self.engine = engine
        self.lam = lam
        self.basis = table.basis
        self.heights = table.alg.heights
        shift = wdiff(lam, table.alg.rho)
        cartans = range(table.n_cartan)
        # <lambda - rho, h_j>, and <wt(f), h_j> per lowering generator f
        # as the coefficient of f in [h_j, f]
        self.shift = tuple(_exact(table.cartan_pairing(j, shift)) for j in cartans)
        hs = [table.h_id(j) for j in cartans]
        self.pairings = [
            tuple(table.bracket(h, f).get(f, 0) for h in hs) for f in range(table.n_pos)
        ]

    def scalar(self, j: int, m: Monomial):
        """<lambda - rho + wt(m), h_j>: the Cartan h_j on m v+."""
        return _exact(self.shift[j] + sum(a * self.pairings[x][j] for x, a in m))

    def apply(self, g: int, e: int, body: UEAElement) -> UEAElement:
        """g^e . (body v+) as a body, for a homogeneous body."""
        if self.basis[g].kind == "f":
            return self.engine.power_times(g, e, body)
        for _ in range(e):
            body = self._times(g, g, body)
        return body

    def _times(self, g: int, z: int, rest: UEAElement) -> UEAElement:
        """z . (rest v+) for a homogeneous rest, where z is g or came out of
        commuting the raising g past a lowering generator, and so has a
        lower root than g's if it is another raising generator.  A raising
        z goes through commute_left once per leading-power group x^a R of
        rest, and this step acts on the shorter R."""
        basis = self.basis
        kind = basis[z].kind
        if kind == "f":
            return self.engine.power_times(z, 1, rest)
        if kind == "h":
            return _scaled(rest, self.scalar(basis[z].index, next(iter(rest)))) if rest else {}
        if z != g and self.heights[basis[z].index] >= self.heights[basis[g].index]:
            raise UnexpectedRaising(
                f"{basis[z].name} came out of commuting {basis[g].name} "
                "past a lowering generator"
            )
        groups: Dict[Tuple[int, int], UEAElement] = {}
        for m, c in rest.items():
            if m:
                groups.setdefault(m[0], {})[m[1:]] = c
        times = partial(self._times, z)
        # commute_left returns a new dict, so the first group's is kept
        out: Optional[UEAElement] = None
        for (x, a), part in groups.items():
            image = self.engine.commute_left(z, x, a, part, times)
            if out is None:
                out = image
            else:
                _merge(out, image)
        return {} if out is None else out


def _action(engine: PBWEngine, lam: Weight) -> _Action:
    """The engine's module slot for highest weight lam, replacing the slot
    of any other highest weight."""
    slot = engine.module_slot
    if slot is None or slot.lam != lam:
        slot = engine.module_slot = _Action(engine, lam)
    return slot


def _components(v: VermaVector, engine: PBWEngine) -> Tuple[int, List[UEAElement]]:
    """den and the weight components of den * body, whose coefficients are
    ints: a Fraction coefficient would be carried through every step of the
    action.  WrongOrder unless each monomial is in U(n^-) normal form."""
    den = lcm(*(c.denominator for c in v.body.values()))
    components: Dict[Tuple[int, ...], UEAElement] = {}
    for mono, coef in v.body.items():
        engine.check_lowering(mono)
        components.setdefault(engine._lattice_weight(mono), {})[mono] = _exact(den * coef)
    return den, list(components.values())


def act(x: UEAElement, v: VermaVector, engine: PBWEngine) -> VermaVector:
    """Apply an enveloping-algebra element, in the engine's normal form, to
    a module vector whose body is in the same normal form."""
    slot = _action(engine, v.highest_weight)
    den, components = _components(v, engine)
    body: UEAElement = {}
    for part in components:
        _merge(body, engine._words_times(x, part, slot.apply))
    if den != 1:
        body = _scaled(body, Fraction(1, den))
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
    on its own (one, for a homogeneous body), as act raises it.
    """
    table = engine.table
    slot = _action(engine, v.highest_weight)
    den, components = _components(v, engine)
    residuals = []
    failure = None
    for j, s in enumerate(table.alg.simple_system):
        e = table.e_id(table.alg.simple_pos_index[j])
        image: UEAElement = {}
        for part in components:
            _merge(image, slot.apply(e, 1, part))
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
