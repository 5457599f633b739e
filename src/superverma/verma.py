"""Verma modules with exact rational coefficients (an int when integral, a
Fraction otherwise).

A module M(lambda) has highest-weight vector v+ of weight lambda - rho.
Vectors are stored through their U(n^-) body: v = body * v+, with every
monomial in the engine's normal form.  act and is_singular scale the body
to integral coefficients and act on it whole, one basis generator power at
a time, from the right, inside the module:

- a lowering g multiplies on the left by the engine's lambda-free
  power_times, which serves all of U(g) and here stays inside U(n^-);
- a Cartan h_j scales each monomial m by its own <lambda - rho + wt(m), h_j>;
- a raising g kills v+, so g (X v+) = [g, X] v+, which
  PBWEngine.commutator gives with the module's own step (the orbit lift
  takes the same commutator in U(g)).  Each generator of a chain g leaves
  in its walk, with the head P it has passed and the rest R, acts on R by
  its kind.  A Cartan one is a scalar, a lowering one goes
  between P and R by the engine's insert (moving left through P when it
  ranks below R, walking into R from P otherwise), and a raising one walks
  on over R with base P.  Every term lands in one output dict.

_Action.words is the module's one word loop: each word acts from its
longest suffix with a known image, one power at a time.  act starts it from
the body alone, singular.Candidate from its kept images; is_singular applies
each simple raising generator and keeps the first failing image.

Nothing keyed on lambda outlives a call: each call builds its own _Action,
which derives only <lambda - rho, h_j>, one dot product of lambda with the
bracket table's cartan_rows[j] less its stored <rho, h_j>, and reads the
lambda-free <wt(f), h_j> from the table's pairings.  lambda's coordinates
may be of any exact type; nothing converts them.  singular.Candidate keeps
one _Action beside its images.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Optional, Tuple

from .pbw import Monomial, PBWEngine, UEAElement
from .rootdata import Weight, pairing, wdiff, wsum
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
    a basis generator g and any body.  A Cartan g scales each monomial by
    its own scalar, and a raising g is PBWEngine.commutator with _term as
    its step, so no image is rebuilt once per generator of a prefix."""

    def __init__(self, engine: PBWEngine, lam: Weight) -> None:
        self.engine = engine
        self.table = table = engine.table
        # <lambda - rho, h_j>, the action's one lambda-constant
        self.shift = tuple(
            _exact(pairing(row, lam) - r) for row, r in zip(table.cartan_rows, table.rho_pairings)
        )

    def scalar(self, j: int, m: Monomial):
        """<lambda - rho + wt(m), h_j>: the Cartan h_j on m v+."""
        pairings = self.table.pairings
        return _exact(self.shift[j] + sum(a * pairings[x][j] for x, a in m))

    def apply(self, g: int, e: int, body: UEAElement) -> UEAElement:
        """g^e . (body v+) as a body."""
        el = self.table.basis[g]
        if el.kind == "f":
            return self.engine.power_times(g, e, body)
        if el.kind == "h":
            j = el.index
            scaled = ((m, c * self.scalar(j, m) ** e) for m, c in body.items())
            return {m: _exact(c) for m, c in scaled if c}
        for _ in range(e):
            body = self.engine.commutator(g, body, self._term)
        return body

    def words(self, x: UEAElement, images: Dict[Monomial, UEAElement]) -> UEAElement:
        """x . (images[()] v+) as a body, for images mapping suffixes of words
        to their images on images[()]: each word of x acts from its longest
        suffix in images, one power at a time, and adds its longer ones."""
        out: UEAElement = {}
        for mono, coef in x.items():
            i = 0
            while mono[i:] not in images:
                i += 1
            for j in reversed(range(i)):
                g, e = mono[j]
                images[mono[j:]] = self.apply(g, e, images[mono[j + 1 :]])
            _merge(out, images[mono], coef)
        return out

    def _term(self, z: int, w: int, head: Monomial, rest: Monomial, c, out) -> None:
        """PBWEngine.walk's step in the module: add c * head * w . (rest v+)
        to out, for a generator w of a chain the raising z leaves.  A
        lowering w goes between head and rest by insert, a Cartan w is one
        scalar on rest, and a raising w, whose root must be lower than z's
        (UnexpectedRaising otherwise), walks on over rest from head."""
        engine = self.engine
        el = self.table.basis[w]
        if el.kind == "f":
            engine.insert(head, w, rest, c, out)
        elif el.kind == "h":
            key = head + rest
            out[key] = out.get(key, 0) + c * self.scalar(el.index, rest)
        else:
            heights = self.table.alg.heights
            if heights[el.index] >= heights[self.table.basis[z].index]:
                raise UnexpectedRaising(
                    f"{el.name} came out of commuting {self.table.basis[z].name} past a lowering generator"
                )
            engine.walk(w, rest, head, c, out, self._term)


def _integral(v: VermaVector, engine: PBWEngine) -> Tuple[int, UEAElement]:
    """den and den * body, whose coefficients are ints: a Fraction
    coefficient would be carried through every step of the action.  At
    den = 1 that is the body itself, not a copy, so callers (act and
    is_singular) only read it.  WrongOrder unless each monomial is in
    U(n^-) normal form."""
    for mono in v.body:
        engine.check_lowering(mono)
    den = lcm(*(c.denominator for c in v.body.values()))
    if den == 1:
        return den, v.body
    return den, {mono: _exact(den * coef) for mono, coef in v.body.items()}


def act(x: UEAElement, v: VermaVector, engine: PBWEngine) -> VermaVector:
    """Apply an enveloping-algebra element, in the engine's normal form, to
    a module vector whose body is in the same normal form."""
    den, body = _integral(v, engine)
    body = _Action(engine, v.highest_weight).words(x, {(): body})
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
    is kept as the failure.  The body is raised whole, scaled to integral
    coefficients, as act raises it.
    """
    table = engine.table
    action = _Action(engine, v.highest_weight)
    den, body = _integral(v, engine)
    residuals = []
    failure = None
    for j, s in enumerate(table.alg.simple_system):
        image = action.apply(table.e_id(table.alg.simple_pos_index[j]), 1, body)
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
