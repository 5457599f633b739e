"""Verma modules with exact rational coefficients.

A module M(lambda) has highest-weight vector v+ of weight lambda - rho.
Vectors are stored through their U(n^-) body: v = body * v+.  Applying an
algebra element straightens the product into normal form and then
evaluates the tail against v+: raising generators kill it, Cartan
generators turn into the scalar <lambda - rho, h>, and the surviving
lowering monomials form the new body.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .pbw import Monomial, PBWEngine, UEAElement
from .rootdata import Weight, format_weight, wdiff, wsum
from .superalgebra import _merge, _scaled


class ModuleMismatch(ValueError):
    """Vectors of Verma modules with different highest weights were combined."""


@dataclass(eq=False)
class VermaVector:
    body: UEAElement
    highest_weight: Weight

    def is_zero(self) -> bool:
        return not self.body

    def scaled(self, c) -> "VermaVector":
        return VermaVector(_scaled(self.body, c), self.highest_weight)

    def plus(self, other: "VermaVector") -> "VermaVector":
        if self.highest_weight != other.highest_weight:
            raise ModuleMismatch(
                f"vector of M({format_weight(other.highest_weight)}) added to one of"
                f" M({format_weight(self.highest_weight)})"
            )
        out = dict(self.body)
        _merge(out, other.body)
        return VermaVector(out, self.highest_weight)


def highest_weight_vector(lam: Weight) -> VermaVector:
    return VermaVector({(): Fraction(1)}, lam)


def act(x: UEAElement, v: VermaVector, engine: PBWEngine) -> VermaVector:
    """Apply an enveloping-algebra element to a module vector."""
    table = engine.table
    shift = wdiff(v.highest_weight, table.alg.rho)
    product = engine.multiply(x, v.body)
    body: Dict[Monomial, Fraction] = {}
    for mono, coef in product.items():
        scalar = coef
        cut = len(mono)
        killed = False
        for pos, (bid, exp) in enumerate(mono):
            kind = table.basis[bid].kind
            if kind == "f":
                continue
            if kind == "e":
                killed = True
                break
            if cut == len(mono):
                cut = pos
            scalar *= table.cartan_pairing(table.basis[bid].index, shift) ** exp
            if not scalar:
                break
        if killed or not scalar:
            continue
        rest = mono[:cut]
        new = body.get(rest, Fraction(0)) + scalar
        if new:
            body[rest] = new
        else:
            del body[rest]
    return VermaVector(body, v.highest_weight)


def weight_of(v: VermaVector, engine: PBWEngine) -> Weight:
    """Weight of a homogeneous vector, lambda - rho + (body weight)."""
    return wsum(v.highest_weight, wdiff(engine.element_weight(v.body), engine.table.alg.rho))


@dataclass(frozen=True)
class SingularityReport:
    ok: bool
    nonzero: bool
    residuals: Tuple[Tuple[str, int], ...]


def is_singular(v: VermaVector, engine: PBWEngine) -> SingularityReport:
    """Check that v is nonzero and killed by every raising simple generator.

    The residual list names each simple root together with the number of
    surviving terms, so a failure is attributable.
    """
    table = engine.table
    nonzero = not v.is_zero()
    residuals = []
    ok = nonzero
    for j, s in enumerate(table.alg.simple_system):
        image = act(engine.gen(table.e_id(table.alg.simple_pos_index[j])), v, engine)
        residuals.append((s.name, len(image.body)))
        if image.body:
            ok = False
    return SingularityReport(ok=ok, nonzero=nonzero, residuals=tuple(residuals))
