"""Test-only helpers: element arithmetic on sparse U(g) elements, the
one-power-at-a-time word loop, the F31 sign-tuple reading of a weight, the
bilinear form of each family, the weight tuples of the basis and the
Cartan generators' dual weights (references that the package itself does
not keep), and a bracket table with one pair damaged."""

from fractions import Fraction
from typing import Optional, Tuple

from superverma.pbw import UEAElement
from superverma.rootdata import AlgebraData, Weight, wneg, wscale, wsum, wzero
from superverma.superalgebra import BracketTable, Coefficient, Value, _merge, _scaled


def el_zero() -> UEAElement:
    return {}


el_scale = _scaled


def el_add(x: UEAElement, y: UEAElement) -> UEAElement:
    out = dict(x)
    _merge(out, y)
    return out


def el_sub(x: UEAElement, y: UEAElement) -> UEAElement:
    out = dict(x)
    _merge(out, y, -1)
    return out


def words_times(a: UEAElement, el: UEAElement, power) -> UEAElement:
    """The reference word loop: the sum over the words of a of each word
    applied to el from the right, one generator power at a time, where
    power(g, e, part) is g^e . part.  With an engine's power_times this is
    a * el in U(g), with no word joined whole and no image reused."""
    out: UEAElement = {}
    for mono, coef in a.items():
        part = el
        for g, e in reversed(mono):
            part = power(g, e, part)
        _merge(out, part, coef)
    return out


def f31_signs_of(w: Weight) -> Optional[str]:
    """Inverse of rootdata.f31_sign_weight; None when w is not a sign-tuple weight."""
    if len(w) != 4 or any(abs(x) != Fraction(1, 2) for x in w):
        return None
    return "".join("+" if x > 0 else "-" for x in w)


def gram(alg: AlgebraData) -> Tuple[Tuple[int, ...], ...]:
    """The Gram matrix of the bilinear form on the case's coordinates, as
    README states it: diag(+1 per d, -1 per e) for the osp families,
    diag(-3, 1, 1, 1) on (D, e1, e2, e3) for F31, and on (D, e1, e2) for G3
    the form with (D, D) = -2, (e1, e1) = (e2, e2) = 2 and (e1, e2) = -1.
    It is written out here, not read from the package."""
    case = alg.case
    if case.family == "G3":
        return ((-2, 0, 0), (0, 2, -1), (0, -1, 2))
    diagonal = (-3, 1, 1, 1) if case.family == "F31" else (1,) * case.m + (-1,) * case.n
    return tuple(tuple(d if i == j else 0 for j in range(len(diagonal))) for i, d in enumerate(diagonal))


def form(alg: AlgebraData, a: Weight, b: Weight) -> Fraction:
    """The bilinear form (a, b) by gram(alg)."""
    g = gram(alg)
    return sum((x * g[i][j] * y for i, x in enumerate(a) for j, y in enumerate(b)), Fraction(0))


def basis_weight(table: BracketTable, bid: int) -> Weight:
    """The weight tuple of basis element bid, read from the root data:
    -sigma for f_sigma, 0 for h_j, sigma for e_sigma."""
    el = table.basis[bid]
    if el.kind == "h":
        return wzero(table.alg.rank)
    w = table.alg.pos_roots[el.index].weight
    return wneg(w) if el.kind == "f" else w


def cartan_duals(alg: AlgebraData) -> Tuple[Weight, ...]:
    """For each simple root alpha_j, the weight nu_j with <w, h_j> = (w, nu_j)
    for every w, by the bilinear form: 2 alpha_j / (alpha_j, alpha_j), or
    alpha_j itself when (alpha_j, alpha_j) = 0."""
    out = []
    for s in alg.simple_system:
        norm = form(alg, s.weight, s.weight)
        out.append(s.weight if norm == 0 else wscale(Fraction(2) / norm, s.weight))
    return tuple(out)


def value_dual(table: BracketTable, val: Value) -> Weight:
    """The dual weight of a Cartan-valued bracket result: the sum of c * nu_j
    over its terms c * h_j."""
    duals = cartan_duals(table.alg)
    out = wzero(table.alg.rank)
    for bid, c in val.items():
        el = table.basis[bid]
        assert el.kind == "h", el.name
        out = wsum(out, wscale(c, duals[el.index]))
    return out


def with_pair_scaled(table: BracketTable, x: int, y: int, c: Coefficient) -> BracketTable:
    """A table equal to table but for [x, y] and its transpose, times c."""
    entries = dict(table.entries)
    for key in ((x, y), (y, x)):
        entries[key] = _scaled(entries[key], c)
    return BracketTable(table.alg, table.basis, entries)
