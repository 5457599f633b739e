"""Test-only helpers: element arithmetic on sparse U(g) elements, the
one-power-at-a-time word loop and the F31 sign-tuple reading of a weight."""

from fractions import Fraction
from typing import Optional

from superverma.pbw import UEAElement
from superverma.rootdata import Weight
from superverma.superalgebra import _merge, _scaled


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
