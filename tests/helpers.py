"""Test-only helpers: element arithmetic on sparse U(g) elements and the
F31 sign-tuple reading of a weight."""

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


def f31_signs_of(w: Weight) -> Optional[str]:
    """Inverse of rootdata.f31_sign_weight; None when w is not a sign-tuple weight."""
    if len(w) != 4 or any(abs(x) != Fraction(1, 2) for x in w):
        return None
    return "".join("+" if x > 0 else "-" for x in w)
