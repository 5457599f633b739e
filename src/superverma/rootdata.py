"""Root systems, bilinear forms, and Weyl vectors for six simple-system
presentations of basic Lie superalgebras.

Families:

    B-I    osp type, gamma = delta_m (odd nonisotropic), m, n >= 1
    B-II   osp type, gamma = eps_n (even), m, n >= 1
    D-I    osp type, gamma = 2*delta_m (even), m >= 1, n >= 2
    D-II   osp type, gamma = eps_{n-1} + eps_n (even), m >= 1, n >= 2
    F31    F(3|1), gamma = delta (even)
    G3     G(3), gamma = delta (odd nonisotropic)

Weights are tuples of exact numbers over a fixed coordinate basis per
case: (d1..dm, e1..en) for the osp families, (D, e1, e2, e3) for F31, and
(D, e1, e2) for G3, where e3 := -e1-e2 is eliminated at the coordinate
level.  Every number the build makes is canonical, as bracket coefficients
are: an int when integral, a Fraction otherwise (the halves of the F31 odd
roots and of the B-type and exceptional rho), so the set-up runs on ints.

A positive root is given by its index, its datum or its name (RootSpec),
never by its weight.  The positive roots lie on one integer lattice
(lattice over weight_den), where weights are summed coordinate by
coordinate.  For root lookups, each lattice point also packs into one int
(keys; unit_key(k) is the key of the k-th unit weight), so a root built
from others by integer steps is found by one int lookup (at, root_of):
AlgebraData.sums, for every ordered pair of positive-root indices (mu, nu)
whose sum is a positive root sigma, holds sums[(mu, nu)] = sigma, and the
simple-root decompositions and the bracket closure in superalgebra read only
that table.  The orbit chains walk the keys the same way.

Every coroot pairing <lambda, h_sigma> is one dot product of lambda with a
row stored per positive root (coroot_rows), so lambda's coordinates may be
of any exact type: nothing converts them.

The bilinear form is normalized so that (d_i, d_j) = +delta_ij and
(e_k, e_l) = -delta_kl in the osp families; forms for F31 and G3 are
fixed by requiring (rho, alpha) = 0 for the isotropic simple root.
Coroot pairings are ratios, so any consistent global scale gives the
same module theory.  The form is an input of the set-up only: it becomes
coroot_rows, and AlgebraData does not keep it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

# an exact rational in canonical form: an int when integral, else a Fraction
Exact = Union[int, Fraction]
Weight = Tuple[Exact, ...]
Matrix = Tuple[Tuple[Exact, ...], ...]

EVEN = "even"
ODD_ISO = "odd-isotropic"
ODD_NONISO = "odd-nonisotropic"

FAMILIES = ("B-I", "B-II", "D-I", "D-II", "F31", "G3")
OSP_FAMILIES = ("B-I", "B-II", "D-I", "D-II")


class InvalidParams(ValueError):
    """Case parameters or weights outside the valid range."""


class IsotropicCoroot(ValueError):
    """Coroot pairing or reflection requested for an isotropic root."""


class ParityViolation(InvalidParams):
    """An integer parameter has the wrong parity for the requested case."""


class RootDataError(RuntimeError):
    """Constructed root data violates an invariant the construction promises."""


# ---------------------------------------------------------------------------
# weight arithmetic


def wsum(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def wdiff(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def wneg(a: Weight) -> Weight:
    return tuple(-x for x in a)


def wscale(c, a: Weight) -> Weight:
    return tuple(c * x for x in a)


def wzero(dim: int) -> Weight:
    return (0,) * dim


def parse_weight(text: str, dim: int) -> Weight:
    """Integers, p/q or decimals, comma-separated.  Exponent notation is
    refused: a few characters of it name a number of any length."""
    if any(c in "eE" for c in text):
        raise InvalidParams("exponent notation is not accepted")
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != dim:
        raise InvalidParams(f"expected {dim} coordinates, got {len(parts)}")
    try:
        return tuple(_exact(Fraction(p)) for p in parts)
    except ZeroDivisionError:
        raise InvalidParams("zero denominator") from None


def format_weight(w: Weight) -> str:
    return ",".join(str(x) for x in w)


def solve_square(rows: Sequence[Sequence[Exact]], rhs: Sequence[Exact]) -> List[Exact]:
    """Solve A x = b over the rationals by Gaussian elimination, keeping
    every number canonical, so an integral system stays in ints.

    Raises ValueError when A is not square or is singular.
    """
    n = len(rhs)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError("not a square system")
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col][col]
        if p != 1:
            aug[col] = [_quotient(x, p) for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [_exact(x - factor * y) for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


# a sparse row: the (i, c) with c != 0, by i; for a coroot h, <w, h> is the
# sum of w[i] * c
Row = Tuple[Tuple[int, Exact], ...]


def pairing(row: Row, w: Weight):
    """<w, h> for the coroot h whose row is row: one dot product, in
    canonical form (an int when integral)."""
    return _exact(sum(w[i] * c for i, c in row))


def _exact(c):
    """c in canonical form: an int when integral, else the Fraction."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _quotient(a: Exact, b: Exact) -> Exact:
    """a / b in canonical form, with no Fraction when b divides a in ints."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return _exact(Fraction(a, b))


# ---------------------------------------------------------------------------
# case identifiers


class CaseId:
    """A family and, for the osp families, m and n: checked when made
    (InvalidParams), compared and hashed by value, and immutable."""

    def __init__(self, family: str, m: int = 0, n: int = 0):
        if family not in FAMILIES:
            raise InvalidParams(f"unknown family {family!r}")
        if family in OSP_FAMILIES:
            nmin = 2 if family in ("D-I", "D-II") else 1
            if m < 1 or n < nmin:
                raise InvalidParams(f"{family} requires m >= 1 and n >= {nmin}, got m={m}, n={n}")
        elif m or n:
            raise InvalidParams(f"{family} takes no m, n parameters")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not CaseId:
            return NotImplemented
        return (self.family, self.m, self.n) == (other.family, other.m, other.n)

    def __hash__(self):
        return hash((self.family, self.m, self.n))

    def __repr__(self):
        return f"CaseId(family={self.family!r}, m={self.m!r}, n={self.n!r})"

    @property
    def text(self) -> str:
        if self.family in OSP_FAMILIES:
            return f"{self.family}:m={self.m},n={self.n}"
        return self.family

    @property
    def dim(self) -> int:
        """The superalgebra's dimension, known before anything is built:
        osp(M|2m) with M = 2n + 1 (B) or 2n (D) has so(M) + sp(2m) even
        and M * 2m odd basis elements; F(4) has 40, G(3) 31."""
        if self.family not in OSP_FAMILIES:
            return {"F31": 40, "G3": 31}[self.family]
        M = self.odd_dim // (2 * self.m)
        return M * (M - 1) // 2 + self.m * (2 * self.m + 1) + self.odd_dim

    @property
    def odd_dim(self) -> int:
        """The number of odd basis elements, M * 2m for osp(M|2m)."""
        if self.family not in OSP_FAMILIES:
            return {"F31": 16, "G3": 14}[self.family]
        return (2 * self.n + (1 if self.family.startswith("B") else 0)) * 2 * self.m

    @property
    def odd_gamma(self) -> bool:
        """Whether gamma is odd (B-I, G3), known before anything is built."""
        return self.family in ("B-I", "G3")

    @staticmethod
    def parse(text: str) -> "CaseId":
        text = text.strip()
        if ":" not in text:
            return CaseId(text)
        family, _, params = text.partition(":")
        match = re.fullmatch(r"m=(\d+),n=(\d+)", params)
        if not match:
            raise InvalidParams(f"cannot parse case text {text!r}")
        return CaseId(family, int(match.group(1)), int(match.group(2)))


class RootDatum(NamedTuple):
    weight: Weight
    parity: str
    name: str
    # the root's position in AlgebraData.pos_roots
    index: int

    @property
    def odd(self) -> bool:
        return self.parity != EVEN

    @property
    def isotropic(self) -> bool:
        return self.parity == ODD_ISO


# a positive root as its index, its datum or its name
RootSpec = Union[int, RootDatum, str]


# ---------------------------------------------------------------------------
# name rendering


def render_weight_name(coord_names: Sequence[str], w: Weight) -> str:
    """Render a weight as a signed combination of coordinate names.

    Positive terms come first (in coordinate order), then negative terms.
    A weight with fractional coordinates is rendered over the least common
    denominator, as "(...)/2" or "(2a+b)/4".
    """
    den = lcm(*(x.denominator for x in w))
    terms = [(x * den, name) for x, name in zip(w, coord_names) if x]
    out = ""
    for c, name in sorted(terms, key=lambda t: t[0] < 0):  # stable: positives first
        sign = "-" if c < 0 else "+" if out else ""
        out += sign + (name if abs(c) == 1 else f"{abs(c)}{name}")
    if not out:
        return "0"
    return f"({out})/{den}" if den != 1 else out


F31_SIGN_CHARS = {"+": Fraction(1, 2), "-": Fraction(-1, 2)}


def f31_sign_weight(signs: str) -> Weight:
    """Weight of an F31 odd root given as a four character sign tuple.

    The tuple lists the signs of (D, e1, e2, e3) in (D +- e1 +- e2 +- e3)/2,
    e.g. "+--+" is (D - e1 - e2 + e3)/2.  An ASCII hyphen or a unicode minus
    both denote a minus sign.
    """
    signs = signs.replace("−", "-")
    if len(signs) != 4 or any(ch not in F31_SIGN_CHARS for ch in signs):
        raise InvalidParams(f"bad sign tuple {signs!r}")
    return tuple(F31_SIGN_CHARS[ch] for ch in signs)


# ---------------------------------------------------------------------------
# algebra data


class AlgebraData(NamedTuple):
    """The root data of one case, built once by build_algebra_data.  It
    holds dicts, so it is compared and hashed by identity, not by content;
    _replace gives a copy with some fields changed."""

    case: CaseId
    coord_names: Tuple[str, ...]
    simple_system: Tuple[RootDatum, ...]
    pos_roots: Tuple[RootDatum, ...]
    rho: Weight
    gamma: RootDatum
    heights: Tuple[int, ...]
    decomp: Tuple[Optional[Tuple[int, int]], ...]
    simple_pos_index: Tuple[int, ...]
    names: Dict[str, int]
    # the positive roots on one integer lattice: pos_roots[i].weight is
    # lattice[i] / weight_den, coordinate by coordinate
    weight_den: int
    lattice: Tuple[Tuple[int, ...], ...]
    # each lattice point c packed as the int sum of c[i] * base**i: keys[i]
    # is the key of pos_roots[i], and at maps a key back to its index.  The
    # key of a sum is the sum of the keys, and two points with coordinates
    # of at most twice the largest root coordinate meet as keys only when
    # they meet as points, so at answers for any such point
    base: int
    keys: Tuple[int, ...]
    at: Dict[int, int]
    # sums[(mu, nu)] = sigma when pos_roots mu + nu = sigma, for every
    # ordered pair of positive-root indices whose sum is a positive root
    sums: Dict[Tuple[int, int], int]
    # per positive root sigma, the row of its coroot: <w, h_sigma> is
    # pairing(coroot_rows[sigma], w), 2 (w, sigma) / (sigma, sigma); for an
    # isotropic sigma, which has no coroot pairing, the row of (w, sigma)
    coroot_rows: Tuple[Row, ...]

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    @property
    def dim(self) -> int:
        return 2 * len(self.pos_roots) + len(self.simple_system)

    @property
    def rank(self) -> int:
        return len(self.coord_names)

    def as_index(self, root: RootSpec) -> int:
        """The positive-root index of a root given any way RootSpec allows."""
        if isinstance(root, int):
            if not 0 <= root < len(self.pos_roots):
                raise InvalidParams(f"{root} is not a positive-root index")
            return root
        if isinstance(root, RootDatum):
            return root.index
        if isinstance(root, str):
            return self.root_named(root).index
        raise InvalidParams(
            f"a root is given by its positive-root index, its RootDatum or its name, not {root!r}"
        )

    def from_lattice(self, point: Sequence[int]) -> Weight:
        """The weight of a lattice point, for output, in canonical form."""
        return tuple(_quotient(c, self.weight_den) for c in point)

    def root_of(self, key: int) -> int:
        """The positive-root index of a key the program computed (RootDataError if none)."""
        try:
            return self.at[key]
        except KeyError:
            raise RootDataError(f"no positive root has lattice key {key}") from None

    def unit_key(self, k: int) -> int:
        """The key of the weight with 1 at coordinate k and 0 elsewhere
        (weight_den * base**k), a root or not."""
        return self.weight_den * self.base ** k

    def root_named(self, name: str) -> RootDatum:
        try:
            return self.pos_roots[self.names[name]]
        except KeyError:
            raise InvalidParams(f"no positive root named {name!r}") from None

    def coroot_pairing(self, lam: Weight, beta: RootSpec):
        """<lam, h_beta>, one dot product with beta's stored row."""
        i = self.as_index(beta)
        if self.pos_roots[i].isotropic:
            raise IsotropicCoroot(f"root {self.pos_roots[i].name} is isotropic")
        return pairing(self.coroot_rows[i], lam)

    def reflect(self, lam: Weight, beta: RootSpec) -> Weight:
        i = self.as_index(beta)
        return wdiff(lam, wscale(self.coroot_pairing(lam, i), self.pos_roots[i].weight))


def rho_violation(alg: AlgebraData) -> Optional[str]:
    """The first Weyl vector invariant alg.rho breaks, or None: rho is the
    even half-sum less the odd one, pairs to 1 with every nonisotropic
    simple coroot, and is orthogonal to every isotropic simple root (whose
    stored row is that of (w, s)).  The half-sum is checked as 2 rho
    against the signed sum of the positive roots, which stays in ints
    wherever the roots are integral."""
    signed_sum = wzero(alg.rank)
    for r in alg.pos_roots:
        signed_sum = wdiff(signed_sum, r.weight) if r.odd else wsum(signed_sum, r.weight)
    if signed_sum != wscale(2, alg.rho):
        half_sum = wscale(Fraction(1, 2), signed_sum)
        return f"rho mismatch: ({format_weight(alg.rho)}) is not the half-sum ({format_weight(half_sum)})"
    for s in alg.simple_system:
        if s.isotropic:
            if pairing(alg.coroot_rows[s.index], alg.rho) != 0:
                return f"(rho, {s.name}) is not zero"
        elif alg.coroot_pairing(alg.rho, s) != 1:
            return f"<rho, h_{s.name}> is not one"
    return None


# ---------------------------------------------------------------------------
# construction


def _unit(dim: int, i: int) -> Weight:
    return tuple(1 if j == i else 0 for j in range(dim))


def _diag_form(entries: Sequence[int]) -> Matrix:
    dim = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(dim)) for i in range(dim))


def _assemble(
    case: CaseId,
    coord_names: Sequence[str],
    gram: Matrix,
    simple_weights: Sequence[Weight],
    even_weights: Sequence[Weight],
    odd_weights: Sequence[Weight],
    rho_closed: Weight,
    gamma_weight: Weight,
    names: Optional[Dict[Weight, str]] = None,
) -> AlgebraData:
    coord_names = tuple(coord_names)
    names = names or {}

    def name_for(w: Weight) -> str:
        return names.get(w, render_weight_name(coord_names, w))

    if len(set(even_weights)) != len(even_weights):
        raise RootDataError(f"{case.text}: repeated even root")
    if len(set(odd_weights)) != len(odd_weights):
        raise RootDataError(f"{case.text}: repeated odd root")
    if set(even_weights) & set(odd_weights):
        raise RootDataError(f"{case.text}: a root is both even and odd")

    # each weight w paired by the (symmetric) form, sparsely: gram_row(w)[i] = (e_i, w)
    sparse_gram = [[(j, g) for j, g in enumerate(row) if g] for row in gram]

    def gram_row(w: Weight) -> Dict[int, Exact]:
        out: Dict[int, Exact] = {}
        for j, x in enumerate(w):
            if x:
                for i, g in sparse_gram[j]:
                    out[i] = out.get(i, 0) + g * x
        return out

    def classify(w: Weight, odd: bool, norm: Exact) -> str:
        if not odd:
            if norm == 0:
                raise RootDataError(f"{case.text}: even root {name_for(w)} must be nonisotropic")
            return EVEN
        return ODD_ISO if norm == 0 else ODD_NONISO

    even = sorted(even_weights)
    odd = sorted(odd_weights)
    pos_roots = []
    coroot_rows: List[Row] = []
    for w, is_odd in [(w, False) for w in even] + [(w, True) for w in odd]:
        fw = gram_row(w)
        norm = sum(x * fw.get(i, 0) for i, x in enumerate(w) if x)
        scale = _quotient(2, norm) if norm else 1
        coroot_rows.append(tuple((i, _exact(scale * c)) for i, c in sorted(fw.items()) if c))
        pos_roots.append(RootDatum(w, classify(w, is_odd, norm), name_for(w), len(pos_roots)))
    pos_roots = tuple(pos_roots)
    index = {r.weight: i for i, r in enumerate(pos_roots)}
    names = {r.name: i for i, r in enumerate(pos_roots)}
    if len(names) != len(pos_roots):
        raise RootDataError(f"{case.text}: two positive roots share a name")

    def position(w: Weight, role: str) -> int:
        if w not in index:
            raise RootDataError(f"{case.text}: {role} {name_for(w)} is not a positive root")
        return index[w]

    simple_pos_index = tuple(position(w, "simple root") for w in simple_weights)
    simple_system = tuple(pos_roots[i] for i in simple_pos_index)

    # The one basis check: the height functional phi takes the value 1 on
    # every simple root, and it exists only when they form a basis.
    dim = len(coord_names)
    try:
        phi = solve_square(simple_weights, [1] * dim)
    except ValueError:
        raise RootDataError(f"{case.text}: the simple roots are not a basis") from None
    # Each root on the lattice, then each lattice point as one int whose
    # base-B digits (signed) are its coordinates: B exceeds twice the
    # largest coordinate of a sum of two roots, so the int of mu + nu is
    # the sum of the ints of mu and nu, and two points of that box meet as
    # ints only when they meet as vectors.
    den = lcm(*(x.denominator for r in pos_roots for x in r.weight))
    lattice = tuple(tuple(x.numerator * (den // x.denominator) for x in r.weight) for r in pos_roots)
    base = 4 * max(abs(c) for point in lattice for c in point) + 1
    digits = [base ** i for i in range(dim)]
    keys = [sum(c * b for c, b in zip(point, digits) if c) for point in lattice]
    at = {key: i for i, key in enumerate(keys)}
    # sums is symmetric, so each unordered pair is looked up once
    sums: Dict[Tuple[int, int], int] = {}
    for mu, a in enumerate(keys):
        for nu, b in enumerate(keys[mu:], mu):
            sigma = at.get(a + b)
            if sigma is not None:
                sums[mu, nu] = sums[nu, mu] = sigma

    # phi(sigma) in ints: phi times its common denominator, on the lattice
    phi_den = lcm(*(p.denominator for p in phi))
    phi_row = [p.numerator * (phi_den // p.denominator) for p in phi]
    heights = tuple(sum(p * c for p, c in zip(phi_row, point) if c) // (phi_den * den) for point in lattice)

    # A root sigma outside the simple system is alpha_k + tau for the first
    # simple root alpha_k whose difference tau is a positive root.  As
    # phi(tau) = phi(sigma) - 1, these steps end at a simple root, so every
    # positive root sigma is a sum of phi(sigma) simple roots, repeats allowed.
    decomp: List[Optional[Tuple[int, int]]] = [None] * len(pos_roots)
    for k, s in enumerate(simple_pos_index):
        for tau in range(len(pos_roots)):
            sigma = sums.get((s, tau))
            if sigma is not None and decomp[sigma] is None and sigma not in simple_pos_index:
                decomp[sigma] = (k, tau)
    for pos, r in enumerate(pos_roots):
        if decomp[pos] is None and pos not in simple_pos_index:
            raise RootDataError(f"{case.text}: no simple-root decomposition for {r.name}")

    alg = AlgebraData(
        case=case,
        coord_names=coord_names,
        simple_system=simple_system,
        pos_roots=pos_roots,
        rho=rho_closed,
        gamma=pos_roots[position(gamma_weight, "gamma")],
        heights=heights,
        decomp=tuple(decomp),
        simple_pos_index=simple_pos_index,
        names=names,
        weight_den=den,
        lattice=lattice,
        base=base,
        keys=tuple(keys),
        at=at,
        sums=sums,
        coroot_rows=tuple(coroot_rows),
    )

    problem = rho_violation(alg)
    if problem is not None:
        raise RootDataError(f"{case.text}: {problem}")
    if alg.gamma.isotropic:
        raise RootDataError(f"{case.text}: gamma must be nonisotropic")
    return alg


# family -> (coordinate block that leads the simple system, B or D type);
# the other block trails
_OSP_SHAPES = {
    "B-I": ("d", "B"),
    "B-II": ("e", "B"),
    "D-I": ("d", "D"),
    "D-II": ("e", "D"),
}


def _build_osp(case: CaseId) -> AlgebraData:
    m, n = case.m, case.n
    lead, kind = _OSP_SHAPES[case.family]
    trail = "e" if lead == "d" else "d"
    dim = m + n
    coord_names = tuple(f"d{i + 1}" for i in range(m)) + tuple(f"e{j + 1}" for j in range(n))
    form = _diag_form([1] * m + [-1] * n)
    block = {"d": [_unit(dim, i) for i in range(m)], "e": [_unit(dim, m + j) for j in range(n)]}
    delta, eps = block["d"], block["e"]

    def closing(letter: str) -> Weight:
        x = block[letter]
        if kind == "B":
            return x[-1]
        return wscale(2, x[-1]) if letter == "d" else wsum(x[-2], x[-1])

    def plus_minus(pairs) -> List[Weight]:
        pairs = list(pairs)
        return [op(a, b) for op in (wdiff, wsum) for a, b in pairs]

    def chain(x: Sequence[Weight]) -> List[Weight]:
        return [wdiff(a, b) for a, b in zip(x, x[1:])]

    even = plus_minus(combinations(delta, 2)) + [wscale(2, d) for d in delta]
    even += plus_minus(combinations(eps, 2))
    odd = plus_minus(product(block[lead], block[trail]))
    if kind == "B":
        even += eps
        odd += delta
    simples = (
        chain(block[lead])
        + [wdiff(block[lead][-1], block[trail][0])]
        + chain(block[trail])
        + [closing(trail)]
    )
    # rho's coordinate on x_i is |x| - i + offset(x), less |trail| on the lead block
    size = {"d": m, "e": n}
    if kind == "B":
        offset = {"d": Fraction(1, 2), "e": Fraction(1, 2)}
    else:
        offset = {"d": 1, "e": 0}
    rho = tuple(
        size[x] - i + offset[x] - (size[trail] if x == lead else 0)
        for x in "de"
        for i in range(1, size[x] + 1)
    )
    return _assemble(case, coord_names, form, simples, even, odd, rho, closing(lead))


def _build_f31(case: CaseId) -> AlgebraData:
    coord_names = ("D", "e1", "e2", "e3")
    form = _diag_form([-3, 1, 1, 1])
    delta = _unit(4, 0)
    eps = [_unit(4, j) for j in (1, 2, 3)]
    even = (
        [delta]
        + [eps[i] for i in range(3)]
        + [wdiff(eps[i], eps[j]) for i in range(3) for j in range(i + 1, 3)]
        + [wsum(eps[i], eps[j]) for i in range(3) for j in range(i + 1, 3)]
    )
    odd = []
    names: Dict[Weight, str] = {}
    for s1 in "+-":
        for s2 in "+-":
            for s3 in "+-":
                signs = "+" + s1 + s2 + s3
                w = f31_sign_weight(signs)
                odd.append(w)
                names[w] = signs
    simples = [wdiff(eps[0], eps[1]), wdiff(eps[1], eps[2]), eps[2], f31_sign_weight("+---")]
    rho = (Fraction(-3, 2), Fraction(5, 2), Fraction(3, 2), Fraction(1, 2))
    return _assemble(case, coord_names, form, simples, even, odd, rho, delta, names)


def _build_g3(case: CaseId) -> AlgebraData:
    coord_names = ("D", "e1", "e2")
    form = ((-2, 0, 0), (0, 2, -1), (0, -1, 2))
    delta = _unit(3, 0)
    e1 = _unit(3, 1)
    e2 = _unit(3, 2)
    e3 = wneg(wsum(e1, e2))
    even = [
        wscale(2, delta),
        e1,
        e2,
        wsum(e1, e2),
        wdiff(e2, e1),
        wsum(wscale(2, e1), e2),
        wsum(e1, wscale(2, e2)),
    ]
    odd = [
        delta,
        wdiff(delta, e1),
        wsum(delta, e1),
        wdiff(delta, e2),
        wsum(delta, e2),
        wdiff(delta, e3),
        wsum(delta, e3),
    ]
    names = {
        wdiff(delta, e3): "D-e3",
        wsum(delta, e3): "D+e3",
    }
    simples = [wdiff(e2, e1), e1, wsum(delta, e3)]
    rho = (Fraction(-5, 2), 2, 3)
    return _assemble(case, coord_names, form, simples, even, odd, rho, delta, names)


_BUILDERS = {**dict.fromkeys(_OSP_SHAPES, _build_osp), "F31": _build_f31, "G3": _build_g3}


def build_algebra_data(case: CaseId) -> AlgebraData:
    """The case's root data, checked against what CaseId knows: the dimensions
    (a basis element per simple root, two per positive root) and gamma's parity."""
    alg = _BUILDERS[case.family](case)
    odd_dim = 2 * sum(r.odd for r in alg.pos_roots)
    got, want = (alg.dim, odd_dim, alg.gamma.odd), (case.dim, case.odd_dim, case.odd_gamma)
    if got != want:
        raise RootDataError(f"{case.text}: dimension, odd dimension and odd gamma {got}, expected {want}")
    return alg
