"""Supercommutator tables generated from a simple-root presentation.

The basis has one lowering generator f_sigma per positive root, one Cartan
generator h_i per simple root alpha_i, and one raising generator e_sigma
per positive root.  The defining choices are

    [e_i, f_j] = delta_ij h_i            on simple generators,
    e_sigma := [e_k, e_tau],  f_sigma := [f_k, f_tau]

for each non-simple positive root sigma, where sigma = alpha_k + tau is
the stored decomposition.  Every other bracket is forced by the super
Jacobi identity.  Each bracket has one derivation: a mixed bracket
[e_a, f_b] is derived on demand by recursion on height through the
decomposition of a or b, and the same-sign pairs [e_mu, e_nu], [f_mu, f_nu]
are solved by probing with a simple generator, in increasing height of
mu + nu, so that every step only reads brackets of lower height.  Which
pairs of roots add up to a root is read from the root data's integer table
alg.sums, by positive-root index; the closure does no weight arithmetic.

The table stores nonzero brackets only, and every other pair reads as one
shared, read-only empty value, EMPTY (31% of all pairs are nonzero at D-II
m=n=3, 12% at m=n=8).  A zero bracket is zero by the root grading: a pair
with a Cartan generator whose pairing vanishes, a mixed pair [e_a, f_b]
whose a - b is no root, or a same-sign pair whose sum is no root.  The
closure knows those without storing them; every pair it derives has a root
or Cartan weight and must come out nonzero.  A pair its schedule reads
before deriving it, a probe that leaves the root grading, a derived 0, or
a same-sign pair of root sum still underived at the end raises
ClosureFailure.

Bracket values are dicts mapping basis ids to exact rational coefficients,
so a value can be a root-vector multiple or a Cartan combination.  Every
coefficient is stored in one canonical form: an int when it is integral,
a Fraction otherwise (never a float, never a Fraction with denominator 1).
Most coefficients here and in the PBW and module layers are integers, and
int arithmetic is much cheaper than Fraction arithmetic.

A Cartan value c_0 h_0 + ... is one coroot row, the sum of c_j times the
simple roots' coroot rows of the root data (cartan_row), so every pairing
<w, h> is one dot product; a basis element's weight is its lattice row,
weight_rows[b].
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from types import MappingProxyType
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .rootdata import AlgebraData, RootSpec, Row, Weight, _exact, _quotient, pairing

# an exact rational: an int when integral, a Fraction otherwise
Coefficient = Union[int, Fraction]
Value = Dict[int, Coefficient]
# the value of every zero bracket: one shared mapping that refuses mutation
EMPTY: Value = MappingProxyType({})


# the highest exponent whose (generator, exponent) pair a table's PowerStore
# keeps: a store holds at most MAX_SHARED_EXPONENT pairs per generator, so
# at most 51,200 at D-II m=n=10 (dim 800), and a higher power is a fresh
# pair each time.  No monomial of the goldens carries an exponent above 11,
# and none of the CI's large orbit and verify runs one above 12
MAX_SHARED_EXPONENT = 64


class PowerStore(dict):
    """The generator powers of one bracket table: store[g, e] is the one
    (g, e) pair that every monomial built on the table shares.  A power
    asked for the first time is the key itself, kept when
    1 <= e <= MAX_SHARED_EXPONENT, so a pair costs one object however many
    monomials hold it; monomials still compare and hash by value."""

    def __missing__(self, pair: Tuple[int, int]) -> Tuple[int, int]:
        if 1 <= pair[1] <= MAX_SHARED_EXPONENT:
            self[pair] = pair
        return pair


class ClosureFailure(RuntimeError):
    """The Jacobi closure could not determine or verify a bracket."""


class BasisElement(NamedTuple):
    bid: int
    kind: str  # "f", "h", or "e"
    index: int  # positive-root index for e/f, simple index for h
    odd: bool
    name: str


# Sparse vectors (dicts from keys to nonzero coefficients in canonical
# form) are shared by the bracket table here and by U(g) elements in pbw
# and verma.  _exact, _scaled and _merge keep every stored value canonical.
# Exact arithmetic happens only where two terms meet: a merge stores c * v
# on a key new to its target (v itself when c = 1, -v when c = -1) and adds
# only on a key already there.


def _scaled(val: Dict, c: Coefficient) -> Dict:
    """c * val for an int or Fraction c; c = 1 copies and c = -1 negates
    each value, with no multiplication."""
    if not c:
        return {}
    if c == 1:
        return {k: _exact(v) for k, v in val.items()}
    if c == -1:
        return {k: _exact(-v) for k, v in val.items()}
    return {k: _exact(c * v) for k, v in val.items()}


def _merge(into: Dict, val: Dict, c: Coefficient = 1) -> None:
    """into += c * val, dropping keys that cancel.  A key not yet in into
    gets c * v (v itself when c = 1, -v when c = -1), or nothing when that
    is 0; only a key already there is added to."""
    one, minus = c == 1, c == -1
    get = into.get
    for k, v in val.items():
        cv = v if one else -v if minus else c * v
        old = get(k)
        new = cv if old is None else old + cv
        if new:
            into[k] = _exact(new)
        elif old is not None:
            del into[k]


def _row_sum(terms: Iterable[Tuple[Coefficient, Row]]) -> Row:
    """The row of the sum of c * h over the (c, row of h) in terms."""
    out: Dict[int, Coefficient] = {}
    for c, row in terms:
        _merge(out, dict(row), c)
    return tuple(sorted(out.items()))


def _left_bracket(bracket: Callable[[int, int], Value], x: int, val: Value) -> Value:
    """[x, val] = sum of c * [x, z] over the terms c * z of val."""
    out: Value = {}
    for z, c in val.items():
        _merge(out, bracket(x, z), c)
    return out


def _right_bracket(bracket: Callable[[int, int], Value], val: Value, y: int) -> Value:
    """[val, y] = sum of c * [z, y] over the terms c * z of val."""
    out: Value = {}
    for z, c in val.items():
        _merge(out, bracket(z, y), c)
    return out


def _ksign(odd: Sequence[bool], x: int, y: int) -> int:
    """The sign of swapping basis elements x and y (odd is the table's
    parity per basis id): -1 when both are odd."""
    return -1 if odd[x] and odd[y] else 1


def _signed_sum(terms, joiner: str) -> str:
    """Join (coefficient, text) pairs as "a - 2<joiner>b + c"; "0" if none."""
    out = ""
    for c, text in terms:
        term = text if c == 1 else f"-{text}" if c == -1 else f"{c}{joiner}{text}"
        if not out:
            out = term
        else:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out or "0"


class BracketTable:
    """The supercommutators of one case's basis, with the per-basis-element
    rows the straightening loops read; compared by identity."""

    alg: AlgebraData
    basis: Tuple[BasisElement, ...]
    # the nonzero brackets only, keyed (x, y); a pair not here is zero and
    # reads as EMPTY through bracket
    entries: Dict[Tuple[int, int], Value]
    # the basis is f_0..f_{P-1}, h_0..h_{R-1}, e_0..e_{P-1}: P = n_pos
    # positive roots and R = n_cartan simple roots
    n_pos: int
    n_cartan: int
    _e_base: int
    # weight_den times each basis weight, as a row of its nonzero lattice
    # coordinates: f_sigma at -sigma, h_j empty, e_sigma at sigma.  A
    # monomial's lattice point is the sum of its rows times the exponents
    weight_rows: Tuple[Row, ...]
    # the simple roots' coroot rows from the root data, nonzero entries
    # only: <w, h_j> is pairing(cartan_rows[j], w)
    cartan_rows: Tuple[Row, ...]
    # <rho, h_j>, so that <lambda - rho, h_j> is one dot product less it
    rho_pairings: Tuple[Coefficient, ...]
    # <wt(b), h_j> for every basis id b, read from cartan_rows: [h_j, b] is
    # pairings[b][j] * b
    pairings: Tuple[Tuple[Coefficient, ...], ...]
    # basis[b].odd for every basis id b, for the straightening loops
    odd: Tuple[bool, ...]
    # ad_chain's (ad_R x)^k(g), keyed g, then x where [g, x] != 0; every
    # engine on this table reads the same lists
    _ad_cache: Dict[int, Dict[int, List[Value]]]
    # powers[g, e] is the one (g, e) pair that every monomial built on this
    # table shares, filled on demand and freed with the table
    powers: PowerStore

    def __init__(
        self, alg: AlgebraData, basis: Tuple[BasisElement, ...], entries: Dict[Tuple[int, int], Value]
    ) -> None:
        self.alg = alg
        self.basis = basis
        self.entries = entries
        P = self.n_pos = len(alg.pos_roots)
        R = self.n_cartan = len(alg.simple_system)
        self._e_base = P + R
        pos_rows = tuple(tuple((i, c) for i, c in enumerate(point) if c) for point in alg.lattice)
        self.weight_rows = tuple(tuple((i, -c) for i, c in row) for row in pos_rows) + ((),) * R + pos_rows
        self.cartan_rows = tuple(alg.coroot_rows[i] for i in alg.simple_pos_index)
        self.rho_pairings = tuple(pairing(row, alg.rho) for row in self.cartan_rows)
        pos = tuple(tuple(pairing(row, r.weight) for row in self.cartan_rows) for r in alg.pos_roots)
        self.pairings = tuple(tuple(-c for c in row) for row in pos) + ((0,) * R,) * R + pos
        self.odd = tuple(el.odd for el in basis)
        self._ad_cache = {}
        self.powers = PowerStore()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def f_id(self, pos_index: int) -> int:
        return pos_index

    def h_id(self, simple_index: int) -> int:
        return self.n_pos + simple_index

    def e_id(self, pos_index: int) -> int:
        return self._e_base + pos_index

    def f_gen(self, root: RootSpec) -> int:
        return self.f_id(self.alg.as_index(root))

    def e_gen(self, root: RootSpec) -> int:
        return self.e_id(self.alg.as_index(root))

    def bracket(self, x: int, y: int) -> Value:
        return self.entries.get((x, y), EMPTY)

    def cartan_row(self, val: Value) -> Row:
        """The coroot row of a Cartan-valued bracket result h, the sum of
        c * cartan_rows[j] over its terms c * h_j: <w, h> is pairing(row, w)."""
        return _row_sum((c, self.cartan_rows[j]) for j, c in self._cartan_terms(val))

    def h_value_pairing(self, val: Value, w: Weight) -> Coefficient:
        """<w, h> in canonical form for a Cartan-valued bracket result h."""
        return pairing(self.cartan_row(val), w)

    def ad_row(self, g: int) -> Dict[int, List[Value]]:
        """For each generator x with [g, x] != 0, ad_chain's list for (g, x)
        as far as it is grown: the cache row of g."""
        row = self._ad_cache.get(g)
        if row is None:
            bracket = self.bracket
            row = self._ad_cache[g] = {x: [y] for x in range(self.dim) if (y := bracket(g, x))}
        return row

    def ad_chain(self, g: int, x: int, a: int) -> List[Value]:
        """[(ad_R x)^k(g) for k = 1, 2, ...] with (ad_R x)(y) = [y, x]: at
        least up to k = a, or up to the first zero, where the root string
        through g ends.  Cached per (g, x), so at most dim^2 lists, each
        grown on demand; the caller asks only for an x with [g, x] != 0,
        applies the binomials and must not change the list."""
        chain = self.ad_row(g)[x]
        while len(chain) < a and chain[-1]:
            chain.append(_right_bracket(self.bracket, chain[-1], x))
        return chain

    def _cartan_terms(self, val: Value) -> Iterator[Tuple[int, Coefficient]]:
        """(simple index j, coefficient of h_j) for each term of a Cartan-valued result."""
        for bid, c in val.items():
            el = self.basis[bid]
            if el.kind != "h":
                raise ClosureFailure(f"{el.name} is not a Cartan generator")
            yield el.index, c

    def render_value(self, val: Value) -> str:
        return _signed_sum(((val[bid], self.basis[bid].name) for bid in sorted(val)), "*")


def build_structure_constants(alg: AlgebraData) -> BracketTable:
    P = len(alg.pos_roots)
    R = len(alg.simple_system)
    basis: List[BasisElement] = []
    for i, r in enumerate(alg.pos_roots):
        basis.append(BasisElement(i, "f", i, r.odd, f"f_{{{r.name}}}"))
    for j, s in enumerate(alg.simple_system):
        basis.append(BasisElement(P + j, "h", j, False, f"h_{{{s.name}}}"))
    for i, r in enumerate(alg.pos_roots):
        basis.append(BasisElement(P + R + i, "e", i, r.odd, f"e_{{{r.name}}}"))
    table = BracketTable(alg=alg, basis=tuple(basis), entries={})
    entries = table.entries
    odd = table.odd
    f_id, h_id, e_id = table.f_id, table.h_id, table.e_id

    def set_entry(x: int, y: int, val: Value) -> None:
        """Store a bracket, whose coefficients are canonical already, and
        its transpose: a copy of val when x and y are odd, else -val.  Every
        pair the closure sets has a root or Cartan weight, so a zero value
        is a ClosureFailure: the table keeps nonzero brackets only."""
        if not val:
            raise ClosureFailure(f"bracket [{basis[x].name}, {basis[y].name}] was derived as 0")
        entries[(x, y)] = val
        if x != y:
            entries[(y, x)] = dict(val) if _ksign(odd, x, y) == -1 else {k: -v for k, v in val.items()}
        elif not odd[x]:
            raise ClosureFailure(f"even square bracket [{basis[x].name}, {basis[x].name}] must vanish")

    spi = alg.simple_pos_index
    sums = alg.sums

    def zero_by_grading(x: int, y: int) -> bool:
        """Whether (x, y), not mixed, is zero by the grading: a pair with a
        Cartan generator is set in level 1 unless it is 0, and a same-sign
        pair [X_mu, X_nu] is 0 when mu + nu is no root (read with mu <= nu)."""
        ex, ey = basis[x], basis[y]
        return "h" in (ex.kind, ey.kind) or (min(ex.index, ey.index), max(ex.index, ey.index)) not in sums

    # level 1: Cartan action, simple mixed pairs, and the defining ladder
    for x in range(table.dim):
        for j, c in enumerate(table.pairings[x]):
            if c:
                set_entry(h_id(j), x, {x: c})
    for a in range(R):
        set_entry(e_id(spi[a]), f_id(spi[a]), {h_id(a): 1})
    for s in range(P):
        if alg.decomp[s] is not None:
            k, t = alg.decomp[s]
            set_entry(e_id(spi[k]), e_id(t), {e_id(s): 1})
            set_entry(f_id(spi[k]), f_id(t), {f_id(s): 1})

    # parts[sigma] maps mu to nu for each split mu + nu = sigma
    parts: List[Dict[int, int]] = [{} for _ in range(P)]
    for (mu, nu), s in sums.items():
        parts[s][mu] = nu

    # mixed brackets [e_a, f_b] on demand, recursing on height; they only
    # read same-sign pairs below max(height a, height b)
    def bracket_ids(x: int, y: int) -> Value:
        val = entries.get((x, y))
        if val is not None:
            return val
        ex, ey = basis[x], basis[y]
        if ex.kind == "e" and ey.kind == "f":
            ensure_mixed(ex.index, ey.index)
        elif ex.kind == "f" and ey.kind == "e":
            ensure_mixed(ey.index, ex.index)
        elif not zero_by_grading(x, y):
            raise ClosureFailure(f"bracket [{ex.name}, {ey.name}] needed before it was built")
        return entries.get((x, y), EMPTY)

    # the ids ensure_mixed reads most, unwrapped: f_b is b, e_a is E + a
    E = e_id(0)
    heights, decomp = alg.heights, alg.decomp

    def ensure_mixed(a: int, b: int) -> None:
        ea = E + a
        if (ea, b) in entries:
            return
        # a - b has height ha - hb, so it is a root only if the higher
        # minus the lower is a positive root, that is, the lower is a part
        # of the higher; at equal heights it never is, and [e_a, f_b] is 0
        ha, hb = heights[a], heights[b]
        if a != b:
            if ha == hb or (b not in parts[a] if ha > hb else a not in parts[b]):
                return
        if hb >= 2:
            k, t = decomp[b]
            fk = spi[k]
            out = _right_bracket(bracket_ids, bracket_ids(ea, fk), t)
            _merge(out, _left_bracket(bracket_ids, fk, bracket_ids(ea, t)), _ksign(odd, ea, fk))
        else:
            if ha < 2:
                raise ClosureFailure(f"simple pair [{basis[ea].name}, {basis[b].name}] was not set in level 1")
            l, p = decomp[a]
            el, ep = E + spi[l], E + p
            out = _left_bracket(bracket_ids, el, bracket_ids(ep, b))
            _merge(out, _left_bracket(bracket_ids, ep, bracket_ids(el, b)), -_ksign(odd, el, ep))
        set_entry(ea, b, out)

    # same-sign pairs [X_mu, X_nu] with mu + nu = sigma, by height of sigma:
    # a simple probe Y_j with [Y_j, X_sigma] = c X_target != 0 gives
    # [Y_j, [X_mu, X_nu]] = [[Y_j, X_mu], X_nu] +- [X_mu, [Y_j, X_nu]]
    for s in sorted(range(P), key=lambda s: alg.heights[s]):
        if alg.heights[s] == 1:
            continue
        splits = sorted(parts[s].items())
        for X, Y in ((e_id, f_id), (f_id, e_id)):
            probe = next((Y(spi[j]) for j in range(R) if bracket_ids(Y(spi[j]), X(s))), None)
            if probe is None:
                raise ClosureFailure(f"no simple generator detects {alg.pos_roots[s].name}")
            hit = bracket_ids(probe, X(s))
            if len(hit) != 1:
                raise ClosureFailure("a root-graded bracket has one component")
            ((target, tc),) = hit.items()
            if basis[target].kind != basis[X(s)].kind:
                raise ClosureFailure(f"{basis[target].name} is not of the kind of {basis[X(s)].name}")
            for mu, nu in splits:
                if (X(mu), X(nu)) in entries:
                    continue
                rhs = _right_bracket(bracket_ids, bracket_ids(probe, X(mu)), X(nu))
                _merge(rhs, _left_bracket(bracket_ids, X(mu), bracket_ids(probe, X(nu))),
                       _ksign(odd, probe, X(mu)))
                if not set(rhs) <= {target}:
                    raise ClosureFailure("probe identity left the target line")
                # rhs is c X_target, c != 0, or 0, which set_entry refuses
                set_entry(X(mu), X(nu), {X(s): _quotient(c, tc) for c in rhs.values()})

    # [e_a, f_b] has weight a - b, so it is nonzero only for a = b or for a
    # root a - b, that is, when one of a, b is a part of the other
    for a in range(P):
        ensure_mixed(a, a)
        for b in parts[a]:
            ensure_mixed(a, b)
            ensure_mixed(b, a)

    # level 1 sets the nonzero Cartan pairs, the mixed pass every nonzero
    # [e_a, f_b], and the probes must have derived every same-sign pair of
    # root sum; the grading makes every other pair 0
    unset = [key for mu, nu in sums for key in ((f_id(mu), f_id(nu)), (e_id(mu), e_id(nu))) if key not in entries]
    if unset:
        x, y = min(unset)
        raise ClosureFailure(f"no value derived for [{basis[x].name}, {basis[y].name}]")

    # bracket_ids and ensure_mixed call each other; ending that cycle frees
    # this call's locals on return, not at the next full collection
    del ensure_mixed
    return table


# ---------------------------------------------------------------------------
# consistency checks


class JacobiReport(NamedTuple):
    ok: bool
    pairs_checked: int
    triples_checked: int
    first_violation: Optional[str] = None


def check_jacobi(table: BracketTable) -> JacobiReport:
    """Exhaustive super antisymmetry and Jacobi sweep over the whole basis."""
    basis = table.basis
    odd = table.odd
    bracket = table.bracket
    dim = len(basis)

    pairs = 0
    for x in range(dim):
        for y in range(dim):
            pairs += 1
            lhs = bracket(x, y)
            rhs = _scaled(bracket(y, x), -_ksign(odd, x, y))
            if lhs != rhs:
                return JacobiReport(
                    False, pairs, 0,
                    f"antisymmetry fails for [{basis[x].name}, {basis[y].name}]",
                )

    triples = 0
    for x, y, z in combinations_with_replacement(range(dim), 3):
        triples += 1
        acc: Value = {}
        _merge(acc, _left_bracket(bracket, x, bracket(y, z)), _ksign(odd, x, z))
        _merge(acc, _left_bracket(bracket, y, bracket(z, x)), _ksign(odd, y, x))
        _merge(acc, _left_bracket(bracket, z, bracket(x, y)), _ksign(odd, z, y))
        if acc:
            return JacobiReport(
                False, pairs, triples,
                f"Jacobi fails for ({basis[x].name}, {basis[y].name}, {basis[z].name})",
            )
    return JacobiReport(True, pairs, triples, None)


class ScalingReport(NamedTuple):
    ok: bool
    scales: Dict[str, Fraction]
    detail: str = ""


def check_reference_scaling(table: BracketTable) -> ScalingReport:
    """Match the generated B-II constants against the reference relation list.

    The reference normalization for the rank-2 slice spanned by d_m, e_n and
    e_n +- d_m fixes nine brackets.  A diagonal rescaling of the six root
    vectors (two scales are free gauges) must carry our table onto that list;
    the function solves for the scales from a spanning subset and then checks
    every relation, including the Cartan-valued ones.  Each scale records
    the relation it was solved from, and a relation that fails with solved
    scales names those relations too, as one of them may be the damaged
    one.  A Cartan value is
    compared as its coroot row (cartan_row); the reference values
    (h_{d_m} + h_{e_n})/2 and h_{d_m}/2 are half-sums of alg.coroot_rows.
    """
    alg = table.alg
    if alg.case.family != "B-II":
        raise ValueError("reference relation list applies to B-II presentations")
    dm, en = alg.root_named(f"d{alg.case.m}"), alg.root_named(f"e{alg.case.n}")
    emd = alg.pos_roots[alg.root_of(alg.keys[en.index] - alg.keys[dm.index])]
    epd = alg.pos_roots[alg.root_of(alg.keys[en.index] + alg.keys[dm.index])]

    e = {r.name: table.e_gen(r) for r in (dm, en, emd, epd)}
    f = {r.name: table.f_gen(r) for r in (dm, en, emd, epd)}
    half = Fraction(1, 2)
    rows = alg.coroot_rows
    # (x, y, rhs) with rhs either (gen id, coefficient) or ("h", coroot row);
    # the reference Cartan values are (h_{d_m} + h_{e_n})/2 and h_{d_m}/2
    relations = [
        (e[epd.name], f[en.name], (e[dm.name], Fraction(-1))),
        (e[emd.name], f[en.name], (f[dm.name], Fraction(-1))),
        (e[dm.name], f[en.name], (f[emd.name], Fraction(1))),
        (f[dm.name], f[en.name], (f[epd.name], Fraction(1))),
        (e[emd.name], f[emd.name], ("h", _row_sum(((half, rows[dm.index]), (half, rows[en.index]))))),
        (e[emd.name], e[dm.name], (e[en.name], Fraction(-1))),
        (e[dm.name], f[dm.name], ("h", _row_sum(((half, rows[dm.index]),)))),
        (e[dm.name], f[epd.name], (f[en.name], Fraction(-1))),
        (f[emd.name], f[dm.name], (f[en.name], Fraction(1))),
    ]
    scales: Dict[int, Fraction] = {e[dm.name]: Fraction(1), f[en.name]: Fraction(1)}
    # fixed_by[g] = k when relations[k] solved g's scale; the gauges have none
    fixed_by: Dict[int, int] = {}

    def pair(k: int) -> str:
        x, y, _ = relations[k]
        return f"[{table.basis[x].name}, {table.basis[y].name}]"

    def failed(k: int, val: Value, used: Sequence[int] = ()) -> ScalingReport:
        """relations[k] fails with bracket value val, reading the scales of used."""
        detail = f"{pair(k)} = {table.render_value(val)} cannot be rescaled onto the reference list"
        sources = dict.fromkeys(fixed_by[g] for g in used if fixed_by.get(g, k) != k)
        if sources:
            detail += "; its scales were solved from " + ", ".join(map(pair, sources))
        return ScalingReport(False, {}, detail)

    changed = True
    while changed:
        changed = False
        for k, (x, y, rhs) in enumerate(relations):
            val = table.bracket(x, y)
            if rhs[0] == "h":
                # c_x * c_y * row(val) = rhs row; solves one unknown factor
                unknown = [g for g in (x, y) if g not in scales]
                if len(unknown) != 1:
                    continue
                coord, want = rhs[1][0]
                got = dict(table.cartan_row(val)).get(coord)
                if got is None:
                    return failed(k, val)
                known = scales[y] if unknown[0] == x else scales[x]
                scales[unknown[0]] = want / (got * known)
                fixed_by[unknown[0]] = k
                changed = True
                continue
            target, coeff = rhs
            if set(val) != {target}:
                return failed(k, val)
            slots = [g for g in (x, y, target) if g not in scales]
            if len(slots) != 1:
                continue
            q = val[target]
            if slots[0] == target:
                scales[target] = scales[x] * scales[y] * q / coeff
            elif slots[0] == x:
                scales[x] = coeff * scales[target] / (scales[y] * q)
            else:
                scales[y] = coeff * scales[target] / (scales[x] * q)
            fixed_by[slots[0]] = k
            changed = True
    missing = [gid for gid in list(e.values()) + list(f.values()) if gid not in scales]
    if missing:
        names = ", ".join(table.basis[g].name for g in missing)
        return ScalingReport(False, {}, f"scales underdetermined for {names}")
    for k, (x, y, rhs) in enumerate(relations):
        val = table.bracket(x, y)
        factor = scales[x] * scales[y]
        if rhs[0] == "h":
            if tuple((i, factor * c) for i, c in table.cartan_row(val)) != rhs[1]:
                return failed(k, val, (x, y))
        else:
            target, coeff = rhs
            if set(val) != {target} or factor * val[target] != coeff * scales[target]:
                return failed(k, val, (x, y, target))
    named = {table.basis[g].name: c for g, c in scales.items()}
    return ScalingReport(True, named, "")


def dump_table(table: BracketTable) -> str:
    """Deterministic text dump of all nonzero brackets, one per line."""
    lines = [f"# {table.alg.case.text}: dim {table.dim}, {table.n_pos} positive roots"]
    for (x, y), val in sorted(table.entries.items()):
        lines.append(f"[{table.basis[x].name}, {table.basis[y].name}] = {table.render_value(val)}")
    return "\n".join(lines) + "\n"
