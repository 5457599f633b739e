"""Exact PBW straightening in the universal enveloping algebra.

Elements are dicts mapping normal-form monomials to exact rational
coefficients, in the canonical form of superalgebra: an int when integral,
a Fraction otherwise.
A monomial is a tuple of (basis id, exponent) pairs, strictly ascending in
the engine's generator order; odd generators never carry an exponent above
one because their squares rewrite through the bracket.  Every pair is
made by one constructor, the bracket table's store: table.powers[g, e]
(superalgebra.PowerStore) is the one (g, e) object every monomial on the
table shares, up to a bounded exponent.  The largest element of a run holds
tens of thousands of monomials over some 70 distinct pairs, so shared pairs
about halve what a term costs; monomials still compare and hash by value,
so a freshly built tuple finds the same key.  The order always
places lowering generators first, then Cartan generators, then raising
generators.  The arrangement inside the lowering block is configurable:
witness bases and orbit propagation both need a chosen generator in the
rightmost slot, and right division is only defined against that slot.

One rule straightens every product, and the Verma module action too: left
multiplication by a generator power x^j (power_times).  An odd x takes
x^j, j >= 2, through x^2 = [x, x] / 2, so an odd f_gamma^(N + c) on 1 is
one power of f_2gamma and at most one f_gamma, not N passes.  An engine holds only its bracket table,
its tail of lowering generators and the order derived from them, and
caches nothing.

join is the one rule for when two normal-form monomials multiply to one,
and is_normal the one normal-form test.  The product in U(g), _times behind
multiply and import_element, joins a normal-form word to el whole when it
joins every monomial of el, as power_times joins x^j and lift f^(L-k);
every other word goes one power at a time.  right_divide reads a quotient
off the normal form: a normal-form monomial of U(n^-) that ends in f^p is
its quotient's join with f^p, so check_lowering certifies the quotient.

The one place where a power passes a whole element at once is lift, the
orbit step's f^L theta = sum_k C(L, k) (ad f)^k(theta) f^(L-k).  It is an
identity of U(g), not an approximation: left and right multiplication by an
even f commute, so f^L = (ad f + right f)^L expands binomially.  Each
(ad f)(X) = [f, X] is commutator(f, X): walking f through X, without the
term where f comes to rest at the end.  f^(L-k) is appended on the right
without straightening, as f is ranked last in U(n^-); and ad f is locally
nilpotent, so the sum ends after a few terms however large L is.

One walk (walk) moves a generator right through a monomial and hands each
generator w of the (ad_R x)^k chains it leaves, with the head it has passed
and the rest, to its caller's step: insert's own, and verma's module
action, whose raising image e X v+ = [e, X] v+ is commutator(e, X) with
that step.  Both put w between head and rest by insert (the module only a
lowering w), one rule for every term, which needs head * rest to be one
normal-form monomial; power_times puts each x into a monomial m as
insert((), x, m).  A w ranked at or above rest's first generator walks
into rest from the head; any other w moves left through the head, past an
even y^b by the chain of (ad y)^k(w) and past an odd y with a sign and one
bracket, and each generator of a bracket goes between the two parts of the
head by insert in turn.  Where w meets itself, an even w raises its power
and an odd one rewrites through [w, w] / 2.  Every chain comes from the
bracket table's ad_chain, which every engine of a case shares.  No step
recurses once per unit of an exponent.

Weights are lambda-free, so they are ints: a monomial's weight is a point
of the root data's integer lattice (each weight times one common
denominator), the sum of its generators' weight rows times their exponents
(BracketTable.weight_rows), exact for any exponent.  Weights are compared
as lattice points and become Fraction tuples only for output.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Collection, Dict, Optional, Set, Tuple

from .rootdata import Weight, format_weight
from .superalgebra import EMPTY, BracketTable, Coefficient, _exact, _merge, _scaled, _signed_sum

Monomial = Tuple[Tuple[int, int], ...]
UEAElement = Dict[Monomial, Coefficient]


class NotDivisible(ArithmeticError):
    """Right division requested with an exponent some monomial lacks."""


class WrongOrder(ValueError):
    """A generator order or a monomial does not fit the operation: a
    repeated generator, or the wrong one in the rightmost slot."""


class Inhomogeneous(ValueError):
    """A single weight was requested for an element that has none."""


def el_one() -> UEAElement:
    return {(): 1}


class PBWEngine:
    """Straightening under one generator order, built from the table and a
    tail of lowering generator ids.

    The lowering generators are sorted by root height and then by
    enumeration index, except that `tail` moves the listed generators to
    the end of the lowering block, in the given order.  A tail that lists
    every lowering generator prescribes the whole block.  Compared by
    identity.
    """

    table: BracketTable
    tail: Tuple[int, ...]
    sequence: Tuple[int, ...]
    rank: Dict[int, int]

    def __init__(self, table: BracketTable, tail: Tuple[int, ...] = ()) -> None:
        self.table = table
        P = table.n_pos
        self.tail = tail = tuple(tail)
        for g in tail:
            if not 0 <= g < P:
                raise WrongOrder(f"{g} is not a lowering generator id")
        if len(set(tail)) != len(tail):
            raise WrongOrder("tail entries must be distinct")
        by_height = sorted(range(P), key=lambda i: (table.alg.heights[i], i))
        seq = [i for i in by_height if i not in tail] + list(tail)
        seq += [table.h_id(j) for j in range(table.n_cartan)]
        seq += [table.e_id(i) for i in by_height]
        self.sequence = tuple(seq)
        self.rank = {bid: pos for pos, bid in enumerate(seq)}

    @property
    def rightmost_negative(self) -> int:
        return self.sequence[self.table.n_pos - 1]

    def gen(self, g: int, exp: int = 1) -> UEAElement:
        if exp < 0:
            raise ValueError("negative exponent")
        return self.power_times(g, exp, el_one())

    def multiply(self, a: UEAElement, b: UEAElement) -> UEAElement:
        """a * b in normal form; the monomials of a and b are read as
        generator powers from left to right and need not be in normal form.
        Each word of a multiplies b imported (_times), so a normal-form word
        that joins every term of b is joined whole."""
        return self._times(a, self.import_element(b))

    def import_element(self, x: UEAElement) -> UEAElement:
        """Re-straighten an element produced under another generator order:
        x * 1, so a monomial already in this order's normal form is kept as
        it is and every other one is straightened."""
        return self._times(x, el_one())

    def _times(self, a: UEAElement, el: UEAElement) -> UEAElement:
        """a * el in U(g), for el in normal form: the sum over the words of a,
        each read as generator powers from left to right, of word * el.

        A normal-form word is joined to el in one step when it joins each
        monomial of el (join), which needs no straightening; distinct
        monomials of el give distinct joins.  Every other word is applied to
        el one generator power at a time by power_times, from the right."""
        join = self.join
        out: UEAElement = {}
        for word, coef in a.items():
            if self.is_normal(word):
                product: UEAElement = {}
                for m, c in el.items():
                    key = join(word, m)
                    if key is None:
                        break
                    product[key] = c
                else:
                    _merge(out, product, coef)
                    continue
            product = el
            for g, e in reversed(word):
                product = self.power_times(g, e, product)
            _merge(out, product, coef)
        return out

    def join(self, left: Monomial, right: Monomial) -> Optional[Monomial]:
        """left * right as one normal-form monomial, for left and right in
        normal form, or None when it is not one.  It is one when either side
        is 1, when left's last generator ranks below right's first, and when
        the two meet in one even generator, whose powers add."""
        if not left or not right:
            return left + right
        g, a = left[-1]
        h, b = right[0]
        if g == h:
            return None if self.table.odd[g] else left[:-1] + (self.table.powers[g, a + b],) + right[1:]
        return left + right if self.rank[g] < self.rank[h] else None

    def is_normal(self, m: Monomial) -> bool:
        """Whether m is a normal-form monomial: its generators strictly
        ascending in the order, each exponent at least one, an odd one's
        exactly one."""
        rank = self.rank
        odd = self.table.odd
        last = -1
        for g, e in m:
            r = rank[g]
            if r <= last or e < 1 or (e > 1 and odd[g]):
                return False
            last = r
        return True

    def check_lowering(self, m: Monomial) -> None:
        """Raise WrongOrder unless m is a normal-form monomial of U(n^-)."""
        if not self.is_normal(m) or (m and self.rank[m[-1][0]] >= self.table.n_pos):
            raise WrongOrder(f"{self.render_monomial(m)} is not a normal-form monomial of U(n^-)")

    def _insert_term(self, g: int, w: int, head: Monomial, rest: Monomial, coef, out) -> None:
        """walk's step in U(g): add coef * head * w * rest to out."""
        self.insert(head, w, rest, coef, out)

    def walk(self, g: int, m: Monomial, base: Monomial, c, out, term) -> Tuple[int, Coefficient]:
        """Move a basis generator g right past each x^a = m[i] ranked below
        it, by g x^a = sum_k C(a, k) x^(a-k) (ad_R x)^k(g), k = 0..a, with
        the table's ad_chain.  Each generator w of a term with k >= 1 goes
        to term(g, w, head, rest, coef, out), with head = base m[:i]
        x^(a-k), rest = m[i+1:] and coef its coefficient times c; the sign
        of c flips when an odd g passes an odd x.  Returns where g stopped
        and c with its sign there.  Each caller supplies its own term:
        _insert_term in U(g), verma's _Action._term in the module."""
        table = self.table
        rank = self.rank
        odd = table.odd
        row = table.ad_row(g)
        powers = table.powers
        g_rank = rank[g]
        g_odd = odd[g]
        for i, (x, a) in enumerate(m):
            if rank[x] >= g_rank:
                return i, c
            sign = c
            if odd[x]:
                if a != 1:
                    raise WrongOrder("odd generators are exponent one in normal form")
                if g_odd:
                    c = -c
            if x in row:
                rest = m[i + 1 :]
                prefix = base + m[:i]
                if a == 1:
                    # (ad_R x)(g) = [g, x], the first entry of every chain
                    for w, cw in row[x][0].items():
                        term(g, w, prefix, rest, sign * cw, out)
                else:
                    for k, y in enumerate(table.ad_chain(g, x, a)[:a], 1):
                        if not y:
                            break
                        head = prefix + (powers[x, a - k],) if a > k else prefix
                        ck = sign * comb(a, k)
                        for w, cw in y.items():
                            term(g, w, head, rest, ck * cw, out)
        return len(m), c

    def commutator(self, g: int, el: UEAElement, term) -> UEAElement:
        """[g, el] in normal form, for a generator g ranked above every one
        of el (at or above them when g is even), unchecked: lift and verma's
        _integral check it.  walk hands each chain term to term and drops
        the one where g rests at the end, (-1)^(|g||m|) m g (0 on v+)."""
        out: UEAElement = {}
        for m, c in el.items():
            self.walk(g, m, (), c, out, term)
        return {k: _exact(c) for k, c in out.items() if c}

    def insert(self, head: Monomial, w: int, rest: Monomial, coef, out) -> None:
        """Add coef * head * w * rest to out, for a basis generator w and
        monomials head and rest whose product head * rest is one normal-form
        monomial (WrongOrder otherwise), without dropping zeros or
        normalising the coefficients.

        A w ranked at or above rest's first generator walks into rest from
        head.  Then w moves left through what lies before it, from the
        right: past an even y^b by y^b w = sum_k C(b, k) (ad y)^k(w)
        y^(b-k), the table's ad_chain(w, y, b) with sign (-1)^k, and past
        an odd y by y w = s w y - s [w, y], with s = -1 when w is odd too.
        Each generator z of a bracket term is inserted in turn, between the
        part left of y and y^(b-k) times the part w has passed and rest.  w
        takes the first slot it reaches above a generator ranked below it;
        where it meets itself, an even w raises the power and an odd one
        rewrites w w = [w, w] / 2."""
        table = self.table
        rank = self.rank
        odd = table.odd
        w_rank = rank[w]
        if rest:
            hi = rank[rest[0][0]]
            if head and rank[head[-1][0]] >= hi:
                raise WrongOrder(
                    f"{self.render_monomial(head)} times {self.render_monomial(rest)}"
                    " is not a normal-form monomial"
                )
            if w_rank >= hi:
                i, coef = self.walk(w, rest, head, coef, out, self._insert_term)
                if i < len(rest) and rest[i][0] == w:
                    i += 1  # w meets itself: the left pass below raises or squares it
                head, rest = head + rest[:i], rest[i:]
        j = len(head)
        get = table.entries.get
        while j:
            y, b = head[j - 1]
            if rank[y] < w_rank:
                break
            if odd[y] and b != 1:
                raise WrongOrder("odd generators are exponent one in normal form")
            j -= 1
            if y == w:
                if not odd[w]:
                    key = head[:j] + (table.powers[w, b + 1],) + head[j + 1 :] + rest
                    out[key] = out.get(key, 0) + coef
                    return
                base, after = head[:j], head[j + 1 :] + rest
                for z, c in get((w, w), EMPTY).items():
                    self.insert(base, z, after, coef * _exact(Fraction(c, 2)), out)
                return
            flip = odd[w] and odd[y]
            bracket = get((w, y), EMPTY)
            if bracket:
                base, after = head[:j], head[j + 1 :] + rest
                sign = 1 if flip else -1  # -s (-1)^k at k = 1
                # a b = 1 chain is the bracket itself, and builds no ad_row for w
                chain = table.ad_chain(w, y, b)[:b] if b > 1 else (bracket,)
                for k, yk in enumerate(chain, 1):
                    if not yk:
                        break
                    ck = sign * comb(b, k)
                    tail = (table.powers[y, b - k],) + after if b > k else after
                    for z, c in yk.items():
                        self.insert(base, z, tail, coef * (ck * c), out)
                    sign = -sign
            if flip:
                coef = -coef
        key = head[:j] + (table.powers[w, 1],) + head[j:] + rest
        out[key] = out.get(key, 0) + coef

    def power_times(self, x: int, j: int, el: UEAElement) -> UEAElement:
        """x^j * el in normal form for a basis generator x and el in normal form.

        An odd x with j >= 2 squares through the bracket: x^2 = [x, x] / 2
        is 0 when [x, x] is, and otherwise (c/2) z for the one term c z of
        [x, x] (of weight twice x's root), an even z that commutes with x
        (as [x, [x, x]] = 0), so x^j el = (c/2)^k x^r (z^k el) with
        k = j div 2 and r = j mod 2: one power of the even z, at most one x
        and one scalar.

        Otherwise x is even or j <= 1, and a monomial that x^j joins
        (join) takes it whole: 1 or one led by a generator ranked above x,
        which x^j is prepended to, and one led by an even x itself, whose
        power rises by j.  Every other monomial takes one x per pass:
        insert((), x, mono) adds x * mono straight into the pass's one dict,
        which is normalised once, zeros dropped, and is the next pass's el.
        """
        if self.table.odd[x] and j > 1:
            square = self.table.bracket(x, x)
            if not square:
                return {}
            ((z, c),) = square.items()
            k, r = divmod(j, 2)
            half = Fraction(c) / 2
            return _scaled(self.power_times(x, r, self.power_times(z, k, el)), half ** k)
        join = self.join
        powers = self.table.powers
        out: UEAElement = {}
        while j and el:
            # distinct monomials of el give distinct keys in one pass
            power = (powers[x, j],)
            fast: UEAElement = {}
            slow: UEAElement = {}
            for mono, c in el.items():
                key = join(power, mono)
                if key is None:
                    self.insert((), x, mono, c, slow)
                else:
                    fast[key] = c
            if out:
                _merge(out, fast)
            else:
                out = fast
            el = {m: _exact(c) for m, c in slow.items() if c}
            j -= 1
        _merge(out, el)
        return out

    def _check_rightmost_even(self, f: int) -> None:
        """Raise WrongOrder unless f is the even rightmost lowering
        generator, the one lift and right_divide act by."""
        if f != self.rightmost_negative or self.table.odd[f]:
            raise WrongOrder(f"{self.table.basis[f].name} is not the even rightmost lowering generator")

    def lift(self, f: int, L: int, theta: UEAElement) -> UEAElement:
        """f^L * theta in normal form, for f the even rightmost lowering
        generator and theta in normal form in U(n^-), by
        f^L X = sum_k C(L, k) (ad f)^k(X) f^(L-k), with (ad f)(X) = [f, X]
        from commutator.  As f is ranked last in U(n^-), each monomial of X
        joins f^j (join), by concatenation or an exponent bump; ad f is
        locally nilpotent, so the sum stops at the first zero
        (ad f)^k(theta) or at k = L."""
        self._check_rightmost_even(f)
        if L < 0:
            raise ValueError("negative exponent")
        for m in theta:
            self.check_lowering(m)
        join, powers = self.join, self.table.powers
        out: UEAElement = {}
        term = theta  # (ad f)^k(theta)
        for k in range(L + 1):
            ck = comb(L, k)
            power = (powers[f, L - k],) if k < L else ()
            for m, c in term.items():
                key = join(m, power)
                out[key] = out.get(key, 0) + ck * c
            if k == L:
                break
            term = self.commutator(f, term, self._insert_term)
            if not term:
                break
        return {m: _exact(c) for m, c in out.items() if c}

    def right_divide(self, x: UEAElement, bid: int, p: int) -> UEAElement:
        """Divide by bid^p on the right, for bid the even rightmost lowering
        generator; every monomial must be a normal-form monomial of U(n^-)
        (check_lowering) that ends in bid^p.  Such a monomial is its
        quotient's join with bid^p, as bid ranks last in U(n^-), so x is the
        quotient times bid^p term by term."""
        self._check_rightmost_even(bid)
        if p < 0:
            raise ValueError("negative power")
        if p == 0:
            return dict(x)
        out: UEAElement = {}
        for mono, coef in x.items():
            if not mono or mono[-1][0] != bid or mono[-1][1] < p:
                raise NotDivisible(
                    f"monomial {self.render_monomial(mono)} lacks "
                    f"{self.table.basis[bid].name}^{p}"
                )
            self.check_lowering(mono)
            e = mono[-1][1] - p
            out[mono[:-1] + (self.table.powers[bid, e],) if e else mono[:-1]] = coef
        return out

    def element_lattice(self, x: UEAElement) -> Tuple[int, ...]:
        """weight_den times the weight every monomial of x shares, on the
        lattice; Inhomogeneous if there is none."""
        if not x:
            raise Inhomogeneous("the zero element has no weight")
        points = self._lattice_points(x)
        if len(points) > 1:
            mixed = ", ".join(f"({format_weight(self.table.alg.from_lattice(w))})" for w in sorted(points))
            raise Inhomogeneous(f"mixed weights {mixed}")
        return points.pop()

    def element_weight(self, x: UEAElement) -> Weight:
        """The weight every monomial of x shares; Inhomogeneous if there is none."""
        return self.table.alg.from_lattice(self.element_lattice(x))

    def _lattice_points(self, monomials: Collection[Monomial]) -> Set[Tuple[int, ...]]:
        """The distinct lattice weights of the monomials, each the sum of its
        generators' weight rows times their exponents."""
        rows = self.table.weight_rows
        rank = self.table.alg.rank
        points = set()
        for m in monomials:
            point = [0] * rank
            for g, e in m:
                for i, c in rows[g]:
                    point[i] += e * c
            points.add(tuple(point))
        return points

    def render_monomial(self, m: Monomial) -> str:
        if not m:
            return "1"
        parts = []
        for bid, exp in m:
            name = self.table.basis[bid].name
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return " ".join(parts)

    def render(self, x: UEAElement, suffix: str = "") -> str:
        terms = []
        for m in sorted(x, key=lambda m: tuple((self.rank[g], e) for g, e in m)):
            body = self.render_monomial(m)
            if suffix:
                body = f"{body} {suffix}" if m else suffix
            terms.append((x[m], body))
        return _signed_sum(terms, " ")
