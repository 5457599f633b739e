"""Straightening engine: orders, products, division, commutation identities."""

import collections
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superverma.pbw import (
    Inhomogeneous,
    NotDivisible,
    PBWEngine,
    WrongOrder,
    el_one,
)
from superverma.cli import SMALLEST_CASES
from superverma.rootdata import CaseId, wsum, wzero
from superverma.singular import build_context
from superverma.superalgebra import _merge
from helpers import basis_weight, el_add, el_scale, el_sub, el_zero, words_times

CASES = ["B-I:m=1,n=1", "B-II:m=1,n=1", "D-I:m=1,n=2", "D-II:m=1,n=2", "F31", "G3"]


def table_for(text: str):
    return build_context(CaseId.parse(text))


def is_canonical(c) -> bool:
    """An int when integral, a Fraction only otherwise."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def first_even_root(alg):
    return next(r for r in alg.pos_roots if not r.odd)


def random_lowering(engine, rng, nfactors: int):
    out = el_one()
    for _ in range(nfactors):
        out = engine.multiply(out, engine.gen(rng.randrange(engine.table.n_pos)))
    return out


def test_default_order_layout():
    for text in CASES:
        table = table_for(text)
        engine = PBWEngine(table)
        P = table.n_pos
        assert engine.tail == () and engine.rightmost_negative == engine.sequence[P - 1]
        negs = engine.sequence[:P]
        assert sorted(negs) == list(range(P))
        hts = [table.alg.heights[i] for i in negs]
        assert hts == sorted(hts)
        assert engine.sequence[P : P + table.n_cartan] == tuple(
            table.h_id(j) for j in range(table.n_cartan)
        )


def test_tail_moves_generator_to_rightmost_slot():
    table = table_for("B-I:m=1,n=1")
    bid = table.f_gen("e1")
    engine = PBWEngine(table, (bid,))
    assert engine.rightmost_negative == bid
    assert PBWEngine(table).rightmost_negative == table.f_gen("2d1")


def test_order_validation():
    table = table_for("B-I:m=1,n=1")
    with pytest.raises(WrongOrder):
        PBWEngine(table, [table.f_gen(r) for r in ("e1", "e1", "d1", "d1+e1", "2d1")])
    with pytest.raises(WrongOrder):
        PBWEngine(table, [table.f_gen(r) for r in ("e1", "e1")])


def test_raising_past_lowering_produces_cartan_term():
    for text in CASES:
        table = table_for(text)
        engine = PBWEngine(table)
        for j, pidx in enumerate(table.alg.simple_pos_index):
            e, f = table.e_id(pidx), table.f_id(pidx)
            got = engine.multiply(engine.gen(e), engine.gen(f))
            sign = Fraction(-1) if table.basis[e].odd else Fraction(1)
            assert got == {
                ((f, 1), (e, 1)): sign,
                ((table.h_id(j), 1),): Fraction(1),
            }


def test_associativity_on_random_triples():
    for text in CASES:
        table = table_for(text)
        engine = PBWEngine(table)
        dim = table.dim
        rng = random.Random(f"assoc:{text}")
        for trial in range(30):
            ids = [rng.randrange(dim) for _ in range(3)]
            x, y, z = (engine.gen(i) for i in ids)
            left = engine.multiply(engine.multiply(x, y), z)
            right = engine.multiply(x, engine.multiply(y, z))
            assert left == right, (text, trial, ids)


def right_product(engine, a, b):
    """Reference a * b for a in normal form: right multiplication by one
    generator at a time, the mirror of the engine's rule (small exponents
    only, since it recurses once per unit of exponent)."""
    table, rank = engine.table, engine.rank
    cache = {}

    def mono_times(m, g):
        if (m, g) in cache:
            return cache[(m, g)]
        res = {}
        if not m or rank[m[-1][0]] < rank[g]:
            res = {m + ((g, 1),): 1}
        elif m[-1][0] == g and not table.basis[g].odd:
            res = {m[:-1] + ((g, m[-1][1] + 1),): 1}
        elif m[-1][0] == g:  # odd square: g g = [g, g] / 2
            for z, c in table.bracket(g, g).items():
                _merge(res, mono_times(m[:-1], z), Fraction(c, 2))
        else:  # x g = (-1)^(|x||g|) g x + [x, g]
            x, e = m[-1]
            base = m[:-1] + ((x, e - 1),) if e > 1 else m[:-1]
            sign = -1 if table.basis[x].odd and table.basis[g].odd else 1
            _merge(res, el_times(mono_times(base, g), x), sign)
            for z, c in table.bracket(x, g).items():
                _merge(res, mono_times(base, z), c)
        cache[(m, g)] = res
        return res

    def el_times(el, g):
        out = {}
        for m, c in el.items():
            _merge(out, mono_times(m, g), c)
        return out

    out = {}
    for word, coef in b.items():
        cur = a
        for g, e in word:
            for _ in range(e):
                cur = el_times(cur, g)
        _merge(out, cur, coef)
    return out


@pytest.mark.parametrize("text", CASES)
def test_left_rule_matches_right_multiplication(text):
    """multiply (left multiplication by generator powers) against the
    independent right-multiplication reference, on random words of all of
    U(g) under the default order and a tailed one."""
    table = table_for(text)
    rng = random.Random(f"right:{text}")

    def word():
        return tuple((g, 1 if table.basis[g].odd else rng.randint(1, 3))
                     for g in (rng.randrange(table.dim) for _ in range(rng.randint(1, 3))))

    for engine in (PBWEngine(table), PBWEngine(table, (table.f_gen(first_even_root(table.alg)),))):
        for _ in range(25):
            a = engine.import_element({word(): rng.randint(1, 3)})
            b = {word(): rng.randint(1, 3), word(): rng.choice((-1, Fraction(1, 2)))}
            assert engine.multiply(a, b) == right_product(engine, a, b)
            assert engine.import_element(b) == right_product(engine, el_one(), b)
        # every generator times a longer normal-form monomial with odd
        # generators in the lowering and raising blocks and a Cartan one
        seq, basis = engine.sequence, table.basis
        odd = [g for g in seq if basis[g].odd]
        picks = set(odd[:3] + odd[-2:]) | {seq[engine.table.n_pos], seq[0]}
        long = tuple((g, 1 if basis[g].odd else 2) for g in sorted(picks, key=engine.rank.get))
        for g in range(table.dim):
            a = {((g, 1),): 1}
            assert engine.multiply(a, {long: 1}) == right_product(engine, a, {long: 1})
        # a high even power past one generator ranked below it that it does
        # not commute with, above the random words' exponents
        rank = engine.rank
        for x in range(table.dim):
            if basis[x].odd:
                continue
            for y in range(table.dim):
                if rank[y] < rank[x] and table.bracket(x, y):
                    for j in (4, 7):
                        a, b = engine.gen(x, j), engine.gen(y)
                        assert engine.multiply(a, b) == right_product(engine, a, b), (x, y, j)


def test_products_stay_weight_homogeneous():
    table = table_for("D-II:m=1,n=2")
    engine = PBWEngine(table)
    rng = random.Random("weights")
    for _ in range(25):
        a = random_lowering(engine, rng, 2)
        b = random_lowering(engine, rng, 2)
        prod = engine.multiply(a, b)
        if prod:
            assert engine.element_weight(prod) == wsum(
                engine.element_weight(a), engine.element_weight(b)
            )


def test_odd_exponents_never_exceed_one():
    table = table_for("F31")
    engine = PBWEngine(table)
    rng = random.Random("odd-caps")
    for _ in range(10):
        el = random_lowering(engine, rng, 4)
        for mono in el:
            for bid, exp in mono:
                if table.basis[bid].odd:
                    assert exp == 1


def test_odd_square_rewrites_through_bracket():
    table = table_for("B-I:m=1,n=1")
    engine = PBWEngine(table)
    fo = table.f_gen("d1")
    sq = engine.multiply(engine.gen(fo), engine.gen(fo))
    half_bracket = {
        ((bid, 1),): c / 2 for bid, c in table.bracket(fo, fo).items()
    }
    assert sq == half_bracket
    assert sq == engine.gen(fo, 2)
    assert sq and all(
        table.basis[bid].name == "f_{2d1}" for mono in sq for bid, _ in mono
    )


def unit_by_unit(engine, x, j, el):
    """x^j el taken one x per pass: the reference for whole odd powers."""
    for _ in range(j):
        el = engine.power_times(x, 1, el)
    return el


def typed(el):
    return {m: (type(c), c) for m, c in el.items()}


@pytest.mark.parametrize("text", ["B-I:m=1,n=1", "B-I:m=2,n=1", "D-II:m=1,n=2", "G3"])
def test_odd_powers_match_one_unit_per_pass(text):
    """x^j for an odd generator x, taken whole through x^2 = [x, x] / 2,
    equals the product one x per pass term for term, coefficient types
    included, on 1 and on random elements, under the default order and an
    order with gamma last."""
    table = table_for(text)
    rng = random.Random(f"odd-powers:{text}")
    engines = (PBWEngine(table), PBWEngine(table, (table.f_gen(table.alg.gamma),)))
    odd = [g for g in range(table.dim) if table.odd[g]]
    # B-I and G3 have odd generators of either kind of square, D-II only
    # ones squaring to 0
    assert any(not table.bracket(g, g) for g in odd)
    assert any(table.bracket(g, g) for g in odd) == (table.alg.case.family != "D-II")
    for engine in engines:
        els = [el_one()] + [
            el_scale(random_lowering(engine, rng, 2), Fraction(rng.choice((1, 3)), rng.choice((1, 2))))
            for _ in range(2)
        ]
        for x in odd:
            for el in els:
                for j in (2, 3, 4, 7):
                    got = engine.power_times(x, j, el)
                    assert typed(got) == typed(unit_by_unit(engine, x, j, el)), (table.basis[x].name, j)


def test_odd_power_is_taken_whole():
    """f_d1^j in B-I, where [f_d1, f_d1] = f_2d1, is (1/2)^k f_d1 f_2d1^k
    with k = j div 2, from one insert however large j is."""
    table = table_for("B-I:m=1,n=1")
    x, z = table.f_gen("d1"), table.f_gen("2d1")
    assert table.bracket(x, x) == {z: 1}
    engine = PBWEngine(table)
    calls = []

    def counted(*args):
        calls.append(args[1])
        return PBWEngine.insert(engine, *args)

    engine.insert = counted
    j = 10**6 + 1
    mono = tuple(sorted(((x, 1), (z, j // 2)), key=lambda ge: engine.rank[ge[0]]))
    assert engine.gen(x, j) == {mono: Fraction(1, 2 ** (j // 2))}
    assert len(calls) <= 1
    assert engine.gen(x, j + 1) == {((z, j // 2 + 1),): Fraction(1, 2 ** (j // 2 + 1))}
    iso = table.f_gen("d1-e1")
    assert not table.bracket(iso, iso)
    assert engine.gen(iso, j) == {}


def test_import_is_idempotent_and_order_independent():
    for text in ("B-I:m=1,n=2", "G3"):
        table = table_for(text)
        default = PBWEngine(table)
        other = PBWEngine(table, (table.f_gen(first_even_root(table.alg)),))
        rng = random.Random(f"import:{text}")
        for _ in range(10):
            x = random_lowering(default, rng, 3)
            assert default.import_element(x) == x
            moved = other.import_element(x)
            assert default.import_element(moved) == x
            if x:
                assert other.element_weight(moved) == default.element_weight(x)


JOIN_CASES = ["B-I:m=2,n=1", "D-II:m=1,n=2", "F31", "G3"]
JOIN_WAYS = {"joined", "raised", "odd lead", "lead not above", "no normal form"}
COEFFICIENTS = (1, -1, 2, Fraction(1, 2), Fraction(-3, 2))


def join_way(engine, word, el):
    """How the product should take word * el, told from the monomials: in
    one step when the word is a normal-form monomial that joins every
    monomial of el, "raised" when it meets one of them in an even
    generator and "joined" otherwise; or by power_times because the word is
    no normal-form monomial, meets a monomial of el in an odd generator
    ("odd lead"), or ends above a monomial's lead ("lead not above")."""
    rank, odd = engine.rank, engine.table.odd
    ranks = [rank[g] for g, _ in word]
    if any(a >= b for a, b in zip(ranks, ranks[1:])) or any(e < 1 or (e > 1 and odd[g]) for g, e in word):
        return "no normal form"
    seams = {"joined"}
    for m in el:
        if word and m:
            last, lead = word[-1][0], m[0][0]
            if last == lead:
                seams.add("odd lead" if odd[lead] else "raised")
            elif rank[last] > rank[lead]:
                seams.add("lead not above")
    return next(way for way in ("odd lead", "lead not above", "raised", "joined") if way in seams)


def join_inputs(engine, rng):
    """A random word over all of U(g) and an el in normal form, of one
    monomial or several, drawn so that every join way occurs."""
    dim = engine.table.dim
    odd = engine.table.odd
    everything = range(dim)
    if rng.random() < 0.5:
        lead = rng.randrange(dim)
        above = [g for g in everything if engine.rank[g] > engine.rank[lead]] or [lead]
        tail = tuple(ge for ge in short_monomial(engine, rng, above, 3) if ge[0] != lead)
        el = {((lead, 1 if odd[lead] else rng.randint(1, 2)),) + tail: rng.choice(COEFFICIENTS)}
    else:
        el = {short_monomial(engine, rng, everything, 4): rng.choice(COEFFICIENTS) for _ in range(rng.randint(2, 4))}
    low = min((engine.rank[m[0][0]] for m in el if m), default=len(engine.sequence))
    below = [g for g in everything if engine.rank[g] < low]
    shape = rng.randrange(5)
    if shape == 0:  # ordered below every lead
        word = short_monomial(engine, rng, below, 4) if below else ()
    elif shape == 1:  # ordered, ending in the lead of the first monomial
        first = next(iter(el))
        word = short_monomial(engine, rng, below, 3) if below else ()
        if first:
            g = first[0][0]
            word += ((g, 1 if odd[g] else rng.randint(1, 2)),)
    elif shape == 2:  # ordered, anywhere
        word = short_monomial(engine, rng, everything, 4)
    elif shape == 3:  # ordered below every lead but for one generator written twice
        word = short_monomial(engine, rng, below or everything, 3)
        i = rng.randrange(len(word))
        g, e = word[i]
        word = word[:i] + ((g, 1), (g, e)) + word[i + 1 :]
    else:  # unordered, odd squares included
        word = tuple((g, rng.randint(1, 2)) for g in (rng.randrange(dim) for _ in range(rng.randint(1, 4))))
    return word, el


def repeated_generator(engine, word):
    """The generator that word writes twice in a row when it is otherwise a
    normal-form monomial, else None."""
    for i in range(len(word) - 1):
        if word[i][0] == word[i + 1][0]:
            rest = word[:i] + ((word[i][0], 1),) + word[i + 2 :]
            return word[i][0] if engine.is_normal(rest) else None
    return None


@pytest.mark.parametrize("text", JOIN_CASES)
def test_multiply_matches_one_power_at_a_time(text):
    """word * el by multiply, through its one product loop _times, against
    the test helpers' reference loop words_times with power_times, on
    random words over all of U(g) and el of one monomial or several, in the
    default and a tailed order: a word joined or raised in one step makes
    no power_times call (el is in normal form, so importing it makes none
    either), and every other way is drawn too, among them a word that is
    ordered but for an even and for an odd generator written twice, which
    is no normal form.  Sums of two words go through multiply as well."""
    table = table_for(text)
    rng = random.Random(f"join:{text}")
    ways = collections.Counter()
    repeated = set()
    for engine in (PBWEngine(table), tailed_engine(table)[0]):
        reference = PBWEngine(table, engine.tail)
        calls = []

        def counted(x, j, el, engine=engine):
            calls.append(x)
            return PBWEngine.power_times(engine, x, j, el)

        engine.power_times = counted
        try:
            for _ in range(150):
                word, el = join_inputs(engine, rng)
                want = words_times({word: 1}, el, reference.power_times)
                del calls[:]
                got = engine.multiply({word: 1}, el)
                assert got == want, (word, el)
                assert all(map(is_canonical, got.values())), got
                way = join_way(engine, word, el)
                assert (way in ("joined", "raised")) == (not calls), (way, word, el)
                ways[way] += 1
                g = repeated_generator(engine, word)
                if g is not None:
                    repeated.add(table.odd[g])
                other, _ = join_inputs(engine, rng)
                a = {word: rng.choice(COEFFICIENTS), other: rng.choice(COEFFICIENTS)}
                assert engine.multiply(a, el) == words_times(a, el, reference.power_times)
        finally:
            del engine.power_times
    assert set(ways) == JOIN_WAYS, ways
    assert repeated == {False, True}, repeated


def seam(engine, left, right):
    """How two normal-form monomials meet: "empty" when either is 1, else
    by left's last and right's first generator: "even seam" or "odd seam"
    when they are one generator, "below" or "descending" by rank."""
    if not left or not right:
        return "empty"
    g, h = left[-1][0], right[0][0]
    if g == h:
        return "odd seam" if engine.table.odd[g] else "even seam"
    return "below" if engine.rank[g] < engine.rank[h] else "descending"


def join_pair(engine, rng):
    """Two random normal-form monomials, drawn so that every seam occurs."""
    seq, odd = engine.sequence, engine.table.odd
    shape = rng.randrange(4)
    if shape == 0:
        m = short_monomial(engine, rng, seq, 4)
        return ((), m) if rng.random() < 0.5 else (m, ())
    k = rng.randrange(len(seq))
    g = seq[k]
    below = short_monomial(engine, rng, seq[:k], 3) if k else ()
    above = short_monomial(engine, rng, seq[k + 1 :], 3) if k + 1 < len(seq) else ()

    def power():
        return ((g, 1 if odd[g] else rng.randint(1, 2)),)

    if shape == 1:
        return below + power(), power() + above
    if shape == 2:
        return below + power(), above
    return above, below + power()


@pytest.mark.parametrize("text", JOIN_CASES)
def test_join_matches_right_multiplication(text):
    """join against the right-multiplication reference on random pairs of
    normal-form monomials, in the default and a tailed order: where it
    answers, left * right is that one monomial with coefficient 1, and it
    answers None exactly at an odd seam or a descending one."""
    table = table_for(text)
    rng = random.Random(f"join monomials:{text}")
    seams = collections.Counter()
    for engine in (PBWEngine(table), tailed_engine(table)[0]):
        for _ in range(80):
            left, right = join_pair(engine, rng)
            way = seam(engine, left, right)
            seams[way] += 1
            joined = engine.join(left, right)
            assert (joined is None) == (way in ("odd seam", "descending")), (way, left, right)
            if joined is not None:
                assert right_product(engine, {left: 1}, {right: 1}) == {joined: 1}, (left, right)
    assert set(seams) == {"empty", "below", "even seam", "odd seam", "descending"}, seams


@pytest.mark.parametrize("text", JOIN_CASES)
def test_products_and_division_match_one_power_at_a_time(text):
    """multiply, import_element and right_divide give what the reference
    loop gives, words_times with power_times for every word, and its
    round trip: on products over all of U(g), elements straightened under
    the other order, and lowering elements times the divisor."""
    table = table_for(text)
    rng = random.Random(f"join products:{text}")
    default = PBWEngine(table)
    engine, f = tailed_engine(table)
    for one, other in ((default, engine), (engine, default)):
        reference = PBWEngine(table, one.tail)

        def ref_import(x):
            return words_times(x, el_one(), reference.power_times)

        for _ in range(40):
            (word, a), (other_word, b) = join_inputs(one, rng), join_inputs(one, rng)
            a[word], b[other_word] = 3, -1
            assert one.multiply(a, b) == words_times(a, ref_import(b), reference.power_times)
            assert one.import_element(a) == ref_import(a)
            moved = other.multiply(a, b)
            assert one.import_element(moved) == ref_import(moved)
    lowering = engine.sequence[: table.n_pos]
    for _ in range(20):
        theta = {short_monomial(engine, rng, lowering, 4): rng.choice(COEFFICIENTS) for _ in range(rng.randint(1, 4))}
        p = rng.randint(1, 3)
        x = engine.multiply(theta, engine.gen(f, p))
        appended = {m[:-1] + ((f, m[-1][1] + p),) if m and m[-1][0] == f else m + ((f, p),): c for m, c in theta.items()}
        assert x == appended
        assert engine.right_divide(x, f, p) == theta


@settings(max_examples=20, deadline=None)
@given(p=st.integers(min_value=1, max_value=3), pick=st.integers(min_value=0, max_value=10**9))
def test_right_division_round_trip(p, pick):
    table = table_for("D-I:m=1,n=2")
    kappa = first_even_root(table.alg)
    bid = table.f_gen(kappa)
    engine = PBWEngine(table, (bid,))
    rng = random.Random(pick)
    theta = random_lowering(engine, rng, 2)
    x = engine.multiply(theta, engine.gen(bid, p))
    assert engine.right_divide(x, bid, p) == theta


def test_right_division_raises():
    table = table_for("B-II:m=1,n=1")
    engine = PBWEngine(table)
    odd_last = engine.rightmost_negative
    assert table.basis[odd_last].odd
    with pytest.raises(WrongOrder):
        engine.right_divide(engine.gen(odd_last), odd_last, 1)
    with pytest.raises(WrongOrder):
        engine.right_divide(engine.gen(table.f_gen("d1")), table.f_gen("d1"), 1)
    even = table.f_gen("2d1")
    tailed = PBWEngine(table, (even,))
    with pytest.raises(NotDivisible):
        tailed.right_divide(tailed.gen(even, 1), even, 2)
    with pytest.raises(NotDivisible):
        tailed.right_divide(tailed.gen(table.f_gen("d1")), even, 1)


def test_negative_exponents_are_refused_and_division_by_one_copies():
    """gen and right_divide refuse a negative exponent, and dividing by
    f^0 returns a copy of the dividend, not the dividend itself."""
    table = table_for("D-I:m=1,n=2")
    engine, f = tailed_engine(table)
    with pytest.raises(ValueError, match="^negative exponent$"):
        engine.gen(f, -1)
    x = engine.multiply(random_lowering(engine, random.Random(5), 2), engine.gen(f, 2))
    with pytest.raises(ValueError, match="^negative power$"):
        engine.right_divide(x, f, -1)
    got = engine.right_divide(x, f, 0)
    assert got == x and got is not x


def test_right_division_refuses_an_out_of_order_monomial():
    """A dividend monomial that ends in f^p but is no normal-form monomial of
    U(n^-) is refused by name, whatever stands before f^p: two lowering
    generators out of order, an even or an odd one written twice, an odd
    one squared, a Cartan generator or a raising one."""
    table = table_for("B-I:m=2,n=1")
    bid = table.f_gen(first_even_root(table.alg))
    engine = PBWEngine(table, (bid,))
    even, odd = table.f_gen("d1-d2"), table.f_gen("d2-e1")
    lo, hi = sorted((even, odd), key=engine.rank.__getitem__)
    assert bid not in (even, odd) and table.bracket(hi, lo) and table.odd[odd]
    for mono in (
        ((hi, 1), (lo, 1), (bid, 2)),
        ((even, 1), (even, 1), (bid, 2)),
        ((odd, 1), (odd, 1), (bid, 2)),
        ((odd, 2), (bid, 2)),
        ((table.h_id(0), 1), (bid, 2)),
        ((table.e_gen("d1-d2"), 1), (bid, 2)),
    ):
        name = re.escape(engine.render_monomial(mono))
        with pytest.raises(WrongOrder, match=rf"^{name} is not a normal-form monomial of U\(n\^-\)$"):
            engine.right_divide({mono: 3}, bid, 2)


def test_even_power_commutation_expands_binomially():
    """f^l u = sum over i of C(l, i) (ad_f^i u) f^(l-i) for even f."""
    table = table_for("B-I:m=2,n=1")
    kappa = table.f_gen("d1-d2")
    engine = PBWEngine(table, (kappa,))
    theta = engine.multiply(
        engine.gen(table.f_gen("d2-e1")), engine.gen(table.f_gen("e1"))
    )
    fk = engine.gen(kappa)

    def ad(u):
        return el_sub(engine.multiply(fk, u), engine.multiply(u, fk))

    for l in range(7):
        lhs = engine.multiply(engine.gen(kappa, l), theta)
        rhs = el_zero()
        term = theta
        for i in range(l + 1):
            rhs = el_add(
                rhs, el_scale(engine.multiply(term, engine.gen(kappa, l - i)), math.comb(l, i))
            )
            term = ad(term)
        assert lhs == rhs, l


def tailed_engine(table):
    """An engine with the first even lowering generator in the rightmost slot."""
    f = table.f_gen(first_even_root(table.alg))
    return PBWEngine(table, (f,)), f


@pytest.mark.parametrize("text", CASES)
def test_lift_matches_power_times(text):
    """The adjoint expansion of f^L theta equals f^L theta walked one copy
    of f at a time, with canonical coefficients, on random elements of
    U(n^-) with rational coefficients."""
    table = table_for(text)
    engine, f = tailed_engine(table)
    rng = random.Random(f"lift:{text}")
    for _ in range(8):
        theta = {}
        for _ in range(3):
            part = random_lowering(engine, rng, rng.randint(1, 4))
            theta = el_add(theta, el_scale(part, Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))))
        for L in (0, 1, 2, 5):
            got = engine.lift(f, L, theta)
            assert got == engine.power_times(f, L, theta), (L, theta)
            assert all(map(is_canonical, got.values())), got


def parity(table, m) -> int:
    """The parity of a monomial: the number of its odd generators, mod 2."""
    return sum(e for g, e in m if table.basis[g].odd) % 2


@pytest.mark.parametrize("text", CASES)
def test_commutator_matches_its_definition(text):
    """commutator(g, X) = g X - sum_m (-1)^(|g||m|) c_m m g for X in U(n^-)
    with rational coefficients, g any raising generator or the even
    rightmost lowering generator of a tailed order, in the default and the
    tailed order, with canonical coefficients."""
    table = table_for(text)
    tailed, f = tailed_engine(table)
    raising = [table.e_id(i) for i in range(table.n_pos)]
    rng = random.Random(f"commutator:{text}")
    odd_draws = 0
    for engine, gens in ((PBWEngine(table), raising), (tailed, raising + [f])):
        for g in gens:
            for _ in range(2):
                x = {}
                for _ in range(3):
                    part = random_lowering(engine, rng, rng.randint(1, 3))
                    x = el_add(x, el_scale(part, Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))))
                want = engine.multiply(engine.gen(g), x)
                for m, c in x.items():
                    sign = -1 if table.basis[g].odd and parity(table, m) else 1
                    _merge(want, engine.multiply({m: 1}, engine.gen(g)), -sign * c)
                got = engine.commutator(g, x, engine._insert_term)
                assert got == want, (table.basis[g].name, x)
                assert all(map(is_canonical, got.values())), got
                if table.basis[g].odd:
                    odd_draws += sum(parity(table, m) for m in x)
    assert odd_draws, "no draw paired an odd g with an odd monomial"


def test_lift_edge_cases():
    table = table_for("B-I:m=2,n=1")
    engine, f = tailed_engine(table)
    theta = el_scale(random_lowering(engine, random.Random("lift-edges"), 3), Fraction(3, 2))
    assert theta
    assert engine.lift(f, 0, theta) == theta
    assert engine.lift(f, 4, el_zero()) == {}
    assert engine.lift(f, 3, el_one()) == engine.gen(f, 3)
    with pytest.raises(ValueError, match="negative exponent"):
        engine.lift(f, -1, theta)


def test_lift_refuses_the_wrong_generator_or_element():
    """The expansion needs X f^j to be a concatenation: f must be even and
    rightmost, and theta must be in normal form in U(n^-)."""
    table = table_for("B-II:m=1,n=1")
    odd_last = PBWEngine(table).rightmost_negative
    assert table.basis[odd_last].odd
    with pytest.raises(WrongOrder):
        PBWEngine(table).lift(odd_last, 2, el_one())
    engine, f = tailed_engine(table)
    other = next(g for g in range(table.n_pos) if g != f and not table.basis[g].odd)
    with pytest.raises(WrongOrder):
        engine.lift(other, 2, el_one())
    with pytest.raises(WrongOrder, match="is not a normal-form monomial of U"):
        engine.lift(f, 2, engine.gen(table.e_gen("d1")))
    # every generator of a theta monomial is checked, not only the last
    table = table_for("B-I:m=2,n=1")
    f = table.f_gen("d1-d2")
    engine = PBWEngine(table, (f,))
    mono = ((table.f_gen("2d2"), 1), (table.f_gen("e1"), 1))
    assert [engine.rank[g] for g, _ in mono] == [6, 0]
    with pytest.raises(WrongOrder, match="is not a normal-form monomial of U"):
        engine.lift(f, 2, {mono: 1})
    # nor is a generator repeated
    with pytest.raises(WrongOrder, match="is not a normal-form monomial of U"):
        engine.lift(f, 2, {mono[1:] * 2: 1})


def test_element_weight_rejects_mixtures_and_zero():
    table = table_for("B-I:m=1,n=1")
    engine = PBWEngine(table)
    with pytest.raises(Inhomogeneous, match="the zero element has no weight"):
        engine.element_weight(el_zero())
    mixed = el_add(engine.gen(table.f_gen("e1")), engine.gen(table.f_gen("d1")))
    with pytest.raises(Inhomogeneous, match=re.escape("mixed weights (-1,0), (0,-1)")):
        engine.element_weight(mixed)


def reference_monomial_weight(engine, m):
    """The weight of m as a sum of weight tuples, one generator at a time."""
    out = wzero(engine.table.alg.rank)
    for bid, exp in m:
        w = basis_weight(engine.table, bid)
        out = wsum(out, tuple(exp * c for c in w))
    return out


def random_normal_monomial(engine, rng):
    """A random normal-form monomial over the whole basis: odd generators
    at most once, even ones up to the cube."""
    mono = []
    for g in engine.sequence:
        if rng.random() < 0.3:
            mono.append((g, 1 if engine.table.basis[g].odd else rng.randint(1, 3)))
    return tuple(mono)


def short_monomial(engine, rng, pool, length):
    """A normal-form monomial of at most length generators drawn from pool:
    odd ones once, even ones up to the square."""
    gens = sorted({rng.choice(pool) for _ in range(length)}, key=engine.rank.__getitem__)
    return tuple((g, 1 if engine.table.basis[g].odd else rng.randint(1, 2)) for g in gens)


def insert_way(engine, head, w, rest):
    """How insert places w between head and rest, told from the monomials:
    "raises" or "odd square" when an even or odd w meets itself in head or
    rest; "walks" when w ranks above rest[0]; otherwise by the generators
    of head ranked above w that it passes: "top" for none, "bracket" or
    "bracket power" when one of them, y^b, has a nonzero bracket with w
    (b > 1 for the power), and "commuting" or "odd signs" when none has (an
    odd w passing an odd one for the signs)."""
    rank, basis = engine.rank, engine.table.basis
    odd = basis[w].odd
    if any(g == w for g, _ in head + rest):
        return "odd square" if odd else "raises"
    if rest and rank[w] > rank[rest[0][0]]:
        return "walks"
    passed = [(g, e) for g, e in head if rank[g] > rank[w]]
    if not passed:
        return "top"
    brackets = [e for g, e in passed if engine.table.bracket(g, w)]
    if brackets:
        return "bracket power" if max(brackets) > 1 else "bracket"
    return "odd signs" if odd and any(basis[g].odd for g, _ in passed) else "commuting"


INSERT_WAYS = {"top", "commuting", "odd signs", "bracket", "bracket power", "walks", "raises", "odd square"}


@pytest.mark.parametrize("text", SMALLEST_CASES)
def test_insert_matches_prepending_the_product(text):
    """insert(head, w, rest) adds head times the product w * rest, as the
    right-multiplication reference gives it, where head and rest split one
    random normal-form monomial over the whole basis or over U(n^-), in
    the default and the tailed orders, with every way insert can place w
    drawn."""
    table = table_for(text)
    rng = random.Random(f"insert:{text}")
    ways = collections.Counter()
    for engine in (PBWEngine(table), tailed_engine(table)[0]):
        lowering = engine.sequence[: engine.table.n_pos]
        for _ in range(500):
            pool = lowering if rng.random() < 0.5 else range(table.dim)
            mono = short_monomial(engine, rng, pool, rng.randint(0, 6))
            cut = rng.randint(0, len(mono))
            head, rest = mono[:cut], mono[cut:]
            w = rng.choice(pool)
            coef = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))
            seed = {rest: 1, head: Fraction(1, 2)}
            got, ref = dict(seed), dict(seed)
            engine.insert(head, w, rest, coef, got)
            _merge(ref, right_product(engine, {head: 1}, {((w, 1),) + rest: 1}), coef)
            assert {m: c for m, c in got.items() if c} == ref, (head, w, rest)
            ways[insert_way(engine, head, w, rest)] += 1
    assert set(ways) == INSERT_WAYS, ways


def test_insert_refuses_what_is_no_normal_form():
    """insert needs head * rest to be one normal-form monomial, and an odd
    generator it passes or meets to carry exponent one, as walk does."""
    table = table_for("B-I:m=1,n=1")
    engine = PBWEngine(table)
    seq, basis = engine.sequence, table.basis
    low, high = seq[0], seq[-1]
    for head, rest in ((((high, 1),), ((low, 1),)), (((low, 1),), ((low, 1),))):
        with pytest.raises(WrongOrder, match="is not a normal-form monomial"):
            engine.insert(head, seq[1], rest, 1, {})
    odd = next(g for g in seq[1:] if basis[g].odd)
    for w in (low, odd):
        with pytest.raises(WrongOrder, match="exponent one"):
            engine.insert(((odd, 2),), w, (), 1, {})


def test_walk_refuses_an_odd_generator_squared():
    """walk, like insert, needs each odd generator it passes to carry
    exponent one."""
    engine = PBWEngine(table_for("B-I:m=1,n=1"))
    seq, odd = engine.sequence, engine.table.odd
    x = next(g for g in seq if odd[g])
    for g in seq[engine.rank[x] + 1 :]:
        with pytest.raises(WrongOrder, match="exponent one"):
            engine.walk(g, ((x, 2),), (), 1, {}, engine._insert_term)


def is_canonical_weight(w) -> bool:
    """A tuple of ints and non-integral Fractions."""
    return type(w) is tuple and all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in w
    )


@pytest.mark.parametrize("text", SMALLEST_CASES)
def test_lattice_weights_match_fraction_sums(text):
    """Each basis weight's row holds weight_den times its nonzero
    coordinates as ints, and element_weight of one monomial or more, summed
    from the rows, equal the Fraction sum exactly, under the default engine
    and a tailed one; F31 is the case with weight_den 2."""
    table = table_for(text)
    den = table.alg.weight_den
    assert den == (2 if text == "F31" else 1)
    for bid in range(table.dim):
        row = table.weight_rows[bid]
        assert row == tuple((i, c * den) for i, c in enumerate(basis_weight(table, bid)) if c)
        assert all(type(c) is int for _, c in row)
    rng = random.Random(f"lattice:{text}")
    for engine in (PBWEngine(table), PBWEngine(table, (table.f_gen(first_even_root(table.alg)),))):
        for _ in range(40):
            m = random_normal_monomial(engine, rng)
            got = engine.element_weight({m: 1})
            assert got == reference_monomial_weight(engine, m) and is_canonical_weight(got)
        for _ in range(8):
            x = random_lowering(engine, rng, 3)
            x = engine.multiply(engine.gen(table.e_id(rng.randrange(table.n_pos))), x) or x
            if not x:
                continue
            got = engine.element_weight(x)
            assert {reference_monomial_weight(engine, m) for m in x} == {got}
            assert is_canonical_weight(got)


def test_render_is_deterministic():
    table = table_for("B-I:m=1,n=1")
    engine = PBWEngine(table)
    rng = random.Random("render")
    x = random_lowering(engine, rng, 3)
    assert engine.render(x) == engine.render(dict(reversed(list(x.items()))))
    assert engine.render(el_zero()) == "0"
    assert engine.render(el_one(), suffix="v+") == "v+"


def test_el_sub_and_power_times_keep_canonical_form():
    """Coefficients stay an int when integral and a Fraction otherwise:
    through el_sub, el_scale, el_add and power_times."""
    table = table_for("B-I:m=2,n=1")
    engine = PBWEngine(table)
    rng = random.Random("canonical")
    x = random_lowering(engine, rng, 3)
    assert el_sub(x, x) == {}
    half = el_scale(x, Fraction(1, 2))
    doubled = el_add(half, half)
    assert doubled == x and all(map(is_canonical, doubled.values()))
    evens = [g for g in range(table.n_pos) if not table.basis[g].odd]
    for _ in range(40):
        el = {}
        for _ in range(3):
            el = el_add(el, el_scale(random_lowering(engine, rng, 2), Fraction(rng.choice((-1, 1, 3)), 2)))
        g, j = rng.choice(evens), rng.randint(1, 3)
        got = engine.power_times(g, j, el)
        assert got == right_product(engine, engine.gen(g, j), el)
        assert all(map(is_canonical, got.values())), got
    # every generator power times half of every generator of G3, where a
    # half can meet a bracket constant that clears its denominator
    g3 = PBWEngine(table_for("G3"))
    for x in range(g3.table.dim):
        for y in range(g3.table.dim):
            for j in range(1, 6):
                got = g3.power_times(x, j, {((y, 1),): Fraction(1, 2)})
                assert all(map(is_canonical, got.values())), (x, y, j)


@pytest.mark.parametrize("name", ["e2-e1", "D+e1"])
def test_deep_power_passes_a_commuting_generator(name):
    """f_{2D}^2000 x in one call: [f_{2D}, x] = 0 and x ranks below f_{2D},
    so the product is x f_{2D}^2000.  power_times takes one pass per copy
    of f_{2D}, each one insert, and nothing recurses once per unit of the
    exponent."""
    table = table_for("G3")
    engine = PBWEngine(table)
    big, x = table.f_gen("2D"), table.f_gen(name)
    assert not table.bracket(big, x)
    assert engine.rank[x] < engine.rank[big]
    got = engine.multiply(engine.gen(big, 2000), engine.gen(x))
    assert got == {((x, 1), (big, 2000)): 1}
