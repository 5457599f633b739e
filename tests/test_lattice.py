"""Lambda-free weights on the integer lattice against the Fraction reference.

The candidate's factors and tail, the witness specs, the claimed drop, the
weights of elements and every stored coroot row are computed on root
indices, packed ints and one dot product each.  Here each is recomputed
the way it was computed on Fraction weight tuples and full bilinear forms,
and must agree exactly, for every osp case with m, n <= 3 and F31, G3.
Lambda itself stays generic: coordinates of a test-only exact type go
through every pairing and come out of that type, equal to the Fraction
results.
"""

import hashlib
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from superverma.pbw import Inhomogeneous, PBWEngine
from superverma.rootdata import (
    OSP_FAMILIES,
    CaseId,
    f31_sign_weight,
    wdiff,
    wneg,
    wscale,
    wsum,
)
from superverma.singular import (
    F31_FACTOR_ORDER,
    CaseParams,
    build_context,
    candidate,
    claimed_drop,
    default_lambda,
    validate_params,
    witness_monomial,
    witness_spec,
)
from superverma.superalgebra import _exact
from superverma.verma import VermaVector, _Action, is_singular, weight_of
from helpers import basis_weight, cartan_duals, form, gram

ROOT = Path(__file__).resolve().parent.parent

CASES = [
    CaseId(family, m, n)
    for family in OSP_FAMILIES
    for m in range(1, 4)
    for n in range(2 if family.startswith("D") else 1, 4)
] + [CaseId("F31"), CaseId("G3")]


def levels(case):
    if case.family == "F31":
        return (1, 2, 3)
    return (1, 3) if case.family in ("B-I", "G3") else (1, 2)


# ---------------------------------------------------------------------------
# the Fraction reference: weights as tuples, pairings through the form.  It
# makes its own Fraction units and zero, as the package builds in ints


def ref_unit(dim, i):
    return tuple(Fraction(1 if j == i else 0) for j in range(dim))


def ref_coroot_pairing(alg, lam, b):
    return 2 * form(alg, lam, b) / form(alg, b, b)


def ref_weight(alg, monomial):
    """The weight of a monomial, one Fraction tuple per generator."""
    out = (Fraction(0),) * alg.rank
    for w, e in monomial:
        out = wsum(out, wscale(e, w))
    return out


def ref_osp_shape(alg):
    support = [k for k, x in enumerate(alg.gamma.weight) if x]
    other = range(alg.case.m, alg.rank) if support[0] < alg.case.m else range(alg.case.m)
    return [ref_unit(alg.rank, k) for k in reversed(support)], [ref_unit(alg.rank, k) for k in other]


def ref_factors(alg):
    """The odd factors as weights, in application order."""
    if alg.case.family == "F31":
        return [f31_sign_weight(s) for s in F31_FACTOR_ORDER]
    if alg.case.family == "G3":
        D, e1, e2 = ref_unit(3, 0), ref_unit(3, 1), ref_unit(3, 2)
        return [op(D, e) for e in (e1, e2, wneg(wsum(e1, e2))) for op in (wdiff, wsum)]
    pivots, block = ref_osp_shape(alg)
    return [op(p, b) for p in pivots for b in block for op in (wdiff, wsum)]


def ref_gamma_multiple(alg, weights):
    total = ref_weight(alg, [(w, 1) for w in weights])
    gamma = alg.gamma.weight
    k = next(i for i, x in enumerate(gamma) if x)
    c = total[k] / Fraction(gamma[k])
    assert c.denominator == 1 and wscale(c, gamma) == total
    return int(c)


def ref_index(alg):
    """Each positive root's weight tuple to its index: the reference
    lookup by weight."""
    return {r.weight: r.index for r in alg.pos_roots}


def ref_f_power(alg, w, e):
    if alg.pos_roots[ref_index(alg)[w]].odd:
        return ((w, e % 2), (wscale(2, w), e // 2))
    return ((w, e),)


def ref_witness_spec(alg, N, c):
    """(order tail, tail, [(label, factors, monomial)]), all as weights."""
    top = N + ref_gamma_multiple(alg, c)
    gamma = alg.gamma.weight
    tail = ref_f_power(alg, gamma, top)
    if alg.case.family == "F31":
        e = [ref_unit(4, j) for j in (1, 2, 3)]
        D = ref_unit(4, 0)
        seq = [e[2], e[1], e[0]]
        seq += [wsum(e[1], e[2]), wdiff(e[1], e[2]), wsum(e[0], e[2]), wdiff(e[0], e[2])]
        seq += [wsum(e[0], e[1]), wdiff(e[0], e[1])] + c + [D]
        v_monos = [
            ((e[2], 1), (wdiff(e[1], e[2]), 1), (wdiff(e[0], e[1]), 1), (c[0], 1), (c[3], 1), (D, N - 1)),
            ((wdiff(e[1], e[2]), 1), (wdiff(e[0], e[1]), 1), (c[0], 1), (c[1], 1), (c[3], 1), (D, N - 1)),
            ((wdiff(e[0], e[1]), 1), (c[0], 1), (c[1], 1), (c[2], 1), (c[3], 1), (D, N - 1)),
            (*((ci, 1) for ci in c[:5]), (D, N - 1)),
            (*((ci, 1) for ci in c[:4]), (D, N)),
            (*((ci, 1) for ci in c[:3]), (D, N + 1)),
            (*((ci, 1) for ci in c[:2]), (D, N + 2)),
            ((c[0], 1), (D, N + 3)),
            tail,
        ]
        return seq, tail, [(k, c[k:], v_monos[k]) for k in range(9)]
    if alg.case.family == "G3":
        D, e1, e2 = ref_unit(3, 0), ref_unit(3, 1), ref_unit(3, 2)
        e3 = wneg(wsum(e1, e2))
        M = (N - 1) // 2
        seq = [
            wsum(e1, e2), e2, e1,
            wsum(e1, wscale(2, e2)), wsum(wscale(2, e1), e2), wdiff(e2, e1),
            wdiff(D, e3), wsum(D, e3), wdiff(D, e2), wsum(D, e2),
            wdiff(D, e1), wsum(D, e1), D, wscale(2, D),
        ]
        factors = [wsum(D, e1), wsum(D, e2), wdiff(D, e1), wdiff(D, e2), wsum(D, e3), wdiff(D, e3)]
        v_monos = [
            ((e1, 2), (wdiff(e2, e1), 1), (wsum(D, e3), 1), (wscale(2, D), M)),
            ((e1, 2), (wsum(D, e3), 1), (wsum(D, e2), 1), (wscale(2, D), M)),
            ((e1, 1), (wdiff(D, e3), 1), (wsum(D, e3), 1), (wsum(D, e2), 1), (wscale(2, D), M)),
            ((wdiff(D, e3), 1), (wsum(D, e3), 1), (wsum(D, e2), 1), (D, 1), (wscale(2, D), M)),
            ((wdiff(D, e3), 1), (wsum(D, e3), 1), (D, 1), (wscale(2, D), M + 1)),
            ((wsum(D, e3), 1), (D, 1), (wscale(2, D), M + 2)),
            tail,
        ]
        return seq, tail, [(k, factors[k:], v_monos[k]) for k in range(7)]
    pivots, block = ref_osp_shape(alg)
    index = ref_index(alg)
    K = len(block)
    stride = (top - N) // K
    covered = []
    for b in reversed(block):
        covered += [w for w in (b, wscale(2, b)) if w in index][:1]
    pairs = sorted(((i, j) for i in range(K) for j in range(K) if i < j),
                   key=lambda ij: (-(ij[0] + ij[1]), -ij[0]))
    for i, j in pairs:
        covered += [wsum(block[i], block[j]), wdiff(block[i], block[j])]
    covered += [op(p, b) for b in reversed(block) for p in pivots for op in (wdiff, wsum)]
    on_pivots = {k for p in pivots for k, x in enumerate(p) if x}
    covered += [
        alg.pos_roots[i].weight
        for i in sorted(range(len(alg.pos_roots)), key=lambda i: (alg.heights[i], i))
        if all(k in on_pivots for k, x in enumerate(alg.pos_roots[i].weight) if x)
    ]
    top_root = wscale(len(pivots), block[-1])
    if top_root not in index:
        top_root = wsum(pivots[0], block[-1])
    steps = []
    for k in range(1, K + 2):
        factors = [op(p, b) for b in block[k - 1:] for p in pivots for op in (wdiff, wsum)]
        if k <= K:
            mono = [(top_root, 1)]
            mono += [(wdiff(block[i - 1], block[i]), len(pivots)) for i in range(K - 1, k - 1, -1)]
            mono += [(wdiff(p, block[k - 1]), 1) for p in pivots]
            mono += ref_f_power(alg, gamma, N + stride * (k - 1) - 1)
        else:
            mono = tail
        steps.append((k, factors, tuple(mono)))
    return covered, tail, steps


# ---------------------------------------------------------------------------
# the lattice computations against it


def weights_of(alg, indices):
    return [alg.pos_roots[i].weight for i in indices]


def powers_of(alg, pairs):
    return tuple((alg.pos_roots[i].weight, e) for i, e in pairs)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.text)
def test_candidates_and_witness_specs_match_the_fraction_reference(case):
    """Factors, tail, drop, witness spec and every weight the point checks
    equal the Fraction computation, at each level the goldens use."""
    table = build_context(case)
    alg = table.alg
    for N in levels(case):
        lam = default_lambda(case, N, 0)
        params = CaseParams(N, lam)
        cand = candidate(params, table)
        factors = ref_factors(alg)
        assert weights_of(alg, cand.odd) == factors
        assert cand.odd_ids == tuple(table.e_gen(ref_index(alg)[w]) for w in factors)
        top = N + ref_gamma_multiple(alg, factors)
        assert cand.tail_ids == ((table.f_gen(alg.gamma), top),)
        assert alg.from_lattice(claimed_drop(params, alg)) == wscale(N, alg.gamma.weight)

        order, tail, steps = ref_witness_spec(alg, N, factors)
        spec = witness_spec(cand, alg)
        assert weights_of(alg, spec.order_tail) == order
        assert powers_of(alg, spec.steps[-1].v_mono) == tail
        assert [(s.label, weights_of(alg, s.e_factors), powers_of(alg, s.v_mono)) for s in spec.steps] == steps

        engine = PBWEngine(table, spec.order_tail)
        for step in spec.steps:
            mono = witness_monomial(engine, step.v_mono)
            assert engine.element_weight({mono: 1}) == wneg(ref_weight(alg, powers_of(alg, step.v_mono)))
        default = PBWEngine(table)
        u = cand.build(default)
        body = {ref_weight(alg, [(basis_weight(table, g), e) for g, e in m]) for m in u.body}
        assert {default.element_weight(u.body)} == body
        assert weight_of(u, default) == wsum(lam, wdiff(body.pop(), alg.rho))


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.text)
def test_coroot_rows_match_the_forms(case):
    """Every stored row, the table's Cartan rows and <rho, h_j> equal the
    form computation entry by entry, canonical; coroot_pairing, canonical
    too, and reflect equal it at random weights.  The form is the test's
    own (helpers.gram), not the Gram matrix the set-up was given."""
    table = build_context(case)
    alg = table.alg
    units = [ref_unit(alg.rank, i) for i in range(alg.rank)]
    for r, row in zip(alg.pos_roots, alg.coroot_rows):
        b = r.weight
        if r.isotropic:
            want = [form(alg, x, b) for x in units]
        else:
            want = [ref_coroot_pairing(alg, x, b) for x in units]
        assert row == tuple((i, _exact(c)) for i, c in enumerate(want) if c), r.name
        assert all(type(c) is int or c.denominator > 1 for _, c in row)
    duals_rows = tuple(
        tuple((i, _exact(c)) for i, row in enumerate(gram(alg))
              if (c := sum(x * d for x, d in zip(row, dual))))
        for dual in cartan_duals(alg)
    )
    assert table.cartan_rows == duals_rows
    assert table.rho_pairings == tuple(
        _exact(form(alg, alg.rho, dual)) for dual in cartan_duals(alg)
    )
    rng = random.Random(f"rows:{case.text}")
    for _ in range(5):
        lam = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(alg.rank))
        for r in alg.pos_roots:
            if r.isotropic:
                continue
            got = alg.coroot_pairing(lam, r)
            assert got == ref_coroot_pairing(alg, lam, r.weight)
            assert type(got) is int or got.denominator > 1
            assert alg.reflect(lam, r) == wdiff(lam, wscale(got, r.weight))


def test_weights_stay_exact_for_large_exponents():
    """Monomials of lowering, Cartan and raising generators at exponents up
    to 10**30 have the Fraction sums as weights, and two of them that differ
    by one unit of two exponents are told apart."""
    table = build_context(CaseId("D-II", 2, 3))
    engine = PBWEngine(table)
    low = engine.sequence[: table.n_pos]
    even = next(i for i in reversed(range(table.n_pos)) if not table.odd[i])
    for e in (1, 2 ** 28, 2 ** 33, 2 ** 40, 10 ** 30):
        mono = ((low[0], e), (low[3], 1), (low[-1], e + 1),
                (table.h_id(1), e + 2), (table.e_id(even), e + 3))
        want = ref_weight(table.alg, [(basis_weight(table, g), x) for g, x in mono])
        assert engine.element_weight({mono: 1}) == want
        other = ((low[0], e + 1), (low[-1], e))
        x = {mono: 1, other: 2}
        with pytest.raises(Inhomogeneous, match="mixed weights"):
            engine.element_weight(x)


# PYTHONPATH=src python3 -m superverma verify ... --json | sha256sum, at the
# commit before weights were packed
HUGE_LEVELS = [
    (("--case", "D-I", "--m", "1", "--n", "2", "--N", "100000000000000000000000"),
     "659c2045b1e2d7524b50e8119c7dd9023afe400b7911b00f64239d4a9c19a041"),
    (("--case", "D-II", "--m", "2", "--n", "3", "--N", "100000000000000000000000000000"),
     "6dfbd53c06a0140bb264b55f5f1bad65b86e17547ef43f0da380464b0e08a8d0"),
]


@pytest.mark.parametrize("argv, digest", HUGE_LEVELS)
def test_huge_levels_keep_their_output(argv, digest):
    """Levels far past any fixed-width int give the output they gave on
    Fraction weights: the weight checks do not wrap."""
    proc = subprocess.run(
        [sys.executable, "-m", "superverma", "verify", *argv, "--json"],
        capture_output=True, env={"PYTHONPATH": str(ROOT / "src")}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


# ---------------------------------------------------------------------------
# lambda stays generic


class Exact:
    """A test-only exact number, not a Fraction and not registered as a
    number: arithmetic with ints and Fractions gives an Exact again."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = Fraction(v)

    @staticmethod
    def _val(x):
        return x.v if isinstance(x, Exact) else x

    def __add__(self, o):
        return Exact(self.v + self._val(o))

    __radd__ = __add__

    def __sub__(self, o):
        return Exact(self.v - self._val(o))

    def __rsub__(self, o):
        return Exact(self._val(o) - self.v)

    def __mul__(self, o):
        return Exact(self.v * self._val(o))

    __rmul__ = __mul__

    def __truediv__(self, o):
        return Exact(self.v / self._val(o))

    def __rtruediv__(self, o):
        return Exact(self._val(o) / self.v)

    def __neg__(self):
        return Exact(-self.v)

    def __pow__(self, e):
        return Exact(self.v ** e)

    def __eq__(self, o):
        return self.v == self._val(o)

    def __hash__(self):
        return hash(self.v)

    def __bool__(self):
        return bool(self.v)

    @property
    def denominator(self):
        return self.v.denominator


def same(got, want):
    """got is an Exact (or a tuple of them) equal to want."""
    if isinstance(want, tuple):
        return len(got) == len(want) and all(same(g, w) for g, w in zip(got, want))
    return type(got) is Exact and got == want


@pytest.mark.parametrize("text", ["B-I:m=1,n=1", "D-II:m=2,n=2", "F31", "G3"])
def test_lambda_of_another_exact_type_pairs_without_conversion(text):
    """lambda's coordinates as Exact go through validate_params,
    coroot_pairing, reflect and the action's <lambda - rho, h_j>, stay
    Exact and equal the Fraction results; the candidate built on them
    equals the Fraction candidate and is singular."""
    case = CaseId.parse(text)
    table = build_context(case)
    alg = table.alg
    N = 1
    lam = default_lambda(case, N, 0)
    generic = tuple(Exact(x) for x in lam)
    validate_params(CaseParams(N, generic), alg)
    for r in alg.pos_roots:
        if r.isotropic:
            continue
        assert same(alg.coroot_pairing(generic, r), alg.coroot_pairing(lam, r))
        assert same(alg.reflect(generic, r), alg.reflect(lam, r))
    engine = PBWEngine(table)
    assert same(_Action(engine, generic).shift, _Action(engine, lam).shift)
    u = candidate(CaseParams(N, lam), table).build(engine)
    v = candidate(CaseParams(N, generic), table).build(engine)
    # lambda-free coefficients stay ints; the rest carry lambda as Exact
    assert v.body == u.body and any(type(c) is Exact for c in v.body.values())
    assert is_singular(VermaVector(v.body, generic), engine).ok
