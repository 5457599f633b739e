import gc
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superverma.cli import SMALLEST_CASES
from superverma.rootdata import CaseId, build_algebra_data, wsum
from superverma.superalgebra import (
    EMPTY,
    BracketTable,
    ClosureFailure,
    _merge,
    _scaled,
    build_structure_constants,
    check_jacobi,
    check_reference_scaling,
    dump_table,
)
from helpers import basis_weight, value_dual, with_pair_scaled
from test_acceptance import grid_cases

SMALLEST = ["B-I:m=1,n=1", "B-II:m=1,n=1", "D-I:m=1,n=2", "D-II:m=1,n=2", "F31", "G3"]


def make(text: str) -> BracketTable:
    return build_structure_constants(build_algebra_data(CaseId.parse(text)))


def test_defining_relations_on_simples():
    for text in SMALLEST:
        table = make(text)
        alg = table.alg
        for a, pa in enumerate(alg.simple_pos_index):
            for b, pb in enumerate(alg.simple_pos_index):
                val = table.bracket(table.e_id(pa), table.f_id(pb))
                if a == b:
                    assert val == {table.h_id(a): Fraction(1)}
                else:
                    assert val == {}


def test_cartan_action_example():
    table = make("B-II:m=1,n=1")
    two_d1 = table.alg.root_named("2d1").index
    d1_simple = next(
        j for j, s in enumerate(table.alg.simple_system) if s.name == "d1"
    )
    val = table.bracket(table.h_id(d1_simple), table.e_id(two_d1))
    assert val == {table.e_id(two_d1): Fraction(4)}


def test_jacobi_exhaustive_smallest():
    for text in SMALLEST:
        report = check_jacobi(make(text))
        assert report.ok, (text, report.first_violation)
        assert report.first_violation is None
        assert report.triples_checked > 0


def test_jacobi_fault_injection():
    table = make("B-I:m=1,n=1")
    x = table.e_gen("d1-e1")
    y = table.e_gen("e1")
    # flip the pair and its transpose consistently so antisymmetry still
    # holds and the sweep must catch it at a triple
    broken = with_pair_scaled(table, x, y, -1)
    report = check_jacobi(broken)
    assert not report.ok
    assert "Jacobi fails" in report.first_violation
    assert "," in report.first_violation


def test_antisymmetry_fault_detected():
    table = make("B-I:m=1,n=1")
    x = table.f_gen("d1")
    y = table.e_gen("d1")
    flipped = dict(table.entries)
    flipped[(x, y)] = {k: 7 * v for k, v in table.entries[(x, y)].items()}
    broken = BracketTable(table.alg, table.basis, flipped)
    report = check_jacobi(broken)
    assert not report.ok
    assert "antisymmetry" in report.first_violation


@pytest.mark.parametrize("text", ["B-I:m=1,n=1", "B-II:m=2,n=1", "D-II:m=1,n=2", "G3"])
def test_every_stored_decomposition_is_checked(text):
    # e_sigma := [e_k, e_tau] with alpha_k + tau != sigma breaks the grading
    # and must fail the closure; a decomposition that adds up only changes
    # the gauge, so the table must still satisfy Jacobi
    alg = build_algebra_data(CaseId.parse(text))
    for s, split in enumerate(alg.decomp):
        if split is None:
            continue
        for k, simple in enumerate(alg.simple_system):
            for t, tau in enumerate(alg.pos_roots):
                if (k, t) == split or alg.heights[t] >= alg.heights[s]:
                    continue
                decomp = list(alg.decomp)
                decomp[s] = (k, t)
                other = alg._replace(decomp=tuple(decomp))
                if wsum(simple.weight, tau.weight) == alg.pos_roots[s].weight:
                    assert check_jacobi(build_structure_constants(other)).ok, (s, k, t)
                else:
                    with pytest.raises(ClosureFailure):
                        build_structure_constants(other)


def test_unset_pair_is_a_closure_failure():
    # a sums table that claims a sum mu + nu of positive roots is a root
    # keeps the grading from reading [X_mu, X_nu] as 0; claimed as a simple root,
    # which no probe solves for and no mixed bracket reads as a difference,
    # it is set by no later pass either
    alg = build_algebra_data(CaseId.parse("B-II:m=1,n=1"))
    P = len(alg.pos_roots)
    simple = alg.simple_pos_index[0]
    fakes = [(mu, nu) for mu in range(P) for nu in range(mu, P) if (mu, nu) not in alg.sums]
    assert fakes
    for fake in fakes:
        other = alg._replace(sums={**alg.sums, fake: simple})
        with pytest.raises(ClosureFailure, match=r"no value derived for \["):
            build_structure_constants(other)


@pytest.mark.parametrize("text", ["B-II:m=1,n=1", "D-II:m=1,n=2", "G3"])
def test_derived_zero_is_a_closure_failure(text):
    # a sums table that claims mu + nu = sigma for a root sigma of their
    # height sum, where mu + nu is no root, has the closure derive
    # [X_mu, X_nu] (or a mixed pair reading the false split), whose true
    # value is 0: the table stores no zero, so that is a ClosureFailure
    alg = build_algebra_data(CaseId.parse(text))
    P, heights = len(alg.pos_roots), alg.heights
    fakes = [
        (mu, nu, s)
        for mu in range(P)
        for nu in range(mu, P)
        if (mu, nu) not in alg.sums
        for s in range(P)
        if heights[s] == heights[mu] + heights[nu]
    ]
    assert fakes
    for mu, nu, s in fakes:
        other = alg._replace(sums={**alg.sums, (mu, nu): s, (nu, mu): s})
        with pytest.raises(ClosureFailure, match=r"was derived as 0$"):
            build_structure_constants(other)


@pytest.mark.parametrize("text", SMALLEST)
def test_a_root_claimed_simple_is_a_closure_failure(text):
    # heights that claim the highest root sigma is simple keep the probes
    # from deriving its splits and the mixed pass from decomposing it, so
    # the mixed pass meets [e_sigma, f_sigma] unset, as if level 1 had
    # missed a simple pair
    alg = build_algebra_data(CaseId.parse(text))
    top = max(range(len(alg.pos_roots)), key=alg.heights.__getitem__)
    other = alg._replace(heights=tuple(1 if s == top else h for s, h in enumerate(alg.heights)))
    name = alg.pos_roots[top].name
    with pytest.raises(ClosureFailure, match=re.escape(f"simple pair [e_{{{name}}}, f_{{{name}}}] was not set in level 1")):
        build_structure_constants(other)


@pytest.mark.parametrize("text", ["D-I:m=1,n=2", "D-II:m=1,n=2", "F31", "G3"])
def test_an_even_square_is_a_closure_failure(text):
    # a decomposition that builds a root of height 2 as alpha + alpha, for
    # an even simple root alpha, has level 1 set [e_alpha, e_alpha] to a
    # root vector, where super antisymmetry makes an even square 0
    alg = build_algebra_data(CaseId.parse(text))
    k = next(k for k, s in enumerate(alg.simple_system) if not s.odd)
    sigma = alg.heights.index(2)
    decomp = list(alg.decomp)
    decomp[sigma] = (k, alg.simple_pos_index[k])
    name = alg.simple_system[k].name
    with pytest.raises(ClosureFailure, match=re.escape(f"even square bracket [e_{{{name}}}, e_{{{name}}}] must vanish")):
        build_structure_constants(alg._replace(decomp=tuple(decomp)))


def test_a_build_leaves_no_cyclic_garbage():
    # the closure's working state is freed when the build returns, so
    # repeated builds do not pile up until a full collection
    gc.collect()
    gc.disable()
    try:
        make("B-II:m=2,n=1")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_weight_grading():
    for text in ("B-II:m=2,n=1", "G3"):
        table = make(text)
        for (x, y), val in table.entries.items():
            total = wsum(basis_weight(table, x), basis_weight(table, y))
            for bid in val:
                assert basis_weight(table, bid) == total


def test_ef_pairs_are_cartan_with_proportional_dual():
    for text in SMALLEST:
        table = make(text)
        for i, r in enumerate(table.alg.pos_roots):
            val = table.bracket(table.e_id(i), table.f_id(i))
            assert val, r.name
            dual = value_dual(table, val)
            ratios = set()
            for x, y in zip(dual, r.weight):
                if y:
                    ratios.add(x / y)
                else:
                    assert x == 0
            assert len(ratios) == 1 and 0 not in ratios, (text, r.name, dual)


def test_odd_squares():
    table = make("B-I:m=1,n=1")
    fd = table.f_gen("d1")
    val = table.bracket(fd, fd)
    assert set(val) == {table.f_gen("2d1")}
    assert val[table.f_gen("2d1")] != 0
    iso = table.f_gen("d1-e1")
    assert table.bracket(iso, iso) == {}
    table = make("G3")
    fd = table.f_gen("D")
    val = table.bracket(fd, fd)
    assert set(val) == {table.f_gen("2D")}


def test_table_is_complete():
    """The table stores nonzero brackets only, with no zero coefficient,
    every pair reads through bracket (a pair not stored as the shared
    EMPTY), and the Jacobi sweep still reads all dim^2 pairs."""
    for text in ("D-II:m=1,n=2", "B-I:m=1,n=1", "G3"):
        table = make(text)
        dim = table.dim
        assert all(val and all(val.values()) for val in table.entries.values()), text
        assert 0 < len(table.entries) < dim * dim
        for x in range(dim):
            for y in range(dim):
                val = table.bracket(x, y)
                assert val is table.entries.get((x, y), EMPTY), (text, x, y)
        report = check_jacobi(table)
        assert report.ok, (text, report.first_violation)
        assert report.pairs_checked == dim * dim


def test_zero_brackets_share_one_value_that_refuses_mutation():
    table = make("B-I:m=1,n=1")
    zero = [(x, y) for x in range(table.dim) for y in range(table.dim) if (x, y) not in table.entries]
    assert len(zero) > 1
    assert all(table.bracket(x, y) is EMPTY for x, y in zero)
    assert EMPTY == {} and not EMPTY
    with pytest.raises(TypeError):
        EMPTY[table.f_id(0)] = 1
    with pytest.raises(AttributeError):
        EMPTY.update({table.f_id(0): 1})
    assert not EMPTY


# check_reference_scaling's scales on B-II m=1 n=1, as the check returned
# them when it compared Cartan values as dual weights
SCALES_B2_11 = {
    "e_{d1}": Fraction(1), "f_{e1}": Fraction(1), "e_{d1+e1}": Fraction(-1, 4),
    "f_{e1-d1}": Fraction(2), "e_{e1-d1}": Fraction(-1, 2), "e_{e1}": Fraction(1, 2),
    "f_{d1}": Fraction(1, 2), "f_{d1+e1}": Fraction(-1, 4),
}


def test_reference_scaling():
    for text in ("B-II:m=1,n=1", "B-II:m=2,n=2", "B-II:m=1,n=3", "B-II:m=3,n=1"):
        report = check_reference_scaling(make(text))
        assert report.ok, (text, report.detail)
        assert len(report.scales) == 8
        assert all(type(c) is Fraction and c != 0 for c in report.scales.values())
    assert check_reference_scaling(make("B-II:m=1,n=1")).scales == SCALES_B2_11


def test_reference_scaling_rejects_other_families():
    with pytest.raises(ValueError):
        check_reference_scaling(make("B-I:m=1,n=1"))


def test_reference_scaling_detects_damage():
    """A root-valued relation, [f_{e1-d1}, f_{d1}], and a Cartan-valued
    one, [e_{d1}, f_{d1}], each scaled by 3 with its transpose, fail the
    check.  f_{d1}'s scale is solved from [e_{d1}, f_{d1}], so the damaged
    Cartan-valued relation itself passes and the failing one names it as
    the source of a scale it used."""
    table = make("B-II:m=1,n=1")
    damaged = (
        (table.f_gen("e1-d1"), "[f_{e1-d1}, f_{d1}] = 3*f_{e1} cannot be rescaled onto the reference"
                               " list; its scales were solved from [e_{d1}, f_{e1}], [e_{d1}, f_{d1}]"),
        (table.e_gen("d1"), "[e_{e1-d1}, f_{e1}] = f_{d1} cannot be rescaled onto the reference list;"
                            " its scales were solved from [e_{e1-d1}, f_{e1-d1}], [e_{d1}, f_{d1}]"),
    )
    for x, detail in damaged:
        report = check_reference_scaling(with_pair_scaled(table, x, table.f_gen("d1"), 3))
        assert not report.ok and not report.scales
        assert report.detail == detail


def test_dump_table_deterministic():
    a = dump_table(make("B-I:m=1,n=1"))
    b = dump_table(make("B-I:m=1,n=1"))
    assert a == b
    assert a.count("\n") > 20
    assert "[f_{d1}, e_{d1}] = " in a


def is_canonical(c) -> bool:
    """An int when integral, a Fraction only otherwise."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


@pytest.mark.parametrize("text", SMALLEST_CASES)
def test_bracket_table_coefficients_are_canonical(text):
    table = make(text)
    bad = [
        (table.basis[x].name, table.basis[y].name, c)
        for (x, y), val in table.entries.items()
        for c in val.values()
        if not is_canonical(c)
    ]
    assert not bad, bad[:5]


def non_canonical(obj, path):
    """(path, number) for each float and each Fraction of denominator 1 in
    obj, a number or tuples, lists and dicts of them (keys included)."""
    if type(obj) is float or (type(obj) is Fraction and obj.denominator == 1):
        yield path, obj
    elif isinstance(obj, (tuple, list)):
        for i, x in enumerate(obj):
            yield from non_canonical(x, f"{path}[{i}]")
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from non_canonical(k, f"{path} key {k!r}")
            yield from non_canonical(v, f"{path}[{k!r}]")


@pytest.mark.parametrize("text", grid_cases())
def test_set_up_numbers_are_canonical(text):
    """Every number the set-up stores is an int when integral: every field
    of the root data (the weights, rho, coroot_rows) and of the bracket
    table (pairings, rho_pairings, every entry value), on each case of the
    standard grid."""
    table = make(text)
    assert table.alg.rho and table.pairings and table.entries
    bad = [*non_canonical(table.alg._asdict(), "alg"), *non_canonical(vars(table), "table")]
    assert not bad, bad[:5]


def test_merge_and_scale_keep_canonical_form():
    half = Fraction(1, 2)
    acc = {"a": half}
    _merge(acc, {"a": half})
    assert acc == {"a": 1} and type(acc["a"]) is int
    _merge(acc, {"a": 1}, -1)
    assert acc == {}
    _merge(acc, {"a": 3, "b": half}, Fraction(2, 3))
    assert acc == {"a": 2, "b": Fraction(1, 3)} and type(acc["a"]) is int
    scaled = _scaled({"a": half, "b": 3}, Fraction(2))
    assert scaled == {"a": 1, "b": 6}
    assert all(type(c) is int for c in scaled.values())
    assert _scaled({"a": half}, 0) == {}


# values as the kernel may meet them: ints (some large), Fractions, zeros in
# both types and integral Fractions such as Fraction(3, 1)
COEFFICIENTS = st.one_of(
    st.integers(-(10 ** 20), 10 ** 20),
    st.fractions(max_denominator=12),
    st.sampled_from([0, Fraction(0)]),
    st.integers(-5, 5).map(Fraction),
)
VECTORS = st.dictionaries(st.integers(0, 7), COEFFICIENTS, max_size=8)
FACTORS = st.sampled_from([1, -1, 0, 3, Fraction(1, 2), Fraction(-3, 2)])


def _canonical_ref(x):
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def _typed(d):
    return {k: (type(v), v) for k, v in d.items()}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(into=VECTORS, val=VECTORS, c=FACTORS)
def test_merge_and_scale_match_the_reference_formula(into, val, c):
    """_merge stores into.get(k, 0) + c * v for every key of val, canonical,
    and drops it when that is 0; _scaled is c * v per key.  A new key adds
    nothing, so with c = 1 a canonical value is stored as the same object."""
    want = dict(into)
    for k, v in val.items():
        new = into.get(k, 0) + c * v
        if new:
            want[k] = _canonical_ref(new)
        else:
            want.pop(k, None)
    got = dict(into)
    _merge(got, val, c)
    assert _typed(got) == _typed(want)
    assert all(got[k] and is_canonical(got[k]) for k in val if k in got)
    if c == 1:
        for k, v in val.items():
            if k not in into and v and v is _canonical_ref(v):
                assert got[k] is v
    want_scaled = {k: _canonical_ref(c * v) for k, v in val.items()} if c else {}
    assert _typed(_scaled(val, c)) == _typed(want_scaled)
