import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superverma import cli, rootdata, singular
from superverma.pbw import PBWEngine
from superverma.rootdata import (
    EVEN,
    ODD_ISO,
    ODD_NONISO,
    AlgebraData,
    CaseId,
    InvalidParams,
    IsotropicCoroot,
    RootDataError,
    build_algebra_data,
    f31_sign_weight,
    format_weight,
    parse_weight,
    render_weight_name,
    wdiff,
    wneg,
    wsum,
    wzero,
)
from helpers import f31_signs_of, form

SMALLEST = ["B-I:m=1,n=1", "B-II:m=1,n=1", "D-I:m=1,n=2", "D-II:m=1,n=2", "F31", "G3"]


def build(text: str) -> AlgebraData:
    return build_algebra_data(CaseId.parse(text))


def frac_weight(*xs) -> tuple:
    return tuple(Fraction(x) for x in xs)


def parity_counts(alg: AlgebraData) -> tuple:
    """The numbers of even and of odd positive roots."""
    odd = sum(r.odd for r in alg.pos_roots)
    return len(alg.pos_roots) - odd, odd


def test_b1_small_counts_and_rho():
    alg = build("B-I:m=2,n=1")
    assert parity_counts(alg) == (5, 6)
    assert alg.rho == frac_weight("1/2", "-1/2", "1/2")


def test_root_counts_formulas():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for family in ("B-I", "B-II"):
                alg = build(f"{family}:m={m},n={n}")
                assert parity_counts(alg) == (m * m + n * n, m * (2 * n + 1))
            if n >= 2:
                for family in ("D-I", "D-II"):
                    alg = build(f"{family}:m={m},n={n}")
                    assert parity_counts(alg) == (m * m + n * n - n, 2 * m * n)
    assert parity_counts(build("F31")) == (10, 8)
    assert parity_counts(build("G3")) == (7, 7)


def test_exceptional_rho_frozen():
    assert build("F31").rho == frac_weight("-3/2", "5/2", "3/2", "1/2")
    assert build("G3").rho == frac_weight("-5/2", 2, 3)


def test_gamma_per_family():
    expected = {
        "B-I:m=2,n=2": ("d2", ODD_NONISO),
        "B-II:m=2,n=2": ("e2", EVEN),
        "D-I:m=2,n=2": ("2d2", EVEN),
        "D-II:m=2,n=2": ("e1+e2", EVEN),
        "F31": ("D", EVEN),
        "G3": ("D", ODD_NONISO),
    }
    for text, (name, parity) in expected.items():
        alg = build(text)
        assert alg.gamma.name == name
        assert alg.gamma.parity == parity
        assert alg.coroot_pairing(alg.gamma.weight, alg.gamma) == 2


def test_rho_coroot_pairings():
    alg = build("B-I:m=2,n=1")
    assert alg.coroot_pairing(alg.rho, "d1-d2") == 1
    # gamma = d2 here and <rho, h_gamma> = 1 - 2n
    assert alg.coroot_pairing(alg.rho, alg.gamma) == -1
    for m, n in ((1, 2), (2, 3)):
        alg = build(f"D-I:m={m},n={n}")
        assert alg.coroot_pairing(alg.rho, alg.gamma) == 1 - n
    for text in SMALLEST:
        alg = build(text)
        for s in alg.simple_system:
            if s.parity == ODD_ISO:
                assert form(alg, alg.rho, s.weight) == 0
            else:
                assert alg.coroot_pairing(alg.rho, s) == 1


def test_bad_rho_is_a_root_data_error(monkeypatch):
    assemble = rootdata._assemble

    def doubled_rho(case, names, form, simples, even, odd, rho, *rest):
        return assemble(case, names, form, simples, even, odd, wsum(rho, rho), *rest)

    monkeypatch.setattr(rootdata, "_assemble", doubled_rho)
    with pytest.raises(RootDataError, match="rho mismatch"):
        build_algebra_data(CaseId.parse("B-II:m=1,n=1"))


@pytest.mark.parametrize("text", ["B-I:m=1,n=1", "B-II:m=1,n=1", "G3"])
def test_gamma_of_the_wrong_parity_is_a_root_data_error(monkeypatch, text):
    """The level rule reads whether gamma is odd from CaseId, before set-up,
    so root data whose gamma disagrees is refused."""
    case = CaseId.parse(text)
    real = rootdata._BUILDERS[case.family]

    def flipped_gamma(case):
        alg = real(case)
        return alg._replace(gamma=next(r for r in alg.pos_roots if r.odd != alg.gamma.odd))

    monkeypatch.setitem(rootdata._BUILDERS, case.family, flipped_gamma)
    with pytest.raises(RootDataError, match=rf"odd gamma \(\d+, \d+, {not case.odd_gamma}\), expected \(\d+, \d+, {case.odd_gamma}\)"):
        build_algebra_data(case)


def test_selftest_rho_check_is_the_set_up_check():
    """The selftest's rho check and the set-up read one rule, so the
    selftest names what the set-up would refuse."""
    alg = build("B-II:m=1,n=1")
    assert rootdata.rho_violation(alg) is None
    assert cli._st_rho(SimpleNamespace(alg=alg), 0) == (True, None)
    bad = alg._replace(rho=wsum(alg.rho, alg.rho))
    ok, detail = cli._st_rho(SimpleNamespace(alg=bad), 0)
    assert not ok and detail == rootdata.rho_violation(bad)
    assert detail == "rho mismatch: (1,-1) is not the half-sum (1/2,-1/2)"


@pytest.mark.parametrize("damaged, detail", [
    ("e1-d1", "(rho, e1-d1) is not zero"),
    ("d1", "<rho, h_d1> is not one"),
], ids=["isotropic", "nonisotropic"])
def test_selftest_rho_check_reads_the_simple_rows(damaged, detail):
    """Past the half-sum, the rho check reads each simple root's stored row:
    the isotropic e1-d1 with d1's row pairs rho to 1, not 0, and d1 with
    its row doubled pairs rho to 2, not 1."""
    alg = build("B-II:m=1,n=1")
    s, d1 = alg.root_named(damaged), alg.root_named("d1")
    rows = list(alg.coroot_rows)
    rows[s.index] = rows[d1.index] if s.isotropic else tuple((i, 2 * c) for i, c in rows[s.index])
    bad = alg._replace(coroot_rows=tuple(rows))
    assert cli._st_rho(SimpleNamespace(alg=bad), 0) == (False, detail)


# _assemble's arguments for B-II m=1 n=1 on (d1, e1), as _build_osp gives them
B2_11 = dict(
    case=CaseId("B-II", 1, 1),
    coord_names=("d1", "e1"),
    gram=rootdata._diag_form([1, -1]),
    simple_weights=[frac_weight(-1, 1), frac_weight(1, 0)],
    even_weights=[frac_weight(2, 0), frac_weight(0, 1)],
    odd_weights=[frac_weight(-1, 1), frac_weight(1, 1), frac_weight(1, 0)],
    rho_closed=frac_weight("1/2", "-1/2"),
    gamma_weight=frac_weight(0, 1),
)


@pytest.mark.parametrize("spoiled, message", [
    (dict(even_weights=B2_11["even_weights"] + [frac_weight(2, 0)]), "repeated even root"),
    (dict(odd_weights=B2_11["odd_weights"] + [frac_weight(1, 0)]), "repeated odd root"),
    (dict(even_weights=B2_11["even_weights"] + [frac_weight(1, 0)]), "a root is both even and odd"),
    (dict(even_weights=B2_11["even_weights"] + [frac_weight(-1, 1)], odd_weights=B2_11["odd_weights"][1:]),
     "even root e1-d1 must be nonisotropic"),
    (dict(names={frac_weight(2, 0): "x", frac_weight(0, 1): "x"}), "two positive roots share a name"),
    # {a, b, a + 2b} over the simple roots {a, b}: neither a + 2b - a nor
    # a + 2b - b is a root
    (dict(simple_weights=[frac_weight(1, 0), frac_weight(0, 1)],
          even_weights=[frac_weight(1, 0), frac_weight(0, 1), frac_weight(1, 2)],
          odd_weights=[], gamma_weight=frac_weight(1, 0)),
     "no simple-root decomposition for d1+2e1"),
    (dict(gamma_weight=frac_weight(-1, 1)), "gamma must be nonisotropic"),
    (dict(simple_weights=B2_11["simple_weights"][:1]), "the simple roots are not a basis"),
], ids=["even-repeated", "odd-repeated", "even-and-odd", "isotropic-even", "shared-name",
        "no-decomposition", "isotropic-gamma", "too-few-simple"])
def test_inconsistent_set_up_input_is_a_root_data_error(spoiled, message):
    """Each of _assemble's consistency guards refuses its input, naming the
    case; the unspoiled input builds B-II m=1 n=1."""
    assert [r.name for r in rootdata._assemble(**B2_11).pos_roots] == [
        r.name for r in build("B-II:m=1,n=1").pos_roots
    ]
    with pytest.raises(RootDataError, match=f"^{re.escape(f'B-II:m=1,n=1: {message}')}$"):
        rootdata._assemble(**{**B2_11, **spoiled})


def test_dependent_simple_roots_are_a_root_data_error(monkeypatch, capsys):
    assemble = rootdata._assemble

    def dependent(case, names, form, simples, *rest):
        simples = list(simples[:-1]) + [wsum(simples[0], simples[1])]
        return assemble(case, names, form, simples, *rest)

    monkeypatch.setattr(rootdata, "_assemble", dependent)
    with pytest.raises(RootDataError, match="the simple roots are not a basis"):
        build_algebra_data(CaseId.parse("B-II:m=2,n=2"))
    monkeypatch.setattr(singular, "_CONTEXTS", {})
    assert cli.main(["verify", "--case", "B-II", "--m", "2", "--n", "2", "--N", "1"]) == 3
    assert capsys.readouterr().err.startswith("internal error at B-II:m=2,n=2 N=1 seed=0: RootDataError: ")


@pytest.mark.parametrize("role", ["gamma", "simple root"])
def test_weight_off_the_roots_is_a_root_data_error(monkeypatch, capsys, role):
    """A builder whose gamma or simple weight is not a positive root: twice
    gamma, or the negative of the first simple root."""
    assemble = rootdata._assemble

    def spoiled(case, names, form, simples, even, odd, rho, gamma, *rest):
        if role == "gamma":
            gamma = wsum(gamma, gamma)
        else:
            simples = [wneg(simples[0])] + list(simples[1:])
        return assemble(case, names, form, simples, even, odd, rho, gamma, *rest)

    monkeypatch.setattr(rootdata, "_assemble", spoiled)
    with pytest.raises(RootDataError, match=f"^B-II:m=1,n=1: {role} .* is not a positive root$"):
        build_algebra_data(CaseId.parse("B-II:m=1,n=1"))
    monkeypatch.setattr(singular, "_CONTEXTS", {})
    assert cli.main(["verify", "--case", "B-II", "--m", "1", "--n", "1", "--N", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error at B-II:m=1,n=1 N=1 seed=0: RootDataError: ")
    assert "is not a positive root" in err


def test_parity_classification():
    alg = build("B-I:m=2,n=2")
    assert alg.root_named("d1").parity == ODD_NONISO
    assert alg.root_named("d1-e2").parity == ODD_ISO
    assert alg.root_named("d1+e1").parity == ODD_ISO
    assert alg.root_named("2d1").parity == EVEN
    alg = build("D-I:m=2,n=2")
    assert all(r.parity == ODD_ISO for r in alg.pos_roots if r.odd)
    alg = build("F31")
    assert all(r.parity == ODD_ISO for r in alg.pos_roots if r.odd)
    alg = build("G3")
    assert alg.root_named("D").parity == ODD_NONISO
    assert alg.root_named("D+e1").parity == ODD_ISO
    assert alg.root_named("D+e3").parity == ODD_ISO


def test_g3_names_frozen():
    alg = build("G3")
    assert [r.name for r in alg.pos_roots] == [
        "e2-e1", "e2", "e1", "e1+e2", "e1+2e2", "2e1+e2", "2D",
        "D+e3", "D-e1", "D-e2", "D", "D+e2", "D+e1", "D-e3",
    ]
    # mixed denominators render over their least common multiple
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    assert render_weight_name(("a", "b"), (half, quarter)) == "(2a+b)/4"
    assert render_weight_name(("a", "b"), (quarter, half)) == "(a+2b)/4"
    assert render_weight_name(("a", "b"), (half, Fraction(-1, 3))) == "(3a-2b)/6"
    assert render_weight_name(("a", "b"), (half, half)) == "(a+b)/2"
    assert render_weight_name(("a", "b"), (Fraction(0), Fraction(0))) == "0"


def test_f31_odd_names_are_sign_tuples():
    alg = build("F31")
    odd = [r for r in alg.pos_roots if r.odd]
    names = {r.name for r in odd}
    assert names == {"+---", "+--+", "+-+-", "+-++", "++--", "++-+", "+++-", "++++"}
    for r in odd:
        assert f31_sign_weight(r.name) == r.weight
        assert f31_signs_of(r.weight) == r.name
    assert f31_sign_weight("+−−+") == f31_sign_weight("+--+")
    for bad in ("+--", "+--+-", "+-x+"):
        with pytest.raises(InvalidParams, match=f"^bad sign tuple {re.escape(repr(bad))}$"):
            f31_sign_weight(bad)
    assert f31_signs_of(alg.root_named("e1").weight) is None


def orbit_names(text: str, name: str) -> list:
    alg = build(text)
    return [r.name for r in fraction_wprime_orbit(alg.root_named(name), alg)]


def test_orbit_examples():
    assert orbit_names("D-I:m=3,n=2", "2d3") == ["2d3", "2d2", "2d1"]
    assert orbit_names("D-I:m=3,n=2", "d1+d2") == ["d2+d3", "d1+d3", "d1+d2"]
    assert orbit_names("B-I:m=3,n=1", "d3") == ["d3", "d2", "d1"]
    assert orbit_names("B-II:m=1,n=3", "e3") == ["e3", "e2", "e1"]
    assert orbit_names("D-II:m=1,n=3", "e2+e3") == ["e2+e3", "e1+e3", "e1+e2"]
    assert orbit_names("F31", "D") == ["D"]
    assert orbit_names("G3", "D") == ["D"]


def test_orbit_of_isotropic_root():
    names = set(orbit_names("B-I:m=2,n=1", "d2-e1"))
    assert names == {"d1-e1", "d1+e1", "d2-e1", "d2+e1"}


def test_reflection_examples():
    alg = build("D-II:m=1,n=2")
    eps1 = alg.root_named("e1").weight if "e1" in [r.name for r in alg.pos_roots] else None
    lam = parse_weight("0,1,0", 3)
    assert alg.reflect(lam, "e1+e2") == parse_weight("0,0,-1", 3)
    alg = build("B-I:m=1,n=1")
    assert alg.reflect(alg.root_named("d1").weight, "d1") == wneg(alg.root_named("d1").weight)


def test_reflection_involution_sampled():
    rng = random.Random(7)
    for text in SMALLEST:
        alg = build(text)
        mirrors = [r for r in alg.pos_roots if form(alg, r.weight, r.weight) != 0]
        for _ in range(150):
            lam = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(alg.rank))
            beta = rng.choice(mirrors)
            image = alg.reflect(lam, beta)
            assert alg.reflect(image, beta) == lam
            assert form(alg, image, image) == form(alg, lam, lam)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=6), min_size=4, max_size=4))
def test_reflection_involution_f31(coords):
    alg = build("F31")
    lam = tuple(coords)
    for beta in alg.pos_roots:
        if form(alg, beta.weight, beta.weight) == 0:
            continue
        assert alg.reflect(alg.reflect(lam, beta), beta) == lam


def test_form_symmetry_sampled():
    rng = random.Random(11)
    for text in SMALLEST:
        alg = build(text)
        for _ in range(50):
            a = tuple(Fraction(rng.randint(-5, 5)) for _ in range(alg.rank))
            b = tuple(Fraction(rng.randint(-5, 5)) for _ in range(alg.rank))
            assert form(alg, a, b) == form(alg, b, a)
            assert form(alg, wsum(a, b), a) == form(alg, a, a) + form(alg, b, a)


def test_isotropic_coroot_raises():
    alg = build("B-I:m=1,n=1")
    iso = alg.root_named("d1-e1")
    with pytest.raises(IsotropicCoroot, match="root d1-e1 is isotropic"):
        alg.coroot_pairing(alg.rho, iso)
    with pytest.raises(IsotropicCoroot):
        alg.reflect(alg.rho, iso)


def test_invalid_params():
    with pytest.raises(InvalidParams, match=r"^D-I requires m >= 1 and n >= 2, got m=2, n=1$"):
        CaseId("D-I", 2, 1)
    with pytest.raises(InvalidParams, match=r"^B-I requires m >= 1 and n >= 1, got m=0, n=1$"):
        CaseId("B-I", 0, 1)
    with pytest.raises(InvalidParams, match=r"^F31 takes no m, n parameters$"):
        CaseId("F31", 2, 1)
    with pytest.raises(InvalidParams, match=r"^unknown family 'E8'$"):
        CaseId("E8")
    with pytest.raises(InvalidParams):
        CaseId.parse("B-I:m=x,n=1")
    alg = build("B-I:m=1,n=1")
    with pytest.raises(InvalidParams):
        alg.root_named("d7")
    with pytest.raises(InvalidParams):
        alg.as_index(parse_weight("5,5", 2))
    with pytest.raises(InvalidParams):
        alg.as_index(len(alg.pos_roots))


def test_case_text_roundtrip():
    for text in ["B-I:m=2,n=1", "B-II:m=3,n=2", "D-I:m=1,n=3", "D-II:m=2,n=2", "F31", "G3"]:
        case = CaseId.parse(text)
        assert case.text == text
        assert CaseId.parse(case.text) == case


def test_weight_serialization_roundtrip():
    w = frac_weight("1/2", -3, "7/3")
    assert parse_weight(format_weight(w), 3) == w
    with pytest.raises(InvalidParams):
        parse_weight("1,2", 3)


OSP_UP_TO_4 = [
    f"{family}:m={m},n={n}"
    for family in ("B-I", "B-II", "D-I", "D-II")
    for m in range(1, 5)
    for n in range(2 if family.startswith("D") else 1, 5)
]


def simple_coordinates(alg: AlgebraData, w) -> list:
    """Coordinates of w in the simple basis by elimination: the reference
    the heights read off the decompositions are checked against."""
    cols = [[s.weight[i] for s in alg.simple_system] for i in range(alg.rank)]
    return rootdata.solve_square(cols, list(w))


def test_decompositions_consistent():
    for text in OSP_UP_TO_4 + ["F31", "G3"]:
        alg = build(text)
        for pos, r in enumerate(alg.pos_roots):
            coords = simple_coordinates(alg, r.weight)
            assert all(c.denominator == 1 and c >= 0 for c in coords), (text, r.name)
            assert sum(coords) == alg.heights[pos], (text, r.name)
            if alg.heights[pos] == 1:
                assert alg.decomp[pos] is None
                assert pos in alg.simple_pos_index
            else:
                k, rest = alg.decomp[pos]
                assert wsum(alg.simple_system[k].weight, alg.pos_roots[rest].weight) == r.weight
                assert alg.heights[rest] == alg.heights[pos] - 1


def weight_index(alg: AlgebraData) -> dict:
    """Each positive root's weight tuple to its index, the reference
    lookup the integer tables are checked against."""
    return {r.weight: r.index for r in alg.pos_roots}


def fraction_decomp(alg: AlgebraData) -> tuple:
    """The decompositions by weight tuples, the reference for alg.decomp:
    a root outside the simple system is alpha_k + tau for the first simple
    alpha_k whose difference tau is a positive root."""
    index = weight_index(alg)
    out = []
    for pos, r in enumerate(alg.pos_roots):
        if pos in alg.simple_pos_index:
            out.append(None)
            continue
        out.append(next(
            (k, index[rest]) for k, s in enumerate(alg.simple_system)
            if (rest := wdiff(r.weight, s.weight)) in index
        ))
    return tuple(out)


@pytest.mark.parametrize("text", OSP_UP_TO_4 + ["F31", "G3"])
def test_root_sums_match_fraction_arithmetic(text):
    """alg.sums, alg.lattice and alg.decomp, built on integers, agree with
    Fraction arithmetic on the weights; F31 has half-integer weights and G3
    eliminates e3."""
    alg = build(text)
    weights = [r.weight for r in alg.pos_roots]
    index = weight_index(alg)
    for w, point in zip(weights, alg.lattice):
        assert tuple(Fraction(c, alg.weight_den) for c in point) == w
    for mu, a in enumerate(weights):
        for nu, b in enumerate(weights):
            assert alg.sums.get((mu, nu)) == index.get(wsum(a, b)), (mu, nu)
    assert alg.decomp == fraction_decomp(alg)


def fraction_wprime_orbit(beta, alg: AlgebraData) -> tuple:
    """The orbit of a positive root under reflections in the nonisotropic
    simple roots, by weight tuples through alg.reflect: reflect signed
    weights until no new one appears, then take the positive
    representatives, sorted by weight."""
    index = weight_index(alg)
    mirrors = [s for s in alg.simple_system if not s.isotropic]
    seen = {beta.weight}
    frontier = [beta.weight]
    while frontier:
        nxt = []
        for w in frontier:
            for s in mirrors:
                image = alg.reflect(w, s)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    reps = {w if w in index else wneg(w) for w in seen}
    assert reps <= set(index), beta.name
    return tuple(alg.pos_roots[index[w]] for w in sorted(reps))


def test_a_root_is_not_given_by_its_weight():
    """A root is its index, its datum or its name; a weight tuple where a
    root is expected is a usage error that names those three forms."""
    table = singular.build_context(CaseId.parse("B-I:m=2,n=1"))
    alg = table.alg
    w = alg.gamma.weight
    calls = (
        lambda: alg.as_index(w),
        lambda: table.f_gen(w),
        lambda: alg.coroot_pairing(alg.rho, w),
        lambda: PBWEngine(table, (table.f_gen(w),)),
    )
    for call in calls:
        with pytest.raises(InvalidParams, match="index, its RootDatum or its name"):
            call()
    assert alg.as_index(alg.gamma) == alg.as_index(alg.gamma.name) == alg.as_index(alg.gamma.index)


def test_dimension_counts():
    # superdimension check: dim g = 2 * #(positive roots) + rank of the Cartan
    assert build("F31").dim == 40
    assert build("G3").dim == 31
    assert build("B-I:m=1,n=1").dim == 2 * 5 + 2


def test_case_dim_matches_the_built_algebra():
    """CaseId.dim, which bounds a case before set-up, is the dimension
    the built algebra has."""
    for family in rootdata.FAMILIES:
        shapes = [(0, 0)] if family not in rootdata.OSP_FAMILIES else [(1, 2), (2, 2), (2, 3), (3, 2), (4, 2)]
        for m, n in shapes:
            case = CaseId(family, m, n)
            assert case.dim == build(case.text).dim, case.text
    assert CaseId("D-II", 10, 10).dim == 800


def test_case_odd_gamma_matches_the_built_algebra():
    """CaseId.odd_gamma, which bounds an odd gamma's level before set-up,
    is the parity of the built algebra's gamma."""
    for family in rootdata.FAMILIES:
        shapes = [(0, 0)] if family not in rootdata.OSP_FAMILIES else [(1, 2), (2, 3)]
        for m, n in shapes:
            case = CaseId(family, m, n)
            assert case.odd_gamma == rootdata.build_algebra_data(case).gamma.odd, case.text
