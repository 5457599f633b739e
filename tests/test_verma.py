import random
from fractions import Fraction

import pytest

from superverma.pbw import Inhomogeneous, PBWEngine, el_add, el_one, el_scale, make_order
from superverma.rootdata import CaseId, build_algebra_data, wdiff, wscale, wsum
from superverma.superalgebra import build_structure_constants
from superverma.verma import (
    ModuleMismatch,
    VermaVector,
    act,
    highest_weight_vector,
    is_singular,
    weight_of,
)


def setup(text: str, tail=()):
    alg = build_algebra_data(CaseId.parse(text))
    table = build_structure_constants(alg)
    engine = PBWEngine(table, make_order(table, tail=tail))
    return alg, table, engine


def frac_weight(*xs):
    return tuple(Fraction(x) for x in xs)


def test_highest_weight_vector_basics():
    alg, table, eng = setup("B-I:m=1,n=1")
    lam = frac_weight("3/2", 2)
    v = highest_weight_vector(lam)
    assert weight_of(v, eng) == wdiff(lam, alg.rho)
    # every raising generator kills v+, every Cartan acts by a scalar
    for i in range(table.n_pos):
        image = act(eng.gen(table.e_id(i)), v, eng)
        assert image.is_zero()
    for j in range(table.n_cartan):
        image = act(eng.gen(table.h_id(j)), v, eng)
        expected = table.cartan_pairing(j, wdiff(lam, alg.rho))
        assert image.body == el_scale(v.body, expected)


def test_act_is_algebra_action():
    alg, table, eng = setup("D-II:m=1,n=2")
    lam = frac_weight(2, "1/2", -1)
    v = highest_weight_vector(lam)
    rng = random.Random(5)
    ids = list(range(table.dim))
    for _ in range(40):
        x = eng.multiply(el_one(), {tuple((rng.choice(ids), 1) for _ in range(rng.randint(1, 2))): 1})
        y = eng.multiply(el_one(), {tuple((rng.choice(ids), 1) for _ in range(rng.randint(1, 2))): 1})
        via_product = act(eng.multiply(x, y), v, eng)
        stepwise = act(x, act(y, v, eng), eng)
        assert via_product.body == stepwise.body


def test_weight_bookkeeping():
    alg, table, eng = setup("B-II:m=1,n=1")
    lam = frac_weight(1, "5/2")
    v = highest_weight_vector(lam)
    fd = table.f_gen("d1")
    w = act(eng.gen(fd, 3), v, eng)
    d1 = alg.root_named("d1").weight
    assert weight_of(w, eng) == wdiff(wdiff(lam, alg.rho), wscale(3, d1))
    mixed = VermaVector(el_add(w.body, v.body), lam)
    with pytest.raises(Inhomogeneous):
        weight_of(mixed, eng)
    with pytest.raises(Inhomogeneous):
        weight_of(VermaVector({}, lam), eng)


def test_classical_singular_vectors_on_even_simples():
    # f_alpha^t v+ is singular exactly when <lambda, h_alpha> = t > 0
    for text in ("B-I:m=2,n=1", "D-II:m=1,n=2"):
        alg, table, eng = setup(text)
        for j, s in enumerate(alg.simple_system):
            if s.odd:
                continue
            for t in (1, 2, 3):
                # lambda proportional to alpha itself has <lambda, h_alpha> = t
                lam = wscale(Fraction(t) / alg.coroot_pairing(s.weight, s.weight), s.weight)
                assert alg.coroot_pairing(lam, s.weight) == t
                v = act(eng.gen(table.f_id(alg.simple_pos_index[j]), t), highest_weight_vector(lam), eng)
                report = is_singular(v, eng)
                assert report.ok, (text, s.name, t, report)
                bad = act(
                    eng.gen(table.f_id(alg.simple_pos_index[j]), t + 1),
                    highest_weight_vector(lam),
                    eng,
                )
                assert not is_singular(bad, eng).ok


def test_osp12_string_identity():
    # e_d f_d^j v+ alternates between (tau - k s) f^{2k} v+ at j = 2k+1 and
    # -k s f^{2k-1} v+ at j = 2k, where tau and s pair lambda - rho and the
    # root with [e_d, f_d]
    alg, table, eng = setup("B-I:m=1,n=1")
    lam = frac_weight("7/2", -2)
    v = highest_weight_vector(lam)
    d = alg.root_named("d1")
    fd, ed = table.f_gen(d), table.e_gen(d)
    tval = table.bracket(ed, fd)
    tau = table.h_value_pairing(tval, wdiff(lam, alg.rho))
    s = table.h_value_pairing(tval, d.weight)
    for k in range(5):
        lhs = act(eng.gen(ed), act(eng.gen(fd, 2 * k + 1), v, eng), eng)
        rhs = act(eng.gen(fd, 2 * k), v, eng).scaled(tau - k * s)
        assert lhs.body == rhs.body
        if k:
            lhs = act(eng.gen(ed), act(eng.gen(fd, 2 * k), v, eng), eng)
            rhs = act(eng.gen(fd, 2 * k - 1), v, eng).scaled(-k * s)
            assert lhs.body == rhs.body


def test_osp12_vanishing_point():
    # with <lambda, h_gamma> = N = 2M + 1 the odd string truncates at
    # k = M + n, which is what the candidate vector construction relies on
    alg, table, eng = setup("B-I:m=1,n=2")
    N, n = 3, 2
    M = (N - 1) // 2
    lam = frac_weight("3/2", 1, -2)
    assert alg.coroot_pairing(lam, alg.gamma) == N
    d = alg.gamma
    fd, ed = table.f_gen(d), table.e_gen(d)
    v = highest_weight_vector(lam)
    k = M + n
    image = act(eng.gen(ed), act(eng.gen(fd, 2 * k + 1), v, eng), eng)
    assert image.is_zero()
    image = act(eng.gen(ed), act(eng.gen(fd, 2 * k - 1), v, eng), eng)
    assert not image.is_zero()


def test_singularity_certificate_names_failures():
    alg, table, eng = setup("B-I:m=1,n=1")
    lam = frac_weight("1/3", 1)
    v = act(eng.gen(table.f_gen("e1")), highest_weight_vector(lam), eng)
    report = is_singular(v, eng)
    assert not report.ok
    assert report.nonzero
    failing = [name for name, count in report.residuals if count]
    assert failing == ["e1"]
    zero = VermaVector({}, lam)
    report = is_singular(zero, eng)
    assert not report.ok
    assert not report.nonzero


def test_plus_needs_one_module():
    lam, mu = frac_weight("1/2", 1), frac_weight("3/2", 1)
    v = highest_weight_vector(lam)
    assert v.plus(v.scaled(-1)).is_zero()
    assert v.plus(v).body == {(): Fraction(2)}
    with pytest.raises(ModuleMismatch):
        v.plus(highest_weight_vector(mu))
