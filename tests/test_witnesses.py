"""Coefficient witnesses against fixed generator orderings.

Each family fixes a printed ordering of the lowering generators and a
chain of partial products u_k; the named monomial v_k must appear in u_k
with a nonzero coefficient.  The final step is always the bare tail, so
its coefficient is pinned to one exactly.
"""

from fractions import Fraction

import pytest

from superverma import singular
from superverma.pbw import PBWEngine, WrongOrder
from superverma.rootdata import CaseId, InvalidParams
from superverma.singular import (
    Candidate,
    CaseParams,
    build_context,
    candidate,
    default_lambda,
    run_witness,
    witness_monomial,
    witness_spec,
)
from superverma.verma import VermaVector, act, highest_weight_vector
from test_acceptance import full_grid


def report_for(text: str, N: int, seed: int = 1):
    case = CaseId.parse(text)
    table = build_context(case)
    lam = default_lambda(case, N, seed)
    params = CaseParams(N, lam)
    return run_witness(candidate(params, table), table), params, table


def test_f31_witness_chain():
    report, params, table = report_for("F31", 1)
    assert len(report.rows) == 9
    assert report.ok
    assert report.rows[-1].coefficient == 1
    # the factor list equals the candidate's, so the chain starts at u itself
    assert report.candidate_coefficient == report.rows[0].coefficient


def test_f31_witness_chain_higher_level():
    report, _, _ = report_for("F31", 3)
    assert report.ok


def test_g3_witness_chain_both_levels():
    for N in (1, 3):
        report, _, _ = report_for("G3", N)
        assert len(report.rows) == 7
        assert report.ok, [str(r.coefficient) for r in report.rows]
        assert report.rows[-1].coefficient == 1


def test_g3_partial_product_is_proportional_to_candidate():
    """The fully applied witness chain rebuilds the candidate up to a
    nonzero scalar: same factors, reordered, with the tail rewritten
    through the odd square."""
    case = CaseId.parse("G3")
    table = build_context(case)
    lam = default_lambda(case, 1, 2)
    cand = candidate(CaseParams(1, lam), table)
    spec = witness_spec(cand, table.alg)
    engine = PBWEngine(table, spec.order_tail)
    step = spec.steps[0]
    v = highest_weight_vector(lam)
    for w, exp in reversed(spec.steps[-1].v_mono):
        v = act(engine.gen(engine.table.f_gen(w), exp), v, engine)
    for w in reversed(step.e_factors):
        v = act(engine.gen(engine.table.e_gen(w)), v, engine)
    u = cand.build(engine)
    mono = witness_monomial(engine, step.v_mono)
    ratio = u.body[mono] / v.body[mono]
    assert ratio != 0
    assert u.body == {m: ratio * c for m, c in v.body.items()}


def test_candidate_coefficient_matches_a_build_on_the_candidates_own_tail():
    """Reference for the one images dict: at every standard-grid point,
    seeds 0..2, run_witness reads the candidate's coefficient on the normal
    form of its tail and scales it by that form's scalar, and it equals the
    coefficient read from the candidate built on its own tail f_gamma^(N + c)
    under the witness engine, an int or a Fraction alike.  For an odd gamma
    (B-I, G3) the two tails differ by (c/2)^k."""
    for text, N in full_grid():
        case = CaseId.parse(text)
        table = build_context(case)
        for seed in range(3):
            cand = candidate(CaseParams(N, default_lambda(case, N, seed)), table)
            spec = witness_spec(cand, table.alg)
            engine = PBWEngine(table, [table.f_id(i) for i in spec.order_tail])
            u = cand.build(engine)
            want = u.body.get(witness_monomial(engine, spec.steps[0].v_mono), 0)
            got = run_witness(cand, table).candidate_coefficient
            assert (type(got), got) == (type(want), want), (text, N, seed)


def test_osp_witness_chains_small():
    for text, N in [
        ("B-I:m=1,n=1", 1),
        ("B-I:m=2,n=2", 3),
        ("B-II:m=2,n=1", 2),
        ("D-I:m=1,n=2", 1),
        ("D-II:m=2,n=2", 2),
    ]:
        report, params, _ = report_for(text, N)
        assert report.ok, (text, [str(r.coefficient) for r in report.rows])
        assert report.rows[-1].coefficient == 1
        assert report.candidate_coefficient != 0


def test_witness_rows_count_matches_block_length():
    for text, N, expected in [
        ("B-I:m=2,n=2", 1, 3),
        ("B-II:m=2,n=1", 1, 3),
        ("D-I:m=1,n=2", 1, 3),
        ("D-II:m=2,n=2", 1, 3),
    ]:
        report, _, _ = report_for(text, N)
        assert len(report.rows) == expected


def test_witness_sequence_is_a_full_ordering():
    for text in ("F31", "G3", "B-I:m=2,n=2", "D-II:m=2,n=2"):
        case = CaseId.parse(text)
        table = build_context(case)
        lam = default_lambda(case, 1, 0)
        spec = witness_spec(candidate(CaseParams(1, lam), table), table.alg)
        engine = PBWEngine(table, spec.order_tail)
        lowering = engine.sequence[:table.n_pos]
        assert sorted(lowering) == list(range(len(table.alg.pos_roots)))
        tail_ids = tuple(table.f_gen(w) for w in spec.order_tail)
        assert lowering[len(lowering) - len(tail_ids):] == tail_ids
        if case.family in ("F31", "G3"):
            assert len(tail_ids) == len(lowering)


def test_coefficient_witness_reads_single_monomial():
    case = CaseId.parse("B-I:m=1,n=1")
    table = build_context(case)
    lam = default_lambda(case, 1, 0)
    engine = PBWEngine(table)
    v = highest_weight_vector(lam)
    v = act(engine.gen(table.f_gen("2d1"), 2), v, engine)
    assert v.body.get(witness_monomial(engine, [("2d1", 2)]), 0) == 1
    assert v.body.get(witness_monomial(engine, [("2d1", 1)]), 0) == 0


def test_witness_monomial_drops_zero_exponents():
    case = CaseId.parse("B-I:m=1,n=1")
    table = build_context(case)
    engine = PBWEngine(table)
    mono = witness_monomial(engine, [("e1", 1), ("2d1", 0)])
    assert mono == ((table.f_gen("e1"), 1),)
    with pytest.raises(WrongOrder):
        witness_monomial(engine, [("e1", 1), ("2d1", 1), ("e1", 2)])
    with pytest.raises(WrongOrder):
        witness_monomial(engine, [("e1", -1)])


def test_mixed_witness_step_fails_its_weight_check(monkeypatch):
    """A step product with a stray monomial of another weight gives
    weight_ok false in its row instead of raising."""
    real = Candidate.build

    def with_stray(self, *args, **kwargs):
        u = real(self, *args, **kwargs)
        return VermaVector({**u.body, (): 1}, u.highest_weight)

    monkeypatch.setattr(Candidate, "build", with_stray)
    report, _, _ = report_for("B-I:m=1,n=1", 1)
    assert report.rows and not any(r.weight_ok for r in report.rows)
    assert not report.ok
