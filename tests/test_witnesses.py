"""Coefficient witnesses against fixed generator orderings.

Each family fixes a printed ordering of the lowering generators and a
chain of partial products u_k; the named monomial v_k must appear in u_k
with a nonzero coefficient.  The final step is always the bare tail, so
its coefficient is pinned to one exactly.
"""

from fractions import Fraction

import pytest

from superverma import singular
from superverma.pbw import WrongOrder
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


def report_for(text: str, N: int, seed: int = 1):
    case = CaseId.parse(text)
    ctx = build_context(case)
    lam = default_lambda(case, N, seed, ctx.alg)
    params = CaseParams(case, N, lam)
    return run_witness(candidate(params, ctx), ctx), params, ctx


def test_f31_witness_chain():
    report, params, ctx = report_for("F31", 1)
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
    ctx = build_context(case)
    lam = default_lambda(case, 1, 2, ctx.alg)
    cand = candidate(CaseParams(case, 1, lam), ctx)
    spec = witness_spec(cand, ctx.alg)
    engine = ctx.engine(tail=spec.order_tail)
    step = spec.steps[0]
    v = highest_weight_vector(lam)
    for w, exp in reversed(spec.tail):
        v = act(engine.gen(engine.table.f_gen(w), exp), v, engine)
    for w in reversed(step.e_factors):
        v = act(engine.gen(engine.table.e_gen(w)), v, engine)
    u = cand.build(engine)
    mono = witness_monomial(engine, step.v_mono)
    ratio = u.body[mono] / v.body[mono]
    assert ratio != 0
    assert u.body == {m: ratio * c for m, c in v.body.items()}


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
        ctx = build_context(case)
        lam = default_lambda(case, 1, 0, ctx.alg)
        spec = witness_spec(candidate(CaseParams(case, 1, lam), ctx), ctx.alg)
        engine = ctx.engine(tail=spec.order_tail)
        lowering = engine.sequence[:ctx.table.n_pos]
        assert sorted(lowering) == list(range(len(ctx.alg.pos_roots)))
        tail_ids = tuple(ctx.table.f_gen(w) for w in spec.order_tail)
        assert lowering[len(lowering) - len(tail_ids):] == tail_ids
        if case.family in ("F31", "G3"):
            assert len(tail_ids) == len(lowering)


def test_coefficient_witness_reads_single_monomial():
    case = CaseId.parse("B-I:m=1,n=1")
    ctx = build_context(case)
    lam = default_lambda(case, 1, 0, ctx.alg)
    engine = ctx.default_engine
    v = highest_weight_vector(lam)
    v = act(engine.gen(ctx.table.f_gen("2d1"), 2), v, engine)
    assert v.body.get(witness_monomial(engine, [("2d1", 2)]), 0) == 1
    assert v.body.get(witness_monomial(engine, [("2d1", 1)]), 0) == 0


def test_witness_monomial_drops_zero_exponents():
    case = CaseId.parse("B-I:m=1,n=1")
    ctx = build_context(case)
    engine = ctx.default_engine
    mono = witness_monomial(engine, [("e1", 1), ("2d1", 0)])
    assert mono == ((ctx.table.f_gen("e1"), 1),)
    with pytest.raises(WrongOrder):
        witness_monomial(engine, [("e1", 1), ("2d1", 1), ("e1", 2)])
    with pytest.raises(WrongOrder):
        witness_monomial(engine, [("e1", -1)])


def test_mixed_witness_step_fails_its_weight_check(monkeypatch):
    """A step product with a stray monomial of another weight gives
    weight_ok false in its row instead of raising."""
    real = Candidate.build

    def with_stray(self, *args):
        u = real(self, *args)
        return VermaVector({**u.body, (): 1}, u.highest_weight)

    monkeypatch.setattr(Candidate, "build", with_stray)
    report, _, _ = report_for("B-I:m=1,n=1", 1)
    assert report.rows and not any(r.weight_ok for r in report.rows)
    assert not report.ok
