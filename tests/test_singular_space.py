"""The singular space at weight lambda - rho - N*gamma, without the formula.

Every normal-form monomial of U(n^-) of weight -N*gamma is raised by each
simple raising generator through the module action, and the kernel of that
map is found by exact elimination.  The paper's candidate must lie in the
kernel; where the kernel has dimension 1, the candidate spans it.  A vacuous
action, one that kills more than it should, shows as a larger kernel.
"""

from fractions import Fraction

import pytest

from superverma.pbw import PBWEngine
from superverma.rootdata import CaseId
from superverma.singular import CaseParams, build_context, candidate, default_lambda
from superverma.verma import VermaVector, act

# (case, N) -> (weight-space dimension, kernel dimension), at the seed-0 lambda
SPACES = {
    ("B-II:m=1,n=1", 1): (2, 1),
    ("B-II:m=1,n=1", 3): (3, 1),
    ("B-I:m=2,n=1", 3): (3, 1),
    ("D-II:m=1,n=2", 2): (6, 1),
    ("B-II:m=2,n=2", 2): (10, 1),
    ("D-II:m=2,n=2", 1): (20, 1),
    ("B-I:m=4,n=2", 3): (13, 1),
    ("G3", 1): (7, 1),
    ("G3", 3): (56, 1),
    ("F31", 1): (43, 1),
}


def weight_space(engine, N):
    """The normal-form monomials of U(n^-) of weight -N*gamma, found by
    choosing exponents in the engine's order within the height N*ht(gamma)."""
    table = engine.table
    alg = table.alg
    gens = engine.sequence[: engine.table.n_pos]
    gamma = alg.gamma.index
    target = tuple(-N * c for c in alg.lattice[gamma])
    out = []

    def grow(i, mono, left, weight):
        if not left:
            if weight == target:
                out.append(mono)
            return
        if i == len(gens):
            return
        grow(i + 1, mono, left, weight)
        g = gens[i]
        h = alg.heights[g]
        top = 1 if table.basis[g].odd else left // h
        for e in range(1, top + 1):
            if e * h > left:
                break
            grow(i + 1, mono + ((g, e),), left - e * h,
                 tuple(w - e * c for w, c in zip(weight, alg.lattice[g])))

    grow(0, (), N * alg.heights[gamma], (0,) * alg.rank)
    return out


def kernel_dimension(columns):
    """The dimension of the kernel of the map whose images of the basis
    vectors are the given sparse columns, by exact elimination."""
    basis = []  # (pivot key, column reduced against the earlier ones, 1 at the pivot)
    for col in columns:
        v = {k: Fraction(c) for k, c in col.items()}
        for key, b in basis:
            c = v.get(key)
            if c:
                for k, x in b.items():
                    y = v.get(k, 0) - c * x
                    if y:
                        v[k] = y
                    else:
                        v.pop(k, None)
        if v:
            key = min(v)
            basis.append((key, {k: x / v[key] for k, x in v.items()}))
    return len(columns) - len(basis)


@pytest.mark.parametrize("text,N", sorted(SPACES), ids=[f"{t}-N{N}" for t, N in sorted(SPACES)])
def test_candidate_spans_the_singular_space(text, N):
    case = CaseId.parse(text)
    table = build_context(case)
    engine = PBWEngine(table)
    lam = default_lambda(case, N, 0)
    monos = weight_space(engine, N)
    raising = [engine.gen(table.e_id(i)) for i in table.alg.simple_pos_index]
    columns = []
    for mono in monos:
        v = VermaVector({mono: 1}, lam)
        columns.append({(j, m): c for j, e in enumerate(raising) for m, c in act(e, v, engine).body.items()})
    u = candidate(CaseParams(N, lam), table).build(engine)
    assert u.body and set(u.body) <= set(monos)
    image = {}
    for mono, coef in u.body.items():
        for key, c in columns[monos.index(mono)].items():
            image[key] = image.get(key, 0) + coef * c
    assert not any(image.values())
    space, kernel = SPACES[(text, N)]
    assert (len(monos), kernel_dimension(columns)) == (space, kernel)
