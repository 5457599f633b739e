"""Golden-output oracle: the standard-grid NDJSON, the orbit-chain NDJSON,
the structure-constant dumps (in full for the smallest cases, as digests
for every osp case with m, n <= 4 and F31, G3), the osp witness specs,
the orbit-chain set-up digests, the selftest NDJSON and the digests of
verify and orbit output beyond the standard grid (every osp case with
m, n <= 3) must stay byte-identical.

The files under ``tests/golden/`` are written by this module itself:

    PYTHONPATH=src python3 tests/test_golden.py

Regenerate them only for a deliberate change of output, and review the
diff before committing it.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "scripts"))

import dump_structure_constants  # noqa: E402
import run_grid  # noqa: E402
from superverma.cli import SMALLEST_CASES, main as cli_main  # noqa: E402
from superverma.rootdata import OSP_FAMILIES, CaseId, build_algebra_data  # noqa: E402
from superverma.singular import (  # noqa: E402
    CaseParams,
    build_context,
    candidate,
    chain_kappas,
    chain_weight,
    default_lambda,
    final_beta,
    witness_spec,
)
from superverma.superalgebra import build_structure_constants, dump_table  # noqa: E402
from test_acceptance import CHAINS  # noqa: E402


def _stdout(entry, argv) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = entry(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited with {code}")
    return buffer.getvalue()


def grid() -> str:
    """``scripts/run_grid.py --seed 0``: 41 verify records, all checks."""
    return _stdout(run_grid.main, ["--seed", "0"])


def _target_text(target) -> str:
    """An orbit target as --target takes it: an index, or i,j for D-II."""
    return ",".join(map(str, target)) if isinstance(target, tuple) else str(target)


def orbit_chains() -> str:
    """``superverma orbit --json`` for every acceptance chain at seed 0."""
    out = ""
    for text, C, target, _ in CHAINS:
        case = CaseId.parse(text)
        argv = ["orbit", "--case", case.family, "--m", str(case.m), "--n", str(case.n),
                "--C", str(C), "--target", _target_text(target), "--seed", "0", "--json"]
        out += _stdout(cli_main, argv)
    return out


def selftest() -> str:
    """``superverma selftest --json`` at the default seed 0."""
    return _stdout(cli_main, ["selftest", "--json"])


def structure_constants() -> str:
    """``scripts/dump_structure_constants.py`` for the smallest case of each family."""
    return "".join(_stdout(dump_structure_constants.main, [text]) for text in SMALLEST_CASES)


def _small_osp_cases(top=3):
    for family in OSP_FAMILIES:
        for m in range(1, top + 1):
            for n in range(2 if family.startswith("D") else 1, top + 1):
                yield CaseId(family, m, n)


def structure_constants_digests() -> str:
    """SHA-256 of ``dump_table`` for every osp case with m, n <= 4, F31 and G3."""
    lines = []
    for case in [*_small_osp_cases(4), CaseId("F31"), CaseId("G3")]:
        table = build_structure_constants(build_algebra_data(case))
        digest = hashlib.sha256(dump_table(table).encode()).hexdigest()
        lines.append(f"{digest}  {case.text}\n")
    return "".join(lines)


def _powers(alg, pairs) -> str:
    """(positive-root index, exponent) pairs by root name."""
    return " ".join(f"{alg.pos_roots[i].name}^{e}" for i, e in pairs)


def witness_specs() -> str:
    """Candidate factors and witness specs of every osp case with m, n <= 3
    at the two lowest levels, with the lowering order the witness engine
    runs in.  Step monomials are listed sorted, zero exponents dropped."""
    lines = []
    for case in _small_osp_cases():
        ctx = build_context(case)
        alg = ctx.alg
        for N in (1, 3) if case.family == "B-I" else (1, 2):
            params = CaseParams(case, N, default_lambda(case, N, 0, alg))
            cand = candidate(params, ctx)
            # lowering generator ids are positive-root indices
            odd, tail = cand.odd, cand.tail_ids
            spec = witness_spec(cand, alg)
            engine = ctx.engine(tail=spec.order_tail)
            lines.append(f"{case.text} N={N}")
            lines.append("  candidate " + " ".join(alg.pos_roots[i].name for i in odd)
                         + " | " + _powers(alg, tail))
            lines.append("  order " + " ".join(
                ctx.table.basis[b].name for b in engine.sequence[:ctx.table.n_pos]))
            for step in spec.steps:
                mono = sorted(_powers(alg, [(i, e)]) for i, e in step.v_mono if e)
                lines.append(f"  step {step.label} "
                             + " ".join(alg.pos_roots[i].name for i in step.e_factors)
                             + " | " + _powers(alg, spec.tail)
                             + " | " + " ".join(mono))
    return "".join(line + "\n" for line in lines)


def _orbit_targets(case):
    """Every valid orbit target: an index into gamma's block, a pair for D-II."""
    if case.family == "D-II":
        return [(i, j) for j in range(1, case.n + 1) for i in range(1, j)]
    return list(range(1, (case.n if case.family == "B-II" else case.m) + 1))


def _orbit_setup(alg, target, C, seed, p_first) -> str:
    try:
        kappas = chain_kappas(target, alg)
        beta = final_beta(target, alg)
        mu = chain_weight(C, kappas, seed, alg, p_first=p_first)
    except Exception as exc:  # the class is part of the frozen output
        return type(exc).__name__
    names = alg.pos_roots
    return " ".join(names[k].name for k in kappas) + " | " + names[beta].name + " | " + (
        ",".join(map(str, mu)))


def orbit_setup_digests() -> str:
    """SHA-256 of the orbit-chain set-up (kappas, final beta and chain
    weight mu, or the exception class) of every osp case with m, n <= 4,
    over every valid target, C in {1, 2, 3}, seeds 0-2 and p in {None, 2}."""
    lines = []
    for case in _small_osp_cases(4):
        alg = build_algebra_data(case)
        records = [
            f"{target} C={C} seed={seed} p={p}: {_orbit_setup(alg, target, C, seed, p)}\n"
            for target in _orbit_targets(case)
            for C in (1, 2, 3)
            for seed in range(3)
            for p in (None, 2)
        ]
        digest = hashlib.sha256("".join(records).encode()).hexdigest()
        lines.append(f"{digest}  {case.text}\n")
    return "".join(lines)


def _digest_line(text: str, label: str) -> str:
    return f"{hashlib.sha256(text.encode()).hexdigest()}  {label}\n"


def wide_digests() -> str:
    """SHA-256 of ``superverma verify --json`` at seed 0 per case, over
    N = 1..3 (1 and 3 for B-I, and for G3, whose N is odd) for every osp
    case with m, n <= 3 and for F31 and G3; then of ``superverma orbit
    --json`` at seed 0 per osp case with m, n <= 3, over every valid
    target and C in {1, 2} ({1, 3} for B-I)."""
    lines = []
    for case in _small_osp_cases():
        levels = "1,3" if case.family == "B-I" else "1..3"
        argv = ["verify", "--case", case.family, "--m", str(case.m), "--n", str(case.n),
                "--N", levels, "--json"]
        lines.append(_digest_line(_stdout(cli_main, argv), f"verify {case.text}"))
    for family, levels in (("F31", "1..3"), ("G3", "1,3")):
        argv = ["verify", "--case", family, "--N", levels, "--json"]
        lines.append(_digest_line(_stdout(cli_main, argv), f"verify {family}"))
    for case in _small_osp_cases():
        levels = "1,3" if case.family == "B-I" else "1,2"
        out = ""
        for target in _orbit_targets(case):
            argv = ["orbit", "--case", case.family, "--m", str(case.m), "--n", str(case.n),
                    "--C", levels, "--target", _target_text(target), "--json"]
            out += _stdout(cli_main, argv)
        lines.append(_digest_line(out, f"orbit {case.text}"))
    return "".join(lines)


GOLDEN_FILES = {
    "grid_seed0.ndjson": grid,
    "orbit_setup_digests.txt": orbit_setup_digests,
    "orbit_chains_seed0.ndjson": orbit_chains,
    "selftest_seed0.ndjson": selftest,
    "structure_constants.txt": structure_constants,
    "structure_constants_digests.txt": structure_constants_digests,
    "witness_specs.txt": witness_specs,
    "wide_digests.txt": wide_digests,
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FILES))
def test_output_matches_golden(name):
    assert GOLDEN_FILES[name]().encode() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, produce in GOLDEN_FILES.items():
        (GOLDEN / name).write_bytes(produce().encode())
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
