"""Package surface: the export table, optimized-mode behavior, what an
import costs, and the contracts of the record classes."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import superverma
from superverma import (
    CaseId,
    CaseParams,
    PBWEngine,
    build_context,
    check_jacobi,
    check_reference_scaling,
    is_singular,
    propagate_chain,
    run_witness,
)
from superverma.singular import candidate, default_lambda, witness_spec


def test_export_table_is_honest():
    names = superverma.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(superverma, name), name
    namespace = {}
    exec("from superverma import *", namespace)
    assert set(names) <= set(namespace)


def test_readme_library_example_runs():
    """The README's Library example runs as written against the package."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    (example,) = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    exec(compile(example, "README.md", "exec"), {})


def test_no_assert_statements():
    """python -O strips asserts, so no check of the package may live in one."""
    root = Path(superverma.__file__).resolve().parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found


@pytest.mark.parametrize("argv", [
    ("selftest", "--json"),
    ("orbit", "--case", "B-I", "--m", "2", "--n", "1", "--json"),
    ("verify", "--case", "D-II", "--m", "2", "--n", "2", "--N", "2", "--json"),
])
def test_optimized_mode_prints_the_same_bytes(argv):
    """No check may live in an assert that python -O strips."""
    src = str(Path(superverma.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    runs = [
        subprocess.run([sys.executable, *flags, "-m", "superverma", *argv],
                       capture_output=True, env=env, timeout=600)
        for flags in ((), ("-O",))
    ]
    assert [r.returncode for r in runs] == [0, 0], [r.stderr for r in runs]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout


def test_max_rss_script_passes_output_and_status_through(tmp_path):
    """scripts/max_rss.py hands the command's output and exit status on and
    writes the command's peak RSS, which covers what the command held, and
    the CPU seconds of its whole tree, a process the command waited for
    included."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "max_rss.py"
    out = tmp_path / "rss"
    spin = "import time; t = time.process_time()\nwhile time.process_time() - t < 0.3: pass"
    child = (f"import subprocess, sys; subprocess.run([sys.executable, '-c', {spin!r}], check=True)\n"
             "b = bytearray(40 << 20); print('hi'); sys.exit(3)")
    run = subprocess.run([sys.executable, str(script), str(out), sys.executable, "-c", child],
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout) == (3, "hi\n")
    mb, cpu = map(float, out.read_text().split())
    assert mb >= 40
    assert cpu >= 0.3


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    """Every process pays for the package's import, a spawned worker too:
    dataclasses generates and execs each record's methods at import and
    pulls in inspect, so the package uses neither.  -S keeps site's
    start-up hooks out of the count."""
    src = str(Path(superverma.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import superverma.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr


# ---------------------------------------------------------------------------
# record contracts


def test_case_id_is_a_checked_immutable_value():
    case = CaseId("B-I", 1, 1)
    assert case == CaseId.parse("B-I:m=1,n=1") and hash(case) == hash(CaseId("B-I", 1, 1))
    assert len({case, CaseId("B-I", 1, 1), CaseId("B-I", 1, 2), CaseId("B-II", 1, 1)}) == 3
    assert case != CaseId("B-I", 2, 1) and case != CaseId("B-I", 1, 2) and case != ("B-I", 1, 1)
    assert repr(case) == "CaseId(family='B-I', m=1, n=1)"
    with pytest.raises(AttributeError):
        case.m = 2
    with pytest.raises(AttributeError):
        del case.family
    assert (case.family, case.m, case.n) == ("B-I", 1, 1)


@pytest.fixture(scope="module")
def records():
    """One instance of each frozen record and a field of it, by class name,
    from small runs."""
    case = CaseId("B-II", 1, 1)
    table = build_context(case)
    alg = table.alg
    params = CaseParams(1, default_lambda(case, 1, 0))
    cand = candidate(params, table)
    spec = witness_spec(cand, alg)
    witness = run_witness(cand, table)
    chain_case = CaseId("B-I", 2, 1)
    chain = propagate_chain(build_context(chain_case), 1, 1, seed=0)
    engine = PBWEngine(table)
    return {
        "RootDatum": (alg.gamma, "name"),
        "BasisElement": (table.basis[0], "bid"),
        "JacobiReport": (check_jacobi(table), "ok"),
        "ScalingReport": (check_reference_scaling(table), "scales"),
        "CaseParams": (params, "N"),
        "SingularityReport": (is_singular(cand.build(engine), engine), "ok"),
        "WitnessSpec": (spec, "steps"),
        "WitnessStep": (spec.steps[0], "label"),
        "WitnessReport": (witness, "rows"),
        "WitnessRow": (witness.rows[0], "coefficient"),
        "ChainReport": (chain, "steps"),
        "OrbitStep": (chain.steps[0], "kappa"),
    }


@pytest.mark.parametrize("name", [
    "BasisElement", "CaseParams", "ChainReport", "JacobiReport", "OrbitStep", "RootDatum",
    "ScalingReport", "SingularityReport", "WitnessReport", "WitnessRow", "WitnessSpec", "WitnessStep",
])
def test_a_report_record_refuses_assignment(records, name):
    record, field = records[name]
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is not None


def test_algebra_data_is_not_hashed_by_content():
    """It holds dicts: a copy with every field equal is another key."""
    alg = build_context(CaseId("B-II", 1, 1)).alg
    copy = alg._replace()
    assert copy is not alg and copy.sums is alg.sums
    assert copy != alg and not copy == alg and alg == alg
    assert len({alg, copy}) == 2 and {alg: 1}.get(copy) is None
