"""Package surface: the export table and optimized-mode behavior."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import superverma


def test_export_table_is_honest():
    names = superverma.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(superverma, name), name
    namespace = {}
    exec("from superverma import *", namespace)
    assert set(names) <= set(namespace)


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
