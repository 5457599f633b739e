"""Package surface: the export table and optimized-mode behavior."""

import ast
import os
import re
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
