"""Package surface: the export table and optimized-mode behavior."""

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


@pytest.mark.parametrize("argv", [
    ("selftest", "--json"),
    ("orbit", "--case", "B-I", "--m", "2", "--n", "1", "--json"),
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
