"""Tests of the benchmark itself: run with ``python -m pytest perfbench``."""

import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE.parent / "scripts"))

import bench  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

# Smallest points of every family, both parities where a family has them.
REDUCED_GRID = (
    ("B-I", "1", "1,2", "1,3"),
    ("B-II", "1", "1", "1..2"),
    ("D-I", "1", "2", "1"),
    ("D-II", "1", "2", "1,2"),
    ("F31", None, None, "1"),
    ("G3", None, None, "1"),
)


def test_grid_is_the_standard_grid():
    import run_grid

    assert bench.GRID == run_grid.STANDARD_GRID


@pytest.mark.parametrize("checks", [(), ("nonzero", "singular")])
def test_per_point_calls_reproduce_run_grid(tmp_path, monkeypatch, checks):
    import run_grid

    monkeypatch.setattr(run_grid, "STANDARD_GRID", REDUCED_GRID)
    out = tmp_path / "grid.ndjson"
    argv = ["--seed", "0..1", "--out", str(out)]
    for check in checks:
        argv += ["--check", check]
    assert run_grid.main(argv) == 0

    calls, _ = bench.grid_calls(REDUCED_GRID, (0, 1), checks)
    _, text, passed = bench.run_calls(importlib.import_module("superverma.cli"), calls)
    assert all(passed)
    assert text.encode() == out.read_bytes()


def _traced(calls, cases, before_install=lambda cli, singular: None):
    cli, singular = bench.fresh_import()
    before_install(cli, singular)
    rec = spans.Recorder()
    notes = []
    patches = spans.install(rec, notes.append)
    rec.installed.add("cli.main")
    try:
        bench.build_contexts(singular, cases)
        _, text, passed = bench.run_calls(cli, calls, rec)
    finally:
        spans.uninstall(patches)
    return rec, notes, text, passed


def test_traced_run_reports_every_per_layer_metric():
    calls, cases = bench.grid_calls(REDUCED_GRID[:1], (0,))
    orbit = ["orbit", "--case", "B-I", "--m", "2", "--n", "1", "--C", "1", "--json"]
    rec, notes, text, passed = _traced(calls + [orbit], cases)
    assert notes == [] and all(passed)
    metrics = spans.layer_metrics(rec.spans, rec.installed)
    with open(HERE.parent / "BENCHMARK.json") as handle:
        declared = {m["name"] for m in json.load(handle)["per_layer"]}
    assert declared - set(metrics) == {"trace.coverage", "trace.overhead_frac"}
    assert metrics["singular.signflip.calls"][0] == 20 * len(calls)
    assert metrics["singular.orbit_propagate.calls"][0] == 1
    assert metrics["pbw.multiply.by_lift.calls"][0] == 1
    assert metrics["pbw.multiply.by_divide.calls"][0] == 1
    assert 0 < metrics["verma.act.useful_ratio"][0] <= 1


def test_self_time_excludes_children():
    tree = [
        ["cli.main", 0.0, 10.0, None, 0, None],
        ["verma.act", 1.0, 5.0, 0, 0, 3],
        ["pbw.multiply", 2.0, 4.0, 1, 0, 6],
    ]
    metrics = spans.layer_metrics(tree, {"cli.main", "verma.act", "pbw.multiply"}, 0.5)
    assert metrics["cli.main.self_s"][0] == 3.0
    assert metrics["verma.act.self_s"][0] == 1.0
    assert metrics["pbw.multiply.by_act.self_s"][0] == 1.0
    assert metrics["verma.act.useful_ratio"][0] == 0.5
    assert spans.covered(tree, 0.0, 20.0) == 10.0


def test_speed_factor_uses_nearby_slices():
    sampler = speed.Sampler()
    sampler.slices = [(float(t), speed.REF_SLICE_S) for t in range(10)]
    sampler.slices += [(float(t), 2 * speed.REF_SLICE_S) for t in range(20, 30)]
    assert sampler.factor(2.0, 5.0) == 1.0
    assert sampler.factor(22.0, 25.0) == 0.5
    assert sampler.factor(100.0, 101.0) == 0.75  # too few nearby: whole run


def test_missing_public_name_drops_its_metric_only():
    """A refactor that removes a traced name must not break the run."""
    calls, cases = bench.grid_calls(REDUCED_GRID[:1], (0,))
    _, reference, _ = bench.run_calls(bench.fresh_import()[0], calls)

    def remove(cli, singular):
        del singular.run_witness  # the CLI keeps its own reference
        del sys.modules["superverma.pbw"].PBWEngine.right_divide

    rec, notes, text, passed = _traced(calls, cases, remove)
    assert all(passed) and text == reference
    assert len(notes) == 2
    metrics = spans.layer_metrics(rec.spans, rec.installed)
    assert "singular.run_witness.calls" not in metrics
    assert "pbw.right_divide.self_s" not in metrics
    assert metrics["verma.act.calls"][0] > 0


def test_record_gate():
    assert bench.record_ok({"ok": True, "counterexample": None})
    assert not bench.record_ok({"ok": True, "counterexample": "u = 0"})
    assert not bench.record_ok({"ok": False, "counterexample": None})
    chain = {"ok": True, "steps": [{"ok": True}, {"ok": True}]}
    assert bench.record_ok(chain)
    chain["steps"][1]["ok"] = False
    assert not bench.record_ok(chain)
    good = json.dumps({"ok": True, "counterexample": None}) + "\n"
    assert bench.call_ok(0, good)
    assert not bench.call_ok(1, good)
    assert not bench.call_ok(0, "")
    assert not bench.call_ok(0, "not json\n")


def test_run_without_sources_fails_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    assert bench.main(["--workload", "grid", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
