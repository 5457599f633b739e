#!/usr/bin/env python3
"""Benchmark of the ``superverma`` command line, end to end and per layer.

    python3 perfbench/bench.py --workload grid --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  Every workload is a fixed amount of work, driven one grid point
or chain per call through ``superverma.cli.main`` with ``--json`` (the
user path, including the sign-flip loop that lives only in the CLI):

* ``grid``: the standard grid of ``scripts/run_grid.py`` with all checks
  at seeds S, S+1 and S+2, in ``run_grid`` order (123 points).
* ``verify-heavy``: ``verify --case D-II --m 3 --n 3 --N 2 --seed S``.
* ``orbit-chain``: ``orbit --case B-I --m 4 --n 2 --C 3 --target 1
  --seed S``.

Each run is one fresh interpreter, so straightening caches and contexts
start cold; nothing runs in parallel.  ``--seconds`` is the time one run is
expected to measure; the workloads are sized to about that on a 2-core
machine, and a run far off it prints a note.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (the calls,
after set-up), ``setup_s`` (median of five fresh imports of the package,
each followed by ``build_context`` for every case the workload touches),
``peak_rss_mb`` and the per-call latencies ``point_p50_ms`` and
``point_p90_ms`` (one call on the two single-call workloads).  Times are
corrected for the machine's speed during the run (see ``speed.py``); the
measured wall time and the correction factor are printed beside them.
``--trace 1`` first runs the untraced benchmark for the same seed in a
child interpreter (the reference for the tracing overhead), then repeats
the workload with call-site spans (see ``spans.py``) and prints the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Runs also
leave a record, with the spans of a traced run, in ``.perfbench_runs/``.

Correctness: every ``verify`` record must be ``ok`` with no counterexample,
every chain ``ok`` in every step, and every call must return 0.  The SHA-256
of the concatenated ``--json`` output is printed and, where
``baseline.json`` holds one for this workload and seed, must match it, so
the output stays byte-identical to the baseline commit.

Exit codes: 0 all correct; 1 a record failed or the digest differs; 2 usage
error, or no ``src/superverma`` beside the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import speed  # noqa: E402

# Copy of scripts/run_grid.py STANDARD_GRID, frozen so that the workload
# stays the same across commits; test_bench.py checks that they agree.
GRID = (
    ("B-I", "1,2", "1,2", "1,3"),
    ("B-II", "1,2", "1,2", "1..3"),
    ("D-I", "1,2", "2,3", "1,2"),
    ("D-II", "1,2", "2,3", "1,2"),
    ("F31", None, None, "1..3"),
    ("G3", None, None, "1,3"),
)
GRID_SEEDS = 3
SETUP_REPEATS = 5
WORKLOADS = ("grid", "verify-heavy", "orbit-chain")
BASELINE = HERE / "baseline.json"


def values(text):
    """Grid values as the CLI reads them: "1,3", "1..3"."""
    out = set()
    for part in text.split(","):
        lo, _, hi = part.partition("..")
        out.update(range(int(lo), int(hi or lo) + 1))
    return sorted(out)


def grid_calls(grid, seeds, checks=()):
    """One ``verify`` argv per point, in the order ``run_grid`` emits them.

    Returns the argv list and the (family, m, n) cases it touches.
    """
    calls, cases = [], []
    extra = [arg for check in checks for arg in ("--check", check)]
    for family, ms, ns, levels in grid:
        pairs = [(m, n) for m in values(ms) for n in values(ns)] if ms else [(0, 0)]
        for m, n in pairs:
            cases.append((family, m, n))
            mn = ["--m", str(m), "--n", str(n)] if ms else []
            for N in values(levels):
                for seed in seeds:
                    calls.append(["verify", "--case", family, *mn, "--N", str(N),
                                  "--seed", str(seed), *extra, "--json"])
    return calls, cases


def workload(name, seed):
    if name == "grid":
        return grid_calls(GRID, range(seed, seed + GRID_SEEDS))
    if name == "verify-heavy":
        return ([["verify", "--case", "D-II", "--m", "3", "--n", "3", "--N", "2",
                  "--seed", str(seed), "--json"]], [("D-II", 3, 3)])
    return ([["orbit", "--case", "B-I", "--m", "4", "--n", "2", "--C", "3",
              "--target", "1", "--seed", str(seed), "--json"]], [("B-I", 4, 2)])


def record_ok(rec):
    if "steps" in rec:
        return rec.get("ok") is True and all(step.get("ok") is True for step in rec["steps"])
    return rec.get("ok") is True and rec.get("counterexample") is None


def call_ok(rc, text):
    """A call passes when it returned 0 and printed only passing records."""
    if rc != 0 or not text:
        return False
    try:
        return all(record_ok(json.loads(line)) for line in text.splitlines())
    except ValueError:
        return False


def fresh_import():
    """Import the package from scratch, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "superverma" or n.startswith("superverma.")]:
        del sys.modules[name]
    return importlib.import_module("superverma.cli"), importlib.import_module("superverma.singular")


def build_contexts(singular, cases):
    """Build the context of every case; False if the package has no such step."""
    build = getattr(singular, "build_context", None)
    case_id = getattr(sys.modules["superverma.rootdata"], "CaseId", None)
    if build is None or case_id is None:
        return False
    for family, m, n in cases:
        build(case_id(family, m, n))
    return True


def run_calls(cli, calls, rec=None, clock=time.perf_counter):
    """Call ``cli.main`` once per argv; return (start, end) per call, outputs, results."""
    intervals, outputs, codes = [], [], []
    main = cli.main
    for point, argv in enumerate(calls):
        buf = io.StringIO()
        t0 = clock()
        try:
            with redirect_stdout(buf):
                if rec is None:
                    rc = main(argv)
                else:
                    rec.point = point
                    rc = rec.call("cli.main", main, (argv,), {})
        except Exception:  # a crashing point is a failed point; keep going
            traceback.print_exc()
            rc = None
        intervals.append((t0, clock()))
        outputs.append(buf.getvalue())
        codes.append(rc)
    passed = [call_ok(rc, text) for rc, text in zip(codes, outputs)]
    return intervals, "".join(outputs), passed


def percentile90(xs):
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


def machine():
    return {
        "cpu": platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


def expected_digest(name, seed):
    try:
        with open(BASELINE) as handle:
            return json.load(handle)["digests"][name].get(str(seed))
    except (OSError, KeyError, ValueError):
        return None


def untraced_wall(args):
    """wall_s of an untraced run of the same workload and seed, in a child."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    child = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, timeout=900)
    lines = child.stdout.decode().splitlines()
    if child.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])["metrics"]["wall_s"]["value"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "superverma" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'superverma'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    info = machine()
    print(f"machine: {info['cpu']}, nproc {info['nproc']}, Python {info['python']},"
          f" load {' '.join(f'{x:.2f}' for x in info['loadavg'])}")
    if info["loadavg"][0] > (info["nproc"] or 1):
        print(f"warning: load {info['loadavg'][0]:.2f} is above nproc {info['nproc']};"
              " timings will be noisy")

    untraced = untraced_wall(args) if args.trace else None
    if args.trace and untraced is None:
        print("error: the untraced reference run failed", file=sys.stderr)
        return 1

    calls, cases = workload(args.workload, args.seed)
    sampler = speed.Sampler()
    clock = sampler.clock
    sampler.start()
    try:
        rec = None
        if args.trace:
            rec = spans.Recorder(clock)
            cli, singular = fresh_import()
            spans.install(rec, lambda text: print(f"note: {text}"))
            rec.installed.add("cli.main")
            rec.point = "setup"
            t_setup = clock()
            built = build_contexts(singular, cases)
        else:
            # Set-up is the import plus every context the workload touches,
            # repeated from a fresh import; the last copy serves the work.
            setups = []
            for _ in range(SETUP_REPEATS):
                t0 = clock()
                cli, singular = fresh_import()
                built = build_contexts(singular, cases)
                setups.append((t0, clock()))
        t_work = clock()
        intervals, text, passed = run_calls(cli, calls, rec, clock)
        t_end = clock()
    finally:
        sampler.stop()
    wall = t_end - t_work
    factor = sampler.factor()

    def corrected(intervals):
        return [(t1 - t0) * sampler.factor(t0, t1) for t0, t1 in intervals]

    if not built:
        print("note: superverma.singular.build_context or rootdata.CaseId not found;"
              " contexts are built inside the timed calls")

    failed = passed.count(False)
    digest = hashlib.sha256(text.encode()).hexdigest()
    want = expected_digest(args.workload, args.seed)
    digest_ok = want is None or want == digest
    print(f"workload {args.workload} seed {args.seed}: {len(calls)} calls,"
          f" {failed} failed, output sha256 {digest}"
          + ("" if want is None else " (matches baseline)" if digest_ok else f" (baseline {want})"))
    print(f"fail_frac {failed / len(calls)} ratio")
    print(f"raw.wall_s {wall} s")
    print(f"speed.factor {factor} ratio ({len(sampler.slices)} slices,"
          f" median {statistics.median(dt for _, dt in sampler.slices or [(0, 0)]) * 1000:.3f} ms)")
    if not 0.5 * args.seconds <= wall <= 2 * args.seconds:
        print(f"note: the work took {wall:.1f} s against --seconds {args.seconds:g}")

    if args.trace:
        metrics = spans.layer_metrics(rec.spans, rec.installed, factor)
        metrics["trace.coverage"] = (spans.covered(rec.spans, t_setup, t_end) / (t_end - t_setup),
                                     spans.RATIO)
        metrics["trace.overhead_frac"] = (wall * factor / untraced - 1, spans.RATIO)
    else:
        latencies = corrected(intervals)
        metrics = {
            "wall_s": (wall * factor, "s"),
            "setup_s": (statistics.median(corrected(setups)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "point_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "point_p90_ms": (percentile90(latencies) * 1000, "ms"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")

    RUNS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": info, "sha256": digest, "failed": failed, "attempted": len(calls),
              "raw_wall_s": wall, "speed_factor": factor, "slices": sampler.slices,
              "metrics": metrics}
    if rec is not None:
        record["spans"] = rec.spans
    with open(RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump(record, handle)

    correct = failed == 0 and digest_ok
    print(json.dumps({
        "correct": correct,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
