"""Call-site spans for the traced benchmark run.

The package is not instrumented: the benchmark replaces the public
functions of each layer with timing wrappers from the outside.  ``cli``,
``singular`` and ``verma`` import ``act``, ``is_singular``, ``candidate_u``
and friends by name, so a wrapper is installed on every ``superverma``
module attribute bound to the original function, not only on the defining
module.  ``PBWEngine`` methods are wrapped on the class.  The recursive
``PBWEngine.mono_times_gen`` is left alone: one span per straightening step
would cost more than the step.

Spans are kept in memory as ``[name, start, end, parent, point, size]``
lists (``parent`` is an index into the span list, ``size`` a term count
where the layer has one) and written out by the caller when the run ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (span name, defining module, attribute, term count of the result or None)
FUNCTIONS = (
    ("verma.act", "verma", "act", lambda v: len(v.body)),
    ("verma.is_singular", "verma", "is_singular", None),
    ("singular.build_context", "singular", "build_context", None),
    ("singular.candidate_u", "singular", "candidate_u", lambda v: len(v.body)),
    ("singular.run_witness", "singular", "run_witness", None),
    ("singular.propagate_chain", "singular", "propagate_chain", None),
    ("singular.orbit_propagate", "singular", "orbit_propagate", lambda r: len(r[0].theta)),
    ("rootdata.build_algebra_data", "rootdata", "build_algebra_data", None),
    (
        "superalgebra.build_structure_constants",
        "superalgebra",
        "build_structure_constants",
        None,
    ),
)

# (span name, PBWEngine method, term count of the result or None)
METHODS = (
    ("pbw.multiply", "multiply", len),
    ("pbw.import_element", "import_element", None),
    ("pbw.right_divide", "right_divide", None),
)

# A candidate_u call with a permutation is one sign-flip rebuild.
SIGNFLIP = "singular.signflip"

# pbw.multiply is reported per calling layer.
MULTIPLY_CALLERS = {
    "verma.act": "by_act",
    "singular.orbit_propagate": "by_lift",
    "pbw.right_divide": "by_divide",
}

S, COUNT, RATIO = "s", "count", "ratio"
NAME, START, END, PARENT, POINT, SIZE = range(6)


class Recorder:
    """In-memory span stack for a single-threaded run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self.installed = set()
        self.point = None
        self._stack: List[int] = []

    def call(self, name: str, fn: Callable, args, kwargs, size: Optional[Callable] = None):
        span = [name, self.clock(), None, self._stack[-1] if self._stack else None,
                self.point, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            span[END] = self.clock()
            self._stack.pop()
        if size is not None:
            try:
                span[SIZE] = size(out)
            except (AttributeError, TypeError, IndexError):
                pass  # the result changed shape; its term count drops out
        return out


def _function_wrapper(rec: Recorder, name: str, fn: Callable, size) -> Callable:
    if name != "singular.candidate_u":
        def wrapper(*args, **kwargs):
            return rec.call(name, fn, args, kwargs, size)
        return wrapper
    signature = inspect.signature(fn)

    def candidate_wrapper(*args, **kwargs):
        perm = signature.bind(*args, **kwargs).arguments.get("perm")
        return rec.call(name if perm is None else SIGNFLIP, fn, args, kwargs, size)
    return candidate_wrapper


def _method_wrapper(rec: Recorder, name: str, fn: Callable, size) -> Callable:
    def wrapper(self, *args, **kwargs):
        return rec.call(name, fn, (self,) + args, kwargs, size)
    return wrapper


def install(rec: Recorder, note: Callable[[str], None]) -> List[Tuple[object, str, object]]:
    """Wrap every layer entry point that exists; return what to restore.

    A name that is gone (renamed or removed by a refactor) is reported
    through ``note`` and skipped; its layer metrics drop out of the report.
    """
    modules = {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "superverma" or name.startswith("superverma."))
    }
    patches = []
    for span_name, module, attr, size in FUNCTIONS:
        fn = getattr(modules.get("superverma." + module), attr, None)
        if not callable(fn):
            note(f"superverma.{module}.{attr} not found; {span_name} is not traced")
            continue
        wrapper = _function_wrapper(rec, span_name, fn, size)
        rec.installed.add(span_name)
        if span_name == "singular.candidate_u":
            rec.installed.add(SIGNFLIP)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    patches.append((mod, key, value))
                    setattr(mod, key, wrapper)
    engine = getattr(modules.get("superverma.pbw"), "PBWEngine", None)
    for span_name, attr, size in METHODS:
        fn = getattr(engine, attr, None)
        if not callable(fn):
            note(f"PBWEngine.{attr} not found; {span_name} is not traced")
            continue
        rec.installed.add(span_name)
        patches.append((engine, attr, fn))
        setattr(engine, attr, _method_wrapper(rec, span_name, fn, size))
    return patches


def uninstall(patches) -> None:
    for owner, attr, value in reversed(patches):
        setattr(owner, attr, value)


def covered(spans, lo: float, hi: float) -> float:
    """Time in [lo, hi] covered by top-level spans."""
    total = 0.0
    for span in spans:
        if span[PARENT] is None:
            total += max(0.0, min(span[END], hi) - max(span[START], lo))
    return total


def layer_metrics(spans, installed, factor: float = 1.0) -> Dict[str, Tuple[float, str]]:
    """Per-layer self time, call and term counts from a finished span list.

    Self time is a span's duration minus the durations of its children;
    spans of one thread nest, so the children never overlap.  ``installed``
    names the spans that were wrapped: a layer that was wrapped but not
    called on this workload reports zeros, one that could not be wrapped
    is left out.  Times are multiplied by ``factor``.
    """
    self_time = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] is not None:
            self_time[span[PARENT]] -= span[END] - span[START]
    agg: Dict[str, List[float]] = {}  # key -> [self_s, calls, terms, total_s]
    for i, span in enumerate(spans):
        key = span[NAME]
        if key == "pbw.multiply":
            parent = spans[span[PARENT]][NAME] if span[PARENT] is not None else None
            if parent not in MULTIPLY_CALLERS:
                continue
            key = f"pbw.multiply.{MULTIPLY_CALLERS[parent]}"
        row = agg.setdefault(key, [0.0, 0, 0, 0.0])
        row[0] += self_time[i] * factor
        row[1] += 1
        row[2] += span[SIZE] or 0
        row[3] += (span[END] - span[START]) * factor

    def row(key):
        return agg.get(key, [0.0, 0, 0, 0.0])

    out: Dict[str, Tuple[float, str]] = {}
    if "pbw.multiply" in installed:
        for caller in MULTIPLY_CALLERS.values():
            self_s, calls, terms, _ = row(f"pbw.multiply.{caller}")
            out[f"pbw.multiply.{caller}.self_s"] = (self_s, S)
            out[f"pbw.multiply.{caller}.calls"] = (calls, COUNT)
            out[f"pbw.multiply.{caller}.out_terms"] = (terms, COUNT)
    for key in ("pbw.import_element", "pbw.right_divide", "rootdata.build_algebra_data",
                "superalgebra.build_structure_constants", "cli.main"):
        if key in installed:
            out[f"{key}.self_s"] = (row(key)[0], S)
    if "verma.act" in installed:
        self_s, calls, terms, _ = row("verma.act")
        out["verma.act.self_s"] = (self_s, S)
        out["verma.act.calls"] = (calls, COUNT)
        out["verma.act.out_terms"] = (terms, COUNT)
        if "pbw.multiply" in installed:
            produced = row("pbw.multiply.by_act")[2]
            out["verma.act.useful_ratio"] = (terms / produced if produced else 0.0, RATIO)
    for key in ("verma.is_singular", "singular.candidate_u", SIGNFLIP,
                "singular.run_witness", "singular.orbit_propagate"):
        if key in installed:
            out[f"{key}.self_s"] = (row(key)[0], S)
            out[f"{key}.calls"] = (row(key)[1], COUNT)
    if SIGNFLIP in installed:
        out[f"{SIGNFLIP}.total_s"] = (row(SIGNFLIP)[3], S)
    if "singular.candidate_u" in installed:
        out["singular.u_terms"] = (row("singular.candidate_u")[2], COUNT)
    if "singular.orbit_propagate" in installed:
        out["singular.theta_terms"] = (row("singular.orbit_propagate")[2], COUNT)
    return out
