"""Outside-in tracing of one in-process CLI call.

Wrappers are installed from here, never inside the package: each public
function is replaced where its caller looks it up (`thsynergy.cli.build_cube`
and `thsynergy.decomp.build_cube` are separate bindings). Layer functions get
a span; per-row functions get a counter only. A binding that no longer exists
is skipped, so its metrics read 0 instead of the run failing.

Spans are `[name, start, end, parent_id, run_id]` lists kept in memory and
written out once by the caller.
"""
from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

# (module, attribute, span name); the module is where the caller looks the name up
SPANS = (
    ("thsynergy.cli", "validate_firm_csv", "ingest.validate"),
    ("thsynergy.cli", "parse_firm_records", "ingest.parse"),
    ("thsynergy.cli", "classify_all", "ingest.classify_all"),
    ("thsynergy.cli", "build_cube", "cube.build"),
    ("thsynergy.decomp", "build_cube", "cube.build"),
    ("thsynergy.decomp", "marginalize", "cube.marginalize"),
    ("thsynergy.infotheory", "marginalize", "cube.marginalize"),
    ("thsynergy.stats", "marginalize", "cube.marginalize"),
    ("thsynergy.cli", "entropy_profile", "infotheory.profile"),
    ("thsynergy.decomp", "decompose", "decomp.decompose"),
    ("thsynergy.cli", "region_report", "decomp.report"),
    ("thsynergy.synthlab", "region_report", "decomp.report"),
    ("thsynergy.cli", "chi_square_homogeneity", "stats.chisq"),
    ("thsynergy.cli", "sweep_foreign_share", "synthlab.sweep"),
    ("thsynergy.synthlab", "generate", "synthlab.generate"),
)
COUNTERS = (
    ("thsynergy.ingest", "classify", "ingest.classify"),
)
ROOT = "cli.main"


class Tracer:
    """Spans, call counts and a few result facts for traced calls."""

    def __init__(self, run_id: str = ""):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.facts: dict = {}
        self.cubes: list = []
        self.run_id = run_id
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in SPANS:
            self._patch(module_name, attr, functools.partial(self._spanned, name=name))
        for module_name, attr, name in COUNTERS:
            self._patch(module_name, attr, functools.partial(self._counted, name=name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _patch(self, module_name: str, attr: str, make) -> None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return
        original = getattr(module, attr, None)
        if original is None:
            return
        setattr(module, attr, make(original))
        self._patched.append((module, attr, original))

    def _counted(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _spanned(self, fn, name: str):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._note(name, result)
            return result
        return spanned

    # --- recording ----------------------------------------------------------

    def span(self, name: str):
        return _Span(self, name)

    def _note(self, name: str, result) -> None:
        """Keep the result facts the per-layer metrics need; cubes are measured afterwards."""
        if name == "ingest.validate" and isinstance(result, tuple) and len(result) == 2:
            self.facts["rows"] = result[0]
            self.facts["issues"] = len(result[1])
        elif name == "ingest.parse" and isinstance(result, list):
            self.facts.setdefault("rows", len(result))
        elif name == "cube.build":
            self.cubes.append(result)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        stack = tracer._stack
        self.record = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.run_id]

    def __enter__(self):
        tracer = self.tracer
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        tracer.counts[self.record[0]] += 1
        self.record[1] = perf_counter()
        return self.record

    def __exit__(self, *exc):
        self.record[2] = perf_counter()
        self.tracer._stack.pop()
        return False


def _occupied_cells(cube) -> int:
    try:
        return len(cube.domestic.keys() | cube.foreign.keys())
    except AttributeError:
        return 0


# --- derived metrics --------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered(children.get(i, []))
        for i, (name, start, end, parent, _) in enumerate(spans)
    ]


def layer_metrics(tracer: Tracer, untraced_s: float, import_s: float) -> dict[str, float]:
    """Per-layer values for one traced call rooted at a `cli.main` span."""
    spans = tracer.spans
    own = self_times(spans)
    total: Counter = Counter()
    self_total: Counter = Counter()
    for (name, start, end, _, _), self_s in zip(spans, own):
        total[name] += end - start
        self_total[name] += self_s
    roots = [i for i, s in enumerate(spans) if s[0] == ROOT]
    root_s = sum(spans[i][2] - spans[i][1] for i in roots)
    top = [(s[1], s[2]) for s in spans if s[3] in roots]
    counts = tracer.counts
    rows = tracer.facts.get("rows", 0)
    return {
        "ingest.validate_s": total["ingest.validate"],
        "ingest.parse_s": total["ingest.parse"],
        "ingest.classify_s": total["ingest.classify_all"],
        "ingest.scans_per_run": counts["ingest.validate"] + counts["ingest.parse"],
        "ingest.classify_per_row": counts["ingest.classify"] / rows if rows else 0.0,
        "ingest.rows": rows,
        "ingest.issues": tracer.facts.get("issues", 0),
        "cube.build_s": total["cube.build"],
        "cube.build_calls": counts["cube.build"],
        "cube.marginalize_s": total["cube.marginalize"],
        "cube.marginalize_calls": counts["cube.marginalize"],
        "cube.occupied_cells": max(map(_occupied_cells, tracer.cubes), default=0),
        "infotheory.profile_s": total["infotheory.profile"],
        "decomp.decompose_self_s": self_total["decomp.decompose"],
        "decomp.report_self_s": self_total["decomp.report"],
        "decomp.decompose_calls": counts["decomp.decompose"],
        "stats.chisq_s": total["stats.chisq"],
        "synthlab.generate_s": total["synthlab.generate"],
        "synthlab.generate_calls": counts["synthlab.generate"],
        "cli.import_s": import_s,
        "cli.self_s": self_total[ROOT],
        "trace.overhead_s": root_s - untraced_s,
        "trace.coverage": _covered(top) / root_s if root_s > 0 else 0.0,
    }
