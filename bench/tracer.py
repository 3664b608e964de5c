"""Span tracing around fibercert's public layer functions.

The tracer replaces a function in every fibercert module namespace that
binds it (``pipeline`` imports ``deep_point`` by name, ``lattice`` calls
``geometry.point_hull_dist2`` through the module), so calls made inside the
library are traced too.  Each span records its name, start, end and parent;
spans stay in memory until the job ends.  The program itself is unchanged.
"""

from __future__ import annotations

import gzip
import json
import resource
import sys
from collections import defaultdict
from time import perf_counter

from fibercert.errors import BudgetError

# (module, function) pairs that get a span; the metric prefix is
# "<module>.<function>".
TRACED = [
    ("lattice", "deep_point"), ("lattice", "systole"), ("lattice", "perp_basis"),
    ("trackmap", "oracle_iterate"), ("trackmap", "support_of_power"),
    ("trackmap", "omega_of_word"), ("laurent", "mat_pow"),
    ("geometry", "convex_hull"), ("geometry", "hulls_disjoint"),
    ("geometry", "point_hull_dist2"),
    ("pipeline", "enumerate_words"), ("pipeline", "certify"),
    ("pipeline", "verify_certificate"),
    ("cones", "estimate_dual_cone"), ("cones", "fibered_cone_from_dual"),
    ("cones", "epsilon_of_subcone"),
    ("dataio", "load_dataset"), ("dataio", "dataset_hash"),
    ("dataio", "emit_certificate"), ("dataio", "parse_certificate"),
]

# Counts beyond calls and self time, per traced function.
EXTRA_COUNTS = {
    "lattice.deep_point": ("grid_points", "obstacles", "minflt", "sys_s"),
    "trackmap.oracle_iterate": ("budget_exhausted", "useful_ratio"),
    "trackmap.support_of_power": ("points",),
    "geometry.convex_hull": ("points_in",),
    "pipeline.enumerate_words": ("words",),
}


def _call(counts, fn, args, kwargs):
    return fn(*args, **kwargs)


def _deep_point(counts, fn, args, kwargs):
    obstacles, R, rank = args  # certify passes all three positionally
    counts["grid_points"] += (2 * R + 1) ** rank
    counts["obstacles"] += len(obstacles)
    before = resource.getrusage(resource.RUSAGE_SELF)
    try:
        return fn(*args, **kwargs)
    finally:
        after = resource.getrusage(resource.RUSAGE_SELF)
        counts["minflt"] += after.ru_minflt - before.ru_minflt
        counts["sys_s"] += after.ru_stime - before.ru_stime


def _oracle_iterate(counts, fn, args, kwargs):
    try:
        result = fn(*args, **kwargs)
    except BudgetError:
        counts["budget_exhausted"] += 1
        raise
    counts["completed"] += 1
    return result


def _support_of_power(counts, fn, args, kwargs):
    result = fn(*args, **kwargs)
    counts["points"] += len(result.points)
    return result


def _convex_hull(counts, fn, args, kwargs):
    points, rest = args[0], args[1:]  # every caller passes the points positionally
    if not hasattr(points, "__len__"):
        points = list(points)
    counts["points_in"] += len(points)
    return fn(points, *rest, **kwargs)


def _enumerate_words(counts, fn, args, kwargs):
    result = fn(*args, **kwargs)
    counts["words"] += len(result)
    return result


PROBES = {
    "lattice.deep_point": _deep_point,
    "trackmap.oracle_iterate": _oracle_iterate,
    "trackmap.support_of_power": _support_of_power,
    "geometry.convex_hull": _convex_hull,
    "pipeline.enumerate_words": _enumerate_words,
}


class Tracer:
    """Collects spans and counts for one worker job."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, defaultdict] = {}
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every traced function in every fibercert namespace binding it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "fibercert" or name.startswith("fibercert."))]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"fibercert.{module_name}"], func_name)
            wrapped = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                if getattr(module, func_name, None) is original:
                    setattr(module, func_name, wrapped)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counts = self.counts.setdefault(name, defaultdict(int))
        probe = PROBES.get(name, _call)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return probe(counts, fn, args, kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Per-function self time, calls and extra counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        out: dict[str, float] = {}
        for module_name, func_name in TRACED:
            name = f"{module_name}.{func_name}"
            counts = self.counts.get(name, {})
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
            for extra in EXTRA_COUNTS.get(name, ()):
                if extra == "useful_ratio":
                    done = counts.get("completed", 0)
                    out[f"{name}.{extra}"] = done / calls[name] if calls[name] else 0.0
                else:
                    out[f"{name}.{extra}"] = counts.get(extra, 0)
        return out

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, start, end]) + "\n")
