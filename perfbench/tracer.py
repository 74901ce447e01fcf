"""Per-layer tracing from outside the program.

``Tracer.install`` wraps chosen latcut functions.  A function imported by
name (``from .geometry import homothety``) is bound in several module
namespaces, so each wrapper replaces every binding found in a ``latcut.*``
module or class.  Spans are kept per thread, since ``run_scenario`` runs its
checks on a thread pool; each records wall time and ``time.thread_time``.
Self time is a span's duration minus that of its traced children.
"""

from __future__ import annotations

import gzip
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, attribute, kind, extras) -- kind "span" records spans, "count"
# only counts calls (for functions too small or too frequent to time).
TARGETS = [
    ("linalg", "dot", "count", ()),
    ("linalg", "primitive", "span", ()),
    ("linalg", "rank", "span", ()),
    ("linalg", "solve", "span", ()),
    ("linalg", "inverse", "span", ()),
    ("linalg", "alignment_unimodular", "span", ()),
    ("geometry", "cone_dd", "span", ("rows_in", "rays_out")),
    ("geometry", "Polyhedron.from_generators", "span", ()),
    ("geometry", "Polyhedron.from_halfspaces", "span", ()),
    ("geometry", "affine_image", "span", ()),
    ("geometry", "homothety", "count", ()),
    ("geometry", "Polyhedron.contains", "span", ()),
    ("geometry", "polar", "span", ("distinct_ratio",)),
    ("geometry", "hausdorff_sq", "span", ()),
    ("geometry", "squared_distance_point", "span", ()),
    ("simplex", "solve_ineq", "span", ("rows_in",)),
    ("lattice", "interior_lattice_point", "span", ("found_ratio",)),
    ("lattice", "facet_interior_lattice_point", "span", ("hit_ratio",)),
    ("lattice", "certify_lattice_free", "span", ("distinct_ratio",)),
    ("lattice", "lattice_width", "span", ()),
    ("cuts", "gauge", "span", ()),
    ("cuts", "intersection_cut", "span", ()),
    ("cuts", "f_metric", "span", ("distinct_ratio",)),
    ("strength", "relative_strength", "span", ()),
    ("strength", "sandwich", "span", ()),
    ("strength", "find_covering_body", "span", ()),
    ("constructions", "cube_face_construction", "span", ("distinct_ratio",)),
    ("constructions", "approximate_any_f", "span", ()),
    ("constructions", "approximate_fixed_f", "span", ()),
    ("constructions", "lift_to_nplus1", "span", ()),
    ("constructions", "simplex_tower", "span", ()),
    ("constructions", "truncated_cone_shrink", "span", ()),
    ("jsonio", "parse_polyhedron", "span", ()),
    ("jsonio", "parse_columns", "span", ()),
    ("jsonio", "polyhedron_to_obj", "span", ()),
    ("jsonio", "emit_cut_system", "span", ()),
    ("jsonio", "emit_strength_report", "span", ()),
    ("cli", "main", "span", ()),
    ("scenarios", "run_scenario", "span", ()),
]

MODULES = ("linalg", "geometry", "simplex", "lattice", "cuts", "strength",
           "constructions", "jsonio", "cli", "scenarios")

UNITS = {"calls": "count", "self_s": "s", "busy_s": "s", "rows_in": "count",
         "rays_out": "count", "distinct_ratio": "ratio", "found_ratio": "ratio",
         "hit_ratio": "ratio", "overhead_s": "s"}

def metric_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def metric_names() -> list:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for module, attr, kind, extras in TARGETS:
        base = metric_name(module, attr)
        names.append(f"{base}.calls")
        if kind == "span":
            names.append(f"{base}.self_s")
        names.extend(f"{base}.{e}" for e in extras)
    for module in MODULES:
        names += [f"{module}.self_s", f"{module}.busy_s"]
    names.append("trace.overhead_s")
    return names


@dataclass(slots=True)
class _Span:
    name: str
    parent: str | None
    start: float
    end: float
    self_s: float
    self_cpu_s: float


class _ThreadLog:
    def __init__(self, index: int):
        self.index = index
        self.stack = []                  # [name, child wall, child cpu]
        self.spans = []
        self.counts = defaultdict(int)
        self.sums = defaultdict(int)     # (name, extra) -> running total
        self.keys = defaultdict(set)     # name -> distinct argument keys


_EXTRAS = {
    # extra -> (what to add to the running total, given args and result)
    "rows_in": lambda args, res: len(args[0]),
    "rays_out": lambda args, res: len(res[1]),
    "found_ratio": lambda args, res: res is not None,
    "hit_ratio": lambda args, res: res is not None,
}


class Tracer:
    """Wraps the TARGETS functions while installed; collects spans."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs = []
        self._patches = []

    # -- per-thread state --------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
        return log

    # -- wrappers ------------------------------------------------------------

    def _counter(self, name, fn):
        log_of = self._log

        def counted(*args, **kwargs):
            log_of().counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _spanner(self, name, fn, extras):
        log_of = self._log
        perf, cpu = time.perf_counter, time.thread_time
        sums = [(e, _EXTRAS[e]) for e in extras if e in _EXTRAS]
        distinct = "distinct_ratio" in extras

        def spanned(*args, **kwargs):
            log = log_of()
            stack = log.stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            t0, c0 = perf(), cpu()
            try:
                res = fn(*args, **kwargs)
            finally:
                c1, t1 = cpu(), perf()
                stack.pop()
                wall, busy = t1 - t0, c1 - c0
                if stack:
                    stack[-1][1] += wall
                    stack[-1][2] += busy
                log.spans.append(_Span(name, parent, t0, t1,
                                       wall - frame[1], busy - frame[2]))
            for extra, value in sums:
                log.sums[(name, extra)] += value(args, res)
            if distinct:
                try:
                    log.keys[name].add(args)
                except TypeError:          # unhashable arguments
                    log.keys[name].add(repr(args))
            return res
        return spanned

    # -- installation ------------------------------------------------------

    def install(self):
        """Replace every latcut binding of each target by its wrapper.

        A target the program no longer defines is skipped and reads as
        never called, so a refactor that removes a function still traces.
        """
        mods = {n: m for n, m in sys.modules.items()
                if n == "latcut" or n.startswith("latcut.")}
        for module, attr, kind, extras in TARGETS:
            name = metric_name(module, attr)
            owner = mods.get(f"latcut.{module}")
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part, None)
            raw = None if owner is None else vars(owner).get(attr.rsplit(".", 1)[-1])
            if raw is None:
                continue
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapper = (self._counter(name, fn) if kind == "count"
                       else self._spanner(name, fn, extras))
            for ns in _namespaces(mods.values()):
                for key, val in list(vars(ns).items()):
                    if val is fn:
                        self._patch(ns, key, val, wrapper)
                    elif isinstance(val, staticmethod) and val.__func__ is fn:
                        self._patch(ns, key, val, staticmethod(wrapper))

    def _patch(self, ns, key, old, new):
        self._patches.append((ns, key, old))
        setattr(ns, key, new)

    def uninstall(self):
        while self._patches:
            ns, key, old = self._patches.pop()
            setattr(ns, key, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def check_threads(self):
        """Reasons a thread's self times exceed its wall span (none if sane)."""
        bad = []
        for log in self._logs:
            if not log.spans:
                continue
            wall = max(s.end for s in log.spans) - min(s.start for s in log.spans)
            total = sum(s.self_s for s in log.spans)
            if total > wall + 1e-6:
                bad.append(f"thread {log.index}: self {total:.6f}s > wall {wall:.6f}s")
            if log.stack:
                bad.append(f"thread {log.index}: {len(log.stack)} spans left open")
        return bad

    def metrics(self, loads: int) -> dict:
        """Per-layer values per fixed load, given how many loads ran traced."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        busy_s = defaultdict(float)
        sums = defaultdict(int)
        keys = defaultdict(set)
        for log in self._logs:
            for s in log.spans:
                calls[s.name] += 1
                self_s[s.name] += s.self_s
                busy_s[s.name] += s.self_cpu_s
            for k, v in log.counts.items():
                calls[k] += v
            for k, v in log.sums.items():
                sums[k] += v
            for k, v in log.keys.items():
                keys[k] |= v
        out = {}
        for module, attr, kind, extras in TARGETS:
            name = metric_name(module, attr)
            n = calls[name]
            out[f"{name}.calls"] = n / loads
            if kind == "span":
                out[f"{name}.self_s"] = self_s[name] / loads
            for extra in extras:
                if extra == "distinct_ratio":
                    value = len(keys[name]) / n if n else 0.0
                elif extra.endswith("_ratio"):
                    value = sums[(name, extra)] / n if n else 0.0
                else:
                    value = sums[(name, extra)] / loads
                out[f"{name}.{extra}"] = value
        for module in MODULES:
            out[f"{module}.self_s"] = sum(
                v for k, v in self_s.items() if k.startswith(module + ".")) / loads
            out[f"{module}.busy_s"] = sum(
                v for k, v in busy_s.items() if k.startswith(module + ".")) / loads
        return out

    def write_spans(self, path):
        """Every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for log in self._logs:
                for s in log.spans:
                    fh.write(json.dumps({
                        "thread": log.index, "name": s.name, "parent": s.parent,
                        "start": s.start, "end": s.end, "self_s": s.self_s,
                        "self_cpu_s": s.self_cpu_s}) + "\n")


def _namespaces(modules):
    """Every latcut module and every class defined in one, once each."""
    seen = set()
    for mod in modules:
        classes = [v for v in vars(mod).values()
                   if isinstance(v, type) and v.__module__.startswith("latcut")]
        for ns in [mod] + classes:
            if id(ns) not in seen:
                seen.add(id(ns))
                yield ns
