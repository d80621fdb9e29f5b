"""Span recording and per-layer metrics for the traced benchmark run.

Wrappers go on the module and class attributes that blockpum's own code
looks up at call time (``blockpum.pum.range_search`` is the name
``pum._memberships`` calls), so calls made deep inside the library are seen
without changing it. Timed runs never install them.

A span is (id, parent, name, start, end, op, info): ``op`` is the index of
the operation it belongs to, or None during set-up; ``info`` holds counts
taken from the call's arguments and result. Spans stay in memory and are
written out once at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    t0: float
    t1: float
    op: int | None
    info: dict | None


# (span name, owner "module" or "module:Class", attribute, info from (args, kwargs, result))
TARGETS = (
    ("blockpart.build", "blockpum.pum", "build", lambda a, k, r: {"points": len(a[0])}),
    (
        "blockpart.range_search",
        "blockpum.pum",
        "range_search",
        lambda a, k, r: {"candidates": int(r.candidates), "hits": len(r.indices)},
    ),
    ("pum.local_solve", "blockpum.pum", "local_solve", lambda a, k, r: {"n": len(a[0])}),
    ("pum.predict", "blockpum.pum:PumModel", "predict", lambda a, k, r: {"points": len(r)}),
    ("kernels.call", "blockpum.kernels:Kernel", "__call__", lambda a, k, r: {"entries": int(np.size(r))}),
    ("kernels.sparse_distance_matrix", "blockpum.pum", "sparse_distance_matrix", None),
    ("geometry.convex_hull", "blockpum.pum", "convex_hull", None),
    (
        "geometry.fill_distance",
        "blockpum.pum",
        "fill_distance",
        lambda a, k, r: {"pairs": len(a[0]) * len(a[1])},
    ),
    ("reconstruct.augment", "blockpum.reconstruct", "augment", lambda a, k, r: {"points": len(r)}),
    (
        "io.write_value_grid",
        "blockpum.io",
        "write_value_grid",
        lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    ),
)

_ABSENT = object()


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Tracer:
    """Installs the wrappers and collects spans of one benchmark process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[str] = set()  # wrap targets that no longer exist
        self.op: int | None = None
        self._root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, info_fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # calls on worker threads hang off the operation that started them
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            info = None
            if info_fn is not None:
                try:
                    info = info_fn(args, kwargs, result)
                except (IndexError, TypeError, AttributeError, OSError):
                    info = None  # signature changed: keep the span, drop its counts
            tracer.spans.append(Span(sid, parent, name, t0, t1, tracer.op, info))
            return result

        return wrapper

    def install(self) -> None:
        for name, owner, attr, info_fn in TARGETS:
            obj = _resolve(owner)
            fn = getattr(obj, attr, None) if obj is not None else None
            if not callable(fn):
                self.missing.add(name)
                continue
            self._saved.append((obj, attr, vars(obj).get(attr, _ABSENT)))
            setattr(obj, attr, self._wrap(name, fn, info_fn))

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            if original is _ABSENT:
                delattr(obj, attr)
            else:
                setattr(obj, attr, original)

    @contextlib.contextmanager
    def recording(self, op: int | None):
        """Install the wrappers and record spans of one operation (or set-up)."""
        self.op = op
        self._root = next(self._ids)
        stack = self._stack()
        stack.append(self._root)
        self.install()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.uninstall()
            stack.pop()
            self.spans.append(Span(self._root, None, "op" if op is not None else "setup", t0, t1, op, None))
            self._root = None
            self.op = None

    def write(self, path, header: dict) -> None:
        base = min((s.t0 for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(header, fh)
            fh.write("\n")
            for s in self.spans:
                row = [s.id, s.parent, s.name, round(s.t0 - base, 9), round(s.t1 - base, 9), s.op, s.info]
                fh.write(json.dumps(row) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.t0
        for c0, c1 in sorted(children.get(s.id, ())):
            c0, c1 = max(c0, reach), min(c1, s.t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[s.id] = (s.t1 - s.t0) - covered
    return out


# metric name prefix -> span it is derived from, to mark metrics whose wrap target vanished
SOURCES = {
    "blockpart.build": "blockpart.build",
    "blockpart.points_indexed": "blockpart.build",
    "blockpart.search": "blockpart.range_search",
    "blockpart.candidates": "blockpart.range_search",
    "blockpart.hit": "blockpart.range_search",
    "pum.local_": "pum.local_solve",
    "pum.sparse_solve_calls": "pum.local_solve",
    "pum.factor_flops": "pum.local_solve",
    "pum.kernel_matrix_bytes": "pum.local_solve",
    "pum.solve_parallelism": "pum.local_solve",
    "pum.predict": "pum.predict",
    "kernels.calls": "kernels.call",
    "kernels.entries": "kernels.call",
    "kernels.eval_s": "kernels.call",
    "kernels.sparse": "kernels.sparse_distance_matrix",
    "geometry.hull": "geometry.convex_hull",
    "geometry.fill": "geometry.fill_distance",
    "reconstruct.augment": "reconstruct.augment",
    "io.": "io.write_value_grid",
}


def not_observed(metric: str, missing: set) -> bool:
    return any(metric.startswith(prefix) and span in missing for prefix, span in SOURCES.items())


def layer_metrics(tracer: Tracer, ops: list) -> dict:
    """Per-operation means of the per-layer metrics over the traced operations.

    ``ops`` holds one (op index, wall seconds, Outcome, workload counts)
    tuple per traced operation that passed its check.
    """
    n = len(ops)
    kept = {op for op, _, _, _ in ops}
    ops = [(wall, o, c) for _, wall, o, c in ops]
    spans = [s for s in tracer.spans if s.op in kept]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name]) / n

    def secs(name):
        return sum(s.t1 - s.t0 for s in by_name[name]) / n

    def total(name, key):
        return sum(s.info.get(key, 0) for s in by_name[name] if s.info) / n

    def ratio(a, b):
        return a / b if b else 0.0

    def timing(key):
        return sum(o.report.timings.get(key, 0.0) for _, o, _ in ops if o.report is not None) / n

    points = sum(o.points for _, o, _ in ops) / n
    sizes = [s.info["n"] for s in by_name["pum.local_solve"] if s.info]
    solve_self = self_times(by_name["pum.local_solve"] + by_name["kernels.call"])
    t_solve = timing("t_solve_s")
    fitted = sum(o.model.covering.d for _, o, _ in ops if o.fitted) / n

    m = {
        "blockpart.build_calls": calls("blockpart.build"),
        "blockpart.build_s": secs("blockpart.build"),
        "blockpart.points_indexed": total("blockpart.build", "points"),
        "blockpart.search_calls": calls("blockpart.range_search"),
        "blockpart.search_s": secs("blockpart.range_search"),
        "blockpart.candidates": total("blockpart.range_search", "candidates"),
        "blockpart.hits": total("blockpart.range_search", "hits"),
        "blockpart.hit_ratio": ratio(
            total("blockpart.range_search", "hits"), total("blockpart.range_search", "candidates")
        ),
        "blockpart.searches_per_point": ratio(calls("blockpart.range_search"), points),
        "pum.subdomains": sum(o.model.covering.d for _, o, _ in ops) / n,
        "pum.pruned": sum(o.model.covering.n_pruned for _, o, _ in ops) / n,
        "pum.local_solve_calls": calls("pum.local_solve"),
        "pum.sparse_solve_calls": max(0.0, fitted - calls("pum.local_solve")),
        "pum.local_solve_s": secs("pum.local_solve"),
        "pum.local_solve_self_s": sum(solve_self[s.id] for s in by_name["pum.local_solve"]) / n,
        "pum.local_size_mean": float(np.mean(sizes)) if sizes else 0.0,
        "pum.local_size_max": float(max(sizes, default=0)),
        "pum.factor_flops": sum(k**3 / 3.0 for k in sizes) / n,
        "pum.kernel_matrix_bytes": sum(8.0 * k * k for k in sizes) / n,
        "pum.solve_parallelism": ratio(secs("pum.local_solve"), t_solve),
        "pum.predict_calls": calls("pum.predict"),
        "pum.predict_s": secs("pum.predict"),
        "pum.t_structure_s": timing("t_structure_s"),
        "pum.t_search_s": timing("t_search_s"),
        "pum.t_solve_s": t_solve,
        "pum.t_eval_s": timing("t_eval_s"),
        "pum.report_s": sum(
            wall - o.report.timings.get("t_total_s", 0.0) for wall, o, _ in ops if o.report is not None
        )
        / n,
        "kernels.calls": calls("kernels.call"),
        "kernels.entries": total("kernels.call", "entries"),
        "kernels.eval_s": secs("kernels.call"),
        "kernels.sparse_calls": calls("kernels.sparse_distance_matrix"),
        "kernels.sparse_s": secs("kernels.sparse_distance_matrix"),
        "geometry.hull_s": secs("geometry.convex_hull"),
        "geometry.hull_calls": calls("geometry.convex_hull"),
        "geometry.fill_distance_s": secs("geometry.fill_distance"),
        "geometry.fill_pairs": total("geometry.fill_distance", "pairs"),
        "reconstruct.augment_s": secs("reconstruct.augment"),
        "reconstruct.augmented_points": total("reconstruct.augment", "points"),
        "io.write_s": secs("io.write_value_grid"),
        "io.bytes_written": total("io.write_value_grid", "bytes"),
    }
    # values only the workload can see (grid size, fallback share)
    for key in ("reconstruct.grid_points", "reconstruct.nearest_share"):
        m[key] = sum(c.get(key, 0.0) for _, _, c in ops) / n
    return m


def setup_summary(tracer: Tracer) -> dict:
    """Calls and seconds per span name inside the traced set-up."""
    out = defaultdict(lambda: [0, 0.0])
    for s in tracer.spans:
        if s.op is None and s.parent is not None:
            out[s.name][0] += 1
            out[s.name][1] += s.t1 - s.t0
    return dict(out)
