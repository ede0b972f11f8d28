"""Spans around the calls into each newtoncert module, recorded from outside.

Every public function of a layer is wrapped in each module namespace that
holds it (``from .polytope import lattice_points`` binds a second name in
stencil), so a call is seen whichever module makes it.  A span is named
after the namespace the call went through; calls, self time and counters
are summed per function under its home layer.  Self time is a span's
duration minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from itertools import combinations
from math import comb
from time import perf_counter

# home module -> public functions wrapped; "_linalg" is reported as "linalg".
# gaussian is left out: its per-scalar calls would swamp the trace.
LAYERS = {
    "polytope": ("lattice_points", "contains_point", "reduce_to_vertices",
                 "newton_polyhedron", "minimal_subpolytope"),
    "lp": ("solve_eq_nonneg",),
    "_linalg": ("solve_unique", "matrix_rank", "nullspace_vector"),
    "stencil": ("certify", "stencil_of", "find_matching", "min_vertex_cover",
                "separating_halfspace", "sample_entries", "sample_generic_form"),
    "poly": ("parse_polynomial", "integer_determinant", "determinant"),
    "kouchnirenko": ("milnor_number", "under_diagram_region", "volumes"),
    "morse": ("classify_support", "quadratic_restriction"),
    "cli": ("run",),
}

SPAN_CAP = 100_000  # spans kept for the trace file; totals count every call


def layer_name(module_name):
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def vertex_subsets(n, verts):
    """Sum over coordinate subspaces I of C(V_I, |I|): the m-subsets of
    vertices the facet enumeration visits.  Computed, not counted."""
    total = 0
    for m in range(1, n + 1):
        for axes in combinations(range(n), m):
            v = sum(1 for p in verts if all(p[k] == 0 for k in range(n) if k not in axes))
            total += comb(v, m)
    return total


def _observe_lattice_points(tr, args, result):
    n = args[0].n
    tr.counts["lattice_points.candidates"] += n * (n + 1) // 2
    tr.counts["lattice_points.found"] += len(result)


def _observe_lp(tr, args, result):
    rows = args[0]
    tr.counts["lp.cells"] += len(rows) * len(rows[0])
    tr.counts["lp.feasible"] += type(result).__name__ == "Feasible"


def _observe_find_matching(tr, args, result):
    tr.counts["find_matching.found"] += result is not None


def _observe_determinant(tr, args, result):
    tr.counts["integer_determinant.n"] += len(args[0])


def _observe_reduce(tr, args, result):
    tr.counts["reduce_to_vertices.points"] += len(set(map(tuple, args[0])))
    tr.counts["reduce_to_vertices.kept"] += len(result)


def _observe_region(tr, args, result):
    tr.counts["kouchnirenko.simplices"] += len(result.simplices)
    subsets = vertex_subsets(result.n, result.vertex_generators)
    tr.counts["kouchnirenko.vertex_subsets"] += subsets
    tr.regions.append({"op": tr.op, "n": result.n, "V": len(result.vertex_generators),
                       "vertex_subsets": subsets})


OBSERVERS = {
    "polytope.lattice_points": _observe_lattice_points,
    "lp.solve_eq_nonneg": _observe_lp,
    "stencil.find_matching": _observe_find_matching,
    "poly.integer_determinant": _observe_determinant,
    "polytope.reduce_to_vertices": _observe_reduce,
    "kouchnirenko.under_diagram_region": _observe_region,
}


class Tracer:
    """Keeps spans in memory; installs and removes the wrappers."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, start, end, parent index, operation id]
        self.stack = []  # [span index, time covered by children]
        self.op = -1
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self.op_layer = defaultdict(lambda: defaultdict(float))
        self.regions = []
        self._patched = []

    def _wrap(self, fn, span_name, key, layer):
        tr = self
        observe = OBSERVERS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tr.stack[-1][0] if tr.stack else -1
            idx = len(tr.spans) if len(tr.spans) < SPAN_CAP else -1
            frame = [idx, 0.0]
            tr.stack.append(frame)
            start = perf_counter()
            if idx >= 0:
                tr.spans.append([span_name, start, start, parent, tr.op])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tr.stack.pop()
                dur = end - start
                if idx >= 0:
                    tr.spans[idx][2] = end
                if tr.stack:
                    tr.stack[-1][1] += dur
                own = dur - frame[1]
                tr.calls[key] += 1
                tr.self_s[key] += own
                tr.total_s[key] += dur
                tr.op_layer[tr.op][layer] += own
            if observe is not None:
                observe(tr, args, result)
            return result

        return wrapper

    def __enter__(self):
        prefix = self.package.__name__
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == prefix or name.startswith(prefix + "."))]
        for home, names in LAYERS.items():
            home_mod = sys.modules[f"{prefix}.{home}"]
            layer = layer_name(home)
            for fn_name in names:
                orig = getattr(home_mod, fn_name)
                key = f"{layer}.{fn_name}"
                for mod in modules:
                    if getattr(mod, fn_name, None) is orig:
                        span = f"{layer_name(mod.__name__)}.{fn_name}"
                        setattr(mod, fn_name, self._wrap(orig, span, key, layer))
                        self._patched.append((mod, fn_name, orig))
        return self

    def __exit__(self, *exc):
        for mod, fn_name, orig in reversed(self._patched):
            setattr(mod, fn_name, orig)
        self._patched.clear()

    def metrics(self, ops):
        """Per-layer metrics, normalised per operation where they are totals."""
        out = {}
        layer_self = defaultdict(float)
        for home, names in LAYERS.items():
            layer = layer_name(home)
            for fn_name in names:
                key = f"{layer}.{fn_name}"
                out[f"{key}.calls"] = (self.calls[key] / ops, "calls/op")
                out[f"{key}.self_ms"] = (1000 * self.self_s[key] / ops, "ms/op")
                layer_self[layer] += self.self_s[key]
        for layer, s in layer_self.items():
            out[f"{layer}.self_ms"] = (1000 * s / ops, "ms/op")
        c = self.counts

        def ratio(a, b):
            return c[a] / c[b] if c[b] else 0.0

        def per_call(a, key):
            return c[a] / self.calls[key] if self.calls[key] else 0.0

        out["polytope.lattice_points.hit_ratio"] = (
            ratio("lattice_points.found", "lattice_points.candidates"), "ratio")
        out["polytope.reduce_to_vertices.kept_ratio"] = (
            ratio("reduce_to_vertices.kept", "reduce_to_vertices.points"), "ratio")
        out["lp.feasible_ratio"] = (per_call("lp.feasible", "lp.solve_eq_nonneg"), "ratio")
        out["lp.cells_mean"] = (per_call("lp.cells", "lp.solve_eq_nonneg"), "cells")
        out["stencil.matching_ratio"] = (
            per_call("find_matching.found", "stencil.find_matching"), "ratio")
        out["poly.integer_determinant.n_mean"] = (
            per_call("integer_determinant.n", "poly.integer_determinant"), "rows")
        out["kouchnirenko.simplices"] = (c["kouchnirenko.simplices"] / ops, "count/op")
        out["kouchnirenko.vertex_subsets"] = (
            c["kouchnirenko.vertex_subsets"] / ops, "count/op")
        return out

    def layer_shares(self):
        """Self time per layer as a share of all traced time, largest first."""
        per = defaultdict(float)
        for key, s in self.self_s.items():
            per[key.split(".")[0]] += s
        total = sum(per.values()) or 1.0
        return sorted(((layer, s / total) for layer, s in per.items()),
                      key=lambda kv: -kv[1])

    def inclusive_shares(self, busy):
        """Inclusive time per function as a share of the traced operations' time."""
        return sorted(((key, s / busy) for key, s in self.total_s.items()),
                      key=lambda kv: -kv[1])

    def write(self, path, summary):
        doc = {
            "summary": summary,
            "spans_kept": len(self.spans),
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
