"""Spans around the public functions of each prismhom layer, from outside.

`Tracer.install` replaces each listed function at every module binding that
holds it (so the names `cli.py`, `knots.py` and the package re-import are
covered) and each listed method on its class; `uninstall` puts the originals
back, so untraced passes run the unmodified program.  Spans are kept in memory
as (name, start, end, parent index) and written out once at the end.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

import prismhom
from prismhom import algebra, chains, cli, knots, moves, prismatic, prisms

MODULES = (prismhom, algebra, chains, cli, knots, moves, prismatic, prisms)

FUNCTIONS = {
    "cli.main": (cli, "main"),
    "cli.verify_structure": (cli, "verify_structure"),
    "prismatic.build_complex": (prismatic, "build_complex"),
    "prismatic.build_bar_complex": (prismatic, "build_bar_complex"),
    "prismatic.build_rack_complex": (prismatic, "build_rack_complex"),
    "prismatic.boundary_generator": (prismatic, "boundary_generator"),
    "prismatic.resolve_twist_cell": (prismatic, "resolve_twist_cell"),
    "prismatic.degenerate_span": (prismatic, "degenerate_span"),
    "prismatic.cached_complex": (prismatic, "cached_complex"),
    "prisms.faces_match_algebra": (prisms, "faces_match_algebra"),
    "prisms.good_labeling": (prisms, "good_labeling"),
    "knots.enumerate_colorings": (knots, "enumerate_colorings"),
    "knots.represented_cycle": (knots, "represented_cycle"),
    "moves.apply_move": (moves, "apply_move"),
}

METHODS = {
    "algebra.shalgebra": (algebra.Shalgebra, "__init__"),
    "chains.homology": (chains.ChainComplex, "homology"),
    "chains.d_squared_violations": (chains.ChainComplex, "d_squared_violations"),
    "chains.class_coordinates": (chains.ChainComplex, "class_coordinates"),
}

# Spans each workload must record at least once in its traced run; a zero
# there means a binding was missed, and the run fails rather than drop a layer.
REQUIRED = {
    "homology-ladder": ("cli.main", "algebra.shalgebra", "prismatic.build_complex",
                        "prismatic.build_bar_complex", "prismatic.build_rack_complex",
                        "prismatic.boundary_generator", "prismatic.resolve_twist_cell",
                        "prismatic.degenerate_span", "chains.homology",
                        "chains.d_squared_violations"),
    "verify-s3": ("cli.main", "algebra.shalgebra", "cli.verify_structure",
                  "prismatic.build_complex", "prismatic.boundary_generator",
                  "prismatic.resolve_twist_cell", "chains.d_squared_violations",
                  "prisms.faces_match_algebra", "prisms.good_labeling"),
    "ktg-invariants": ("cli.main", "algebra.shalgebra", "prismatic.cached_complex",
                       "prismatic.build_complex", "prismatic.boundary_generator",
                       "chains.homology", "chains.class_coordinates",
                       "knots.enumerate_colorings", "knots.represented_cycle",
                       "moves.apply_move"),
}

# Every span time is self time; these spans, whose children do most of their
# work, name it `self_s` to say so.
SELF_NAMED = ("cli.main", "cli.verify_structure", "prismatic.build_complex")
DEGREES = (1, 2, 3, 4)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.complexes = []
        self.colorings = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self._cache = prismatic.cached_complex
        self._cache_mark = None

    def _wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _on_result(self, name):
        if name in ("prismatic.build_complex", "prismatic.build_bar_complex",
                    "prismatic.build_rack_complex"):
            return self.complexes.append
        if name == "knots.enumerate_colorings":
            return self._count_colorings
        return None

    def _count_colorings(self, colorings):
        self.colorings += len(colorings)

    def install(self):
        for name, (owner, attr) in FUNCTIONS.items():
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, self._on_result(name))
            for module in MODULES:
                for key in [k for k, v in vars(module).items() if v is original]:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapped)
        for name, (cls, attr) in METHODS.items():
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))
        self._cache_mark = self._cache.cache_info()

    def uninstall(self):
        info = self._cache.cache_info()
        self.cache_hits += info.hits - self._cache_mark.hits
        self.cache_misses += info.misses - self._cache_mark.misses
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def stats(self, first=0):
        """name -> [calls, inclusive seconds, self seconds] over spans[first:]."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for index in range(first, len(self.spans)):
            name, start, end, _ = self.spans[index]
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[index]
        return out

    def missing(self, workload):
        seen = {span[0] for span in self.spans}
        return [name for name in REQUIRED[workload] if name not in seen]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def layer_metrics(tracer, pass_first, traced_pass_s, untraced_wall_s, job_times):
    """Per-layer metrics of a traced run.

    Span times and calls cover the traced set-up and the traced pass; the
    `share.*` metrics are self time over the traced pass only.
    """
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    stats = tracer.stats()
    for name in list(FUNCTIONS) + list(METHODS):
        calls, _, own = stats.get(name, (0, 0.0, 0.0))
        put(f"{name}.self_s" if name in SELF_NAMED else f"{name}.s", own, "s")
        put(f"{name}.calls", calls, "count")

    generators = dict.fromkeys(DEGREES, 0)
    nnz = dict.fromkeys(DEGREES, 0)
    resolved = unresolved = 0
    for K in tracer.complexes:
        cc = K.cc
        for n in DEGREES:
            generators[n] += cc.count(n)
            nnz[n] += sum(len(ch.terms) for ch in cc.boundaries.get(n, ()))
        if isinstance(K, prismatic.PrismaticComplex):
            resolved += sum(1 for g in K.generators(4)
                            if isinstance(g, prismatic.ExtraCell) and g.kind in ("B4_1", "B4_2"))
            unresolved += sum(1 for w in K.warnings if w["cell"] in ("B4_1", "B4_2"))
    for n in DEGREES:
        put(f"prismatic.generators.d{n}", generators[n], "count")
        put(f"prismatic.boundary_nnz.d{n}", nnz[n], "count")
    put("prismatic.twist_cells.resolved", resolved, "count")
    put("prismatic.twist_cells.unresolved", unresolved, "count")
    put("prismatic.cached_complex.hits", tracer.cache_hits, "count")
    put("prismatic.cached_complex.misses", tracer.cache_misses, "count")
    put("knots.colorings", tracer.colorings, "count")

    shares = defaultdict(float)
    for name, (_, _, own) in tracer.stats(pass_first).items():
        shares[name.split(".")[0]] += own
    for layer in ("algebra", "cli", "prismatic", "chains", "prisms", "knots"):
        put(f"share.{layer}", 100.0 * shares[layer] / traced_pass_s, "%")

    put("trace.pass_s", traced_pass_s, "s")
    put("trace.overhead_s", traced_pass_s - untraced_wall_s, "s")
    put("jobs.samples", len(job_times), "count")
    put("jobs.p90_s", statistics.quantiles(job_times, n=10)[-1], "s")
    return metrics
