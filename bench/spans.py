"""Spans around vcgen's layer boundaries, installed from outside the package.

The tracer replaces the module attributes that callers look up (for
example ``vcgen.rulegen.solve_cover_lp``, which ``gensa`` calls) with
wrappers that record one span per call: name, start, end and the span that
was open when the call began.  Spans are kept in memory and written out
when the run ends.  A span's self time is its duration minus the time its
direct child spans cover.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute) -> span name.  One entry per place a caller looks the
# function up; entries sharing a span name measure one layer.
FUNCTION_SPANS = {
    ("rulegen", "solve_cover_lp"): "lp.solve_cover_lp",
    ("lp", "solve_cover_lp"): "lp.solve_cover_lp",
    ("rulegen", "solve_cover_ilp"): "lp.solve_cover_ilp",
    ("rulegen", "cost_bound"): "branching.cost_bound",
    ("rulegen", "canonical_key"): "configs.canonical_key",
    ("rulegen", "isomorphism"): "configs.isomorphism",
    ("rulegen", "expand"): "configs.expand",
    ("rulegen", "config_site"): "simplify.config_site",
    ("rulegen", "verify_table"): "rulegen.verify_table",
    ("runtime", "verify_table"): "rulegen.verify_table",
    ("", "verify_table"): "rulegen.verify_table",
    ("runtime", "simplify_fixpoint"): "simplify.simplify_fixpoint",
    ("subspaces", "enumerate_cycles"): "graphs.enumerate_cycles",
    ("simplify", "enumerate_cycles"): "graphs.enumerate_cycles",
    ("runtime", "classify"): "subspaces.classify",
    ("runtime", "find_anchor"): "tree.find_anchor",
    ("runtime", "match_instance"): "tree.match_instance",
    ("runtime", "evaluate"): "measure.evaluate",
}
# (module, class, method) -> span name
METHOD_SPANS = {
    ("requirements", "RequirementContext", "crucial_set"): "requirements.crucial_set",
    ("graphs", "Graph", "without"): "graphs.Graph.without",
}
# Hot calls that are counted, not spanned.
COUNTED = {
    ("simplify", "find_site"): "simplify.find_site",
}
COUNTED_METHODS = {
    ("requirements", "RequirementContext", "satisfies"): "requirements.satisfies",
}

# Span name -> which of its call count and self seconds are per-layer metrics.
SPAN_METRICS = {
    "lp.solve_cover_lp": ("calls", "s"),
    "lp.solve_cover_ilp": ("calls", "s"),
    "branching.cost_bound": ("calls", "s"),
    "branching.prune_dominated_indexed": ("s",),
    "configs.canonical_key": ("calls", "s"),
    "configs.isomorphism": ("s",),
    "configs.expand": ("s",),
    "requirements.crucial_set": ("calls", "s"),
    "simplify.config_site": ("s",),
    "rulegen.verify_table": ("calls", "s"),
    "simplify.simplify_fixpoint": ("calls", "s"),
    "graphs.enumerate_cycles": ("calls", "s"),
    "subspaces.classify": ("s",),
    "tree.find_anchor": ("s",),
    "tree.match_instance": ("calls", "s"),
    "graphs.Graph.without": ("calls", "s"),
    "measure.evaluate": ("s",),
    "graphs.VertexCoverSolver": ("s",),
}
COUNT_METRICS = ("requirements.satisfies", "simplify.find_site")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open: list[int] = []
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn):
        nid = self._name_id(name)
        open_ = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(open_[-1] if open_ else -1)
            self.end.append(0.0)
            open_.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                open_.pop()

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, vc) -> None:
        """Wrap the layer boundaries of a freshly imported vcgen package."""

        def module(name):
            return vc if name == "" else getattr(vc, name)

        wrapped: dict[tuple[int, str], object] = {}
        for (mod, attr), span in FUNCTION_SPANS.items():
            fn = getattr(module(mod), attr)
            key = (id(fn), span)
            if key not in wrapped:
                wrapped[key] = self.spanned(span, fn)
            setattr(module(mod), attr, wrapped[key])
        for (mod, cls, meth), span in METHOD_SPANS.items():
            klass = getattr(module(mod), cls)
            setattr(klass, meth, self.spanned(span, getattr(klass, meth)))
        for (mod, attr), name in COUNTED.items():
            setattr(module(mod), attr, self.counted(name, getattr(module(mod), attr)))
        for (mod, cls, meth), name in COUNTED_METHODS.items():
            klass = getattr(module(mod), cls)
            setattr(klass, meth, self.counted(name, getattr(klass, meth)))
        self._install_pruning(vc)
        self._install_cover_solver(vc)

    def _install_pruning(self, vc) -> None:
        """prune_dominated_indexed also reports branches kept / candidates."""
        inner = self.spanned("branching.prune_dominated_indexed", vc.rulegen.prune_dominated_indexed)
        counts = self.counts

        def prune(candidates, *args, **kwargs):
            keep = inner(candidates, *args, **kwargs)
            counts["branching.candidates"] += len(candidates)
            counts["branching.kept"] += len(keep)
            return keep

        vc.rulegen.prune_dominated_indexed = prune

    def _install_cover_solver(self, vc) -> None:
        """The exact solver the solve engines fall back on; generation's own
        use of it (inside crucial sets) is left untraced."""
        base = vc.runtime.VertexCoverSolver
        spanned = self.spanned

        class TracedSolver(base):
            __init__ = spanned("graphs.VertexCoverSolver", base.__init__)
            cover = spanned("graphs.VertexCoverSolver", base.cover)

        vc.runtime.VertexCoverSolver = TracedSolver

    def self_times(self) -> tuple[Counter, Counter]:
        """Calls and self seconds per span name."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        return calls, self_s

    def write(self, path) -> None:
        """All spans as gzipped TSV: name, start, end, parent index."""
        with gzip.open(path, "wt") as f:
            f.write("name\tstart\tend\tparent\n")
            for i in range(len(self.name)):
                f.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\n"
                )


def layer_metrics(tracer: Tracer, extra: dict[str, tuple[float, str]]) -> dict:
    """Every per-layer metric, in BENCHMARK.json's naming."""
    calls, self_s = tracer.self_times()
    out: dict[str, dict] = {}
    for name, kinds in SPAN_METRICS.items():
        if "calls" in kinds:
            out[f"{name}.calls"] = {"value": calls[name], "unit": "count"}
        if "s" in kinds:
            out[f"{name}.s"] = {"value": round(self_s[name], 6), "unit": "s"}
    for name in COUNT_METRICS:
        out[f"{name}.calls"] = {"value": tracer.counts[name], "unit": "count"}
    cand = tracer.counts["branching.candidates"]
    out["branching.kept_ratio"] = {
        "value": round(tracer.counts["branching.kept"] / cand, 6) if cand else 0.0,
        "unit": "ratio",
    }
    keys = calls["configs.canonical_key"]
    aliases = extra["rulegen.aliases"][0]
    out["rulegen.alias_ratio"] = {
        "value": round(aliases / keys, 6) if keys else 0.0,
        "unit": "ratio",
    }
    for name, (value, unit) in extra.items():
        out[name] = {"value": value, "unit": unit}
    return out
