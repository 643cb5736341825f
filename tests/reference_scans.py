"""Whole-graph scans that vcgen.simplify, vcgen.configs and vcgen.measure
used before they looked only at the vertices of degree at most 2, kept
unchanged as oracles for tests/test_scans_differential.py.

site scans every vertex for rules 1-3 and every edge for rule 4, and then
runs the rule-5 cycle search unconditionally.  is_expansion builds, for
each vertex of the small configuration, the list of every vertex of the
big one that can carry its degrees.  degree_counts counts every vertex.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from reference_cycles import rule5_sites
from vcgen.configs import LocalConfiguration
from vcgen.graphs import Graph, Instance
from vcgen.simplify import SimplificationSite

DegreeFn = Callable[[int], int]


def _rule3_sites(g: Graph, deg: DegreeFn):
    for v in sorted(g.vertices):
        if deg(v) != 2 or g.degree(v) != 2:
            continue
        u, w = sorted(g.neighbors(v))
        if g.has_edge(u, w):
            yield SimplificationSite(3, (v, u, w))


def _rule4_blocked(g: Graph, u: int, v: int) -> bool:
    a = next(iter(g.neighbors(u) - {v}))
    b = next(iter(g.neighbors(v) - {u}))
    return a != b and g.degree(a) == 2 and g.degree(b) == 2 and g.has_edge(a, b)


def _rule4_sites(g: Graph, deg: DegreeFn, skip_blocked: bool):
    for u, v in g.edges():
        if deg(u) == 2 and deg(v) == 2:
            if skip_blocked and _rule4_blocked(g, u, v):
                continue
            yield SimplificationSite(4, (u, v))


def _first(sites: Iterable[SimplificationSite]) -> Optional[SimplificationSite]:
    return min(sites, key=lambda s: s.witness, default=None)


def site(g: Graph, deg: DegreeFn, skip_blocked: bool) -> Optional[SimplificationSite]:
    for sites in (
        (SimplificationSite(1, (v,)) for v in g.vertices if deg(v) == 0),
        (SimplificationSite(2, (v,)) for v in g.vertices if deg(v) == 1),
        _rule3_sites(g, deg),
        _rule4_sites(g, deg, skip_blocked),
        rule5_sites(g, deg),
    ):
        hit = _first(sites)
        if hit:
            return hit
    return None


def find_site(inst: Instance) -> Optional[SimplificationSite]:
    return site(inst.graph, inst.graph.degree, skip_blocked=True)


def config_site(l: LocalConfiguration) -> Optional[SimplificationSite]:
    return site(l.h, l.true_degree, skip_blocked=False)


def is_expansion(big: LocalConfiguration, small: LocalConfiguration) -> Optional[dict[int, int]]:
    small_vs = sorted(small.h.vertices)
    big_vs = sorted(big.h.vertices)
    candidates = {
        v: [
            w
            for w in big_vs
            if big.true_degree(w) == small.true_degree(v) and big.h.degree(w) >= small.h.degree(v)
        ]
        for v in small_vs
    }

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def assign(i: int) -> bool:
        if i == len(small_vs):
            return True
        v = small_vs[i]
        for w in candidates[v]:
            if w in used:
                continue
            ok = all(
                big.h.has_edge(w, mapping[u])
                for u in small.h.neighbors(v)
                if u in mapping
            )
            if not ok:
                continue
            mapping[v] = w
            used.add(w)
            if assign(i + 1):
                return True
            del mapping[v]
            used.remove(w)
        return False

    return dict(mapping) if assign(0) else None


def degree_counts(g: Graph) -> list[int]:
    counts = [0] * (max((g.degree(v) for v in g.vertices), default=0) + 1)
    for v in g.vertices:
        counts[g.degree(v)] += 1
    return counts
