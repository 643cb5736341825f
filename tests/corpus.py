"""Seeded generators shared by the test suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from vcgen.configs import LocalConfiguration
from vcgen.graphs import Graph, Instance
from vcgen.measure import Measure

# n-mode beta3 = 1/5: the randomized reference measure
MU_N20 = Measure(0, 0, 0, Fraction("0.2"), "n")


def brute_force_vc(g: Graph) -> int:
    """Reference oracle: smallest subset covering every edge, by enumeration."""
    vs = sorted(g.vertices)
    edges = list(g.edges())
    if not edges:
        return 0
    for size in range(len(vs) + 1):
        for cand in itertools.combinations(vs, size):
            s = set(cand)
            if all(u in s or v in s for u, v in edges):
                return size
    raise AssertionError("unreachable")


def is_cover(g: Graph, cover) -> bool:
    return all(u in cover or v in cover for u, v in g.edges())


def random_subcubic(rng: random.Random, n: int, target_edges: int | None = None) -> Graph:
    """Random simple graph with max degree 3 on vertices 0..n-1."""
    if target_edges is None:
        target_edges = rng.randint(n // 2, (3 * n) // 2)
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    deg = [0] * n
    chosen = []
    for u, v in pairs:
        if len(chosen) >= target_edges:
            break
        if deg[u] < 3 and deg[v] < 3:
            chosen.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph(range(n), chosen)


def random_cubic(rng: random.Random, n: int) -> Graph:
    """Random simple cubic graph on vertices 0..n-1 (n even), by the
    pairing model with rejection."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {(min(u, v), max(u, v)) for u, v in zip(points[::2], points[1::2]) if u != v}
        if len(edges) == 3 * n // 2:
            return Graph(range(n), sorted(edges))


def random_instance(rng: random.Random, n: int) -> Instance:
    g = random_subcubic(rng, n)
    k = rng.randint(0, max(1, n * 2 // 3))
    return Instance(g, k)


def random_config(rng: random.Random, n: int, delta: int = 3) -> LocalConfiguration:
    """Random local configuration: subcubic graph plus random slack as d."""
    g = random_subcubic(rng, n, target_edges=rng.randint(max(0, n - 2), n + 1))
    d = {}
    for v in g.vertices:
        slack = delta - g.degree(v)
        d[v] = rng.randint(0, slack) if slack > 0 else 0
    return LocalConfiguration(g, d, delta)


def relabel(l: LocalConfiguration, mapping) -> LocalConfiguration:
    """The configuration with each vertex v renamed mapping[v]."""
    g = Graph(
        (mapping[v] for v in l.h.vertices),
        ((mapping[u], mapping[v]) for u, v in l.h.edges()),
    )
    return LocalConfiguration(g, {mapping[v]: dv for v, dv in l.d.items()}, l.delta)


def config_corpus(seed: int, count: int, max_n: int, require_site_free: bool = False):
    """Deterministic corpus of small configurations."""
    from vcgen.simplify import config_site

    rng = random.Random(seed)
    seen = set()
    out = []
    while len(out) < count:
        n = rng.randint(1, max_n)
        l = random_config(rng, n)
        if require_site_free and config_site(l) is not None:
            continue
        key = (frozenset(l.h.vertices), frozenset(l.h.edges()), tuple(sorted(l.d.items())))
        if key in seen:
            continue
        seen.add(key)
        out.append(l)
    return out


def build_tables(m, mode: str) -> dict:
    """The 19 reference tables of one measure, at the default limits."""
    from vcgen.rulegen import gensa
    from vcgen.subspaces import assertions_for, root_config

    return {
        sid: gensa(root_config(sid), m, rule_mode=mode,
                   assertions=assertions_for(sid), subspace_id=sid)
        for sid in range(1, 20)
    }
