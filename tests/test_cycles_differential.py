"""The cycle searches of simplify and subspaces against the code they
replaced (tests/reference_cycles.py), which lists every cycle of length up
to 8 before it looks at any.

Rule 5 now prunes every search path that breaks the degree pattern of a
site, and classify and forbidden_by search cycles only up to the length a
detector asks for.  Both must find exactly what the old code found, in the
same order, so the same witness comes first.
"""

import random

import reference_cycles as ref
from corpus import random_cubic, random_subcubic
from vcgen import simplify
from vcgen.configs import LocalConfiguration, expand
from vcgen.graphs import Graph, Instance
from vcgen.simplify import SimplificationSite, config_site, find_site
from vcgen.subspaces import assertions_for, classify, forbidden_by, root_config


def relabelled(rng: random.Random, g: Graph) -> Graph:
    """g with its vertices renamed at random, so that the search starts
    from vertices of every degree."""
    names = rng.sample(range(3 * len(g) + 1), len(g))
    name = dict(zip(sorted(g.vertices), names))
    return Graph(name.values(), [(name[u], name[v]) for u, v in g.edges()])


def subdivided_cubic(rng: random.Random, n: int) -> Graph:
    """A random cubic graph with about half of its edges subdivided: a cycle
    with every edge subdivided alternates degree 3 and degree 2."""
    g = random_cubic(rng, n)
    edges, fresh = [], n
    for u, v in g.edges():
        if rng.random() < 0.5:
            edges += [(u, fresh), (fresh, v)]
            fresh += 1
        else:
            edges.append((u, v))
    return Graph(range(fresh), edges)


def with_slack(rng: random.Random, g: Graph) -> LocalConfiguration:
    d = {v: rng.randint(0, 3 - g.degree(v)) for v in g.vertices}
    return LocalConfiguration(g, d)


def site_cases():
    """(graph, configuration on it) pairs: sparse and dense subcubic graphs
    and subdivided cubic graphs, under random names."""
    rng = random.Random(5)
    for i in range(300):
        if i % 3 == 0:
            g = subdivided_cubic(rng, rng.choice((4, 6, 8)))
        else:
            n = rng.randint(3, 14)
            g = random_subcubic(rng, n, (3 * n) // 2 if i % 3 == 1 else None)
        g = relabelled(rng, g)
        yield g, with_slack(rng, g)


def test_rule5_sites_match_reference():
    found = set()
    for g, l in site_cases():
        for deg in (g.degree, l.true_degree):
            sites = [SimplificationSite(*s) for s in simplify._rule5_sites(g, deg, g.vertices)]
            assert sites == list(ref.rule5_sites(g, deg)), (g, deg)
            found |= {"all-2" if all(deg(x) == 2 for x in s.witness) else "alternating"
                      for s in sites}
    assert found == {"all-2", "alternating"}


def test_find_site_and_config_site_match_reference(monkeypatch):
    cases = list(site_cases())

    def sites():
        return [(find_site(Instance(g, 5)), config_site(l)) for g, l in cases]

    got = sites()
    monkeypatch.setattr(simplify, "_rule5_sites", lambda g, deg, through: [
        (5, s.witness) for s in ref.rule5_sites(g, deg)])
    assert got == sites()
    assert any(s is not None and s.rule_id == 5 for pair in got for s in pair)


def lcf_graph(shifts: list[int], repeats: int) -> Graph:
    """A Hamiltonian cubic graph in LCF notation."""
    n = len(shifts) * repeats
    chords = [(i, (i + shifts[i % len(shifts)]) % n) for i in range(n)]
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)] + chords)


# the dodecahedron and the Heawood, McGee, Tutte 8-cage and Foster graphs:
# girth 5, 6, 7, 8 and 10
NAMED_CUBIC = [
    lcf_graph([10, 7, 4, -4, -7, 10, -4, 7, -7, 4], 2),
    lcf_graph([5, -5], 7),
    lcf_graph([12, 7, -7], 8),
    lcf_graph([-13, -9, 7, -7, 9, 13], 5),
    lcf_graph([17, -9, 37, -37, 9, -17], 15),
]


def has_3_or_4_cycle(g: Graph) -> bool:
    """Whether two walks of at most two edges from one vertex meet."""
    for v in g.vertices:
        seen = set(g.neighbors(v))
        for u in g.neighbors(v):
            for w in g.neighbors(u):
                if w != v:
                    if w in seen:
                        return True
                    seen.add(w)
    return False


def girth5_cubic(rng: random.Random, n: int) -> Graph:
    while True:
        g = random_cubic(rng, n)
        if not has_3_or_4_cycle(g):
            return g


def test_classify_matches_reference():
    rng = random.Random(11)
    graphs = [random_cubic(rng, rng.randrange(4, 41, 2)) for _ in range(100)]
    graphs += [girth5_cubic(rng, rng.randrange(20, 41, 2)) for _ in range(10)]
    graphs += NAMED_CUBIC
    graphs = [relabelled(rng, g) for g in graphs]
    graphs += [random_subcubic(rng, rng.randint(3, 14)) for _ in range(150)]
    graphs.append(Graph())
    reached = set()
    for g in graphs:
        sid = classify(g)
        assert sid == ref.classify(g), g
        reached.add(sid)
    assert reached >= {1, 2, 3, 6, 7, 8, 9, 10, 12, 14, 18, 19}, sorted(reached)


def test_forbidden_by_matches_reference_on_expanded_roots():
    checked = 0
    for sid in range(1, 20):
        for _, child in expand(root_config(sid)):
            grandchildren = [] if config_site(child) else [c for _, c in expand(child)]
            for l in [child, *grandchildren]:
                for a in (assertions_for(sid), assertions_for(19)):
                    assert forbidden_by(l, a) == ref.forbidden_by(l, a), (sid, l)
                    checked += 1
    assert checked > 1000
