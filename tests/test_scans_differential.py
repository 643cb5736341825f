"""The solve step's degree-indexed scans against the whole-graph scans they
replaced (tests/reference_scans.py).

Graph keeps the set of its vertices of degree at most 2 and derives it
through without and with_edge.  find_site, classify, find_anchor and
evaluate read that set instead of scanning every vertex; rule 5 starts
its cycle search only next to degree-2 vertices; the P3-P5 detectors
search paths between the neighbours of a degree-2 vertex instead of
listing every cycle; and is_expansion draws candidates from the
neighbours of mapped vertices instead of from lists over the whole graph.
Each must give exactly what the old code gave, on fresh graphs and after
chains of edits, so the same witness, subspace and anchor come first.
"""

import random
from fractions import Fraction

import reference_cycles
import reference_scans as ref
from corpus import random_cubic, random_subcubic
from test_cycles_differential import NAMED_CUBIC
from vcgen.configs import LocalConfiguration, expand, is_expansion
from vcgen.graphs import Graph, Instance
from vcgen.measure import Measure, evaluate
from vcgen.simplify import config_site, find_site
from vcgen.subspaces import SUBSPACE_IDS, classify, root_config
from vcgen.tree import find_anchor

ROOTS = {sid: root_config(sid) for sid in SUBSPACE_IDS}


def relabelled(rng: random.Random, g: Graph) -> Graph:
    names = rng.sample(range(3 * len(g) + 1), len(g))
    name = dict(zip(sorted(g.vertices), names))
    return Graph(name.values(), [(name[u], name[v]) for u, v in g.edges()])


def start_graphs(seed: int, count: int):
    """Random cubic and subcubic graphs under random names."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 2:
            g = random_cubic(rng, rng.randrange(4, 25, 2))
        else:
            g = random_subcubic(rng, rng.randint(3, 16))
        yield rng, relabelled(rng, g)


def edit_chain(rng: random.Random, g: Graph, steps: int, visit) -> None:
    """Calls visit on g and on the graphs of a random chain of vertex
    deletions and edge insertions that keeps the maximum degree at most 3.
    visit skips about half of the inner graphs, so that some graphs derive
    their degree-<=2 set from their parent's and others compute it anew."""
    visit(g)
    for i in range(steps):
        if not len(g):
            return
        vs = sorted(g.vertices)
        if rng.random() < 0.5:
            g = g.without(rng.sample(vs, min(len(vs), rng.randint(1, 3))))
        else:
            open_ = [v for v in vs if g.degree(v) < 3]
            pairs = [(u, v) for u in open_ for v in open_ if u < v and not g.has_edge(u, v)]
            if pairs and rng.random() < 0.8:
                g = g.with_edge(*rng.choice(pairs))
            elif open_:
                g = g.with_edge(rng.choice(open_), vs[-1] + 1)  # a new vertex
            else:
                continue
        if i == steps - 1 or rng.random() < 0.5:
            visit(g)


def fresh_low(g: Graph) -> frozenset[int]:
    return frozenset(v for v in g.vertices if g.degree(v) <= 2)


def test_low_degree_matches_a_fresh_scan():
    checked = derived = 0

    def visit(g: Graph) -> None:
        nonlocal checked
        assert g.low_degree() == fresh_low(g), g
        checked += 1

    for rng, g in start_graphs(21, 200):
        edit_chain(rng, g, 12, visit)
        # with the set read at every step, every graph derives it
        h = g
        h.low_degree()
        for _ in range(6):
            if not len(h):
                break
            h = h.without([rng.choice(sorted(h.vertices))])
            assert h.low_degree() == fresh_low(h), h
            derived += 1
    assert checked > 1000 and derived > 1000


def test_solve_step_matches_reference_scans():
    m = Measure(Fraction(1), Fraction(2, 3), Fraction(5, 7), Fraction(11, 13), "k")
    rules, sids, anchored = set(), set(), set()

    def visit(g: Graph) -> None:
        inst = Instance(g, 5)
        site = find_site(inst)
        assert site == ref.find_site(inst), g
        rules.add(site.rule_id if site else None)
        l = LocalConfiguration(g, {v: rng.randint(0, 3 - g.degree(v)) for v in g.vertices})
        assert config_site(l) == ref.config_site(l), l
        sid = classify(g)
        assert sid == reference_cycles.classify(g), g
        sids.add(sid)
        n = ref.degree_counts(g) + [0] * 4
        assert evaluate(m, inst) == 5 + m.beta1 * n[1] + m.beta2 * n[2] + m.beta3 * n[3]
        big = LocalConfiguration(g, {})
        for root_sid, root in ROOTS.items():
            phi = find_anchor(inst, root)
            assert phi == ref.is_expansion(big, root), (root_sid, g)
            if phi is not None:
                anchored.add(root_sid)

    for rng, g in start_graphs(22, 60):
        edit_chain(rng, g, 8, visit)
    # less a vertex, the dodecahedron falls in P4 and the Heawood graph in P5
    for i, g in enumerate(NAMED_CUBIC[:2]):
        rng = random.Random(i)
        edit_chain(rng, g.without([0]), 4, visit)
    assert rules == {None, 1, 2, 3, 4, 5}, rules
    assert sids >= {1, 2, 3, 4, 5, 6, 7, 19} and len(anchored) >= 10, (sids, anchored)


def test_is_expansion_matches_reference_on_configurations():
    # configurations, not instances: incomplete edges let a vertex of
    # degree <= 2 in H carry true degree 3, and H may be disconnected
    checked = 0
    for sid, root in ROOTS.items():
        for _, child in expand(root):
            for _, grandchild in expand(child)[::3] if child.boundary() else ():
                for small in ROOTS.values():
                    assert is_expansion(grandchild, small) == ref.is_expansion(grandchild, small)
                    checked += 1
            assert is_expansion(child, root) is not None
    assert checked > 4000
