import itertools
import random

import pytest

from corpus import random_config, random_subcubic, relabel
from vcgen.configs import (
    LocalConfiguration,
    boundary,
    canonical_key,
    expand,
    format_config,
    instance_as_config,
    is_expansion,
    isomorphism,
    true_degree,
)
from vcgen.errors import CapacityError, ContractError, InputDomainError
from vcgen.graphs import Graph, complete_graph, cycle_graph, path_graph


def lone(d: int) -> LocalConfiguration:
    return LocalConfiguration(Graph([0]), {0: d})


def edge_config(du: int, dv: int) -> LocalConfiguration:
    return LocalConfiguration(Graph([0, 1], [(0, 1)]), {0: du, 1: dv})


def test_invariants_enforced():
    with pytest.raises(InputDomainError):
        LocalConfiguration(Graph([0]), {0: 4})  # true degree above MAX_DEGREE
    with pytest.raises(InputDomainError):
        LocalConfiguration(Graph([0]), {0: -1})
    with pytest.raises(InputDomainError):
        LocalConfiguration(Graph([0]), {1: 1})


def test_boundary_examples():
    assert boundary(lone(3)) == {0}
    assert boundary(instance_as_config(complete_graph(4))) == frozenset()
    assert boundary(edge_config(2, 2)) == {0, 1}


def test_true_degree_examples():
    assert true_degree(lone(3), 0) == 3
    assert true_degree(instance_as_config(complete_graph(4)), 0) == 3
    assert true_degree(edge_config(2, 1), 0) == 3
    with pytest.raises(InputDomainError):
        true_degree(lone(3), 5)


def test_expand_lone_vertex():
    children = expand(lone(3))
    assert [label for label, _ in children] == [("new", 1), ("new", 2), ("new", 3)]
    for (_, dd), child in zip([l for l, _ in children], [c for _, c in children]):
        assert child.d[0] == 2
        assert child.d[1] == dd - 1
        assert child.h.has_edge(0, 1)


def test_expand_edge_no_internal_child():
    children = expand(edge_config(2, 2))
    # {0,1} already an edge, so no internal child; three new-vertex children
    assert [label for label, _ in children] == [("new", 1), ("new", 2), ("new", 3)]


def test_expand_path_selects_min_d_vertex():
    l = LocalConfiguration(path_graph(3), {0: 2, 1: 1, 2: 2})
    children = expand(l)
    # vertex 1 has the fewest incomplete edges; both internal candidates are
    # already adjacent, so only the three new-vertex children remain
    assert [label for label, _ in children] == [("new", 1), ("new", 2), ("new", 3)]
    for _, child in children:
        assert child.d[1] == 0


def test_expand_internal_child_created_when_nonadjacent():
    # path 0-1-2 with slack on the endpoints: selecting 0 (d=1, deg=1 ties
    # with 2; smaller id wins) gives internal child joining 0-2
    l = LocalConfiguration(path_graph(3), {0: 1, 2: 1})
    children = expand(l)
    labels = [label for label, _ in children]
    assert ("internal", 2) in labels
    internal = dict(children)[("internal", 2)]
    assert internal.h.has_edge(0, 2)
    assert internal.d[0] == 0 and internal.d[2] == 0


def test_expand_empty_boundary_rejected():
    with pytest.raises(ContractError):
        expand(instance_as_config(complete_graph(3)))


def test_is_expansion_identity():
    l = random_config(random.Random(3), 5)
    phi = is_expansion(l, l)
    assert phi == {v: v for v in l.h.vertices}


def test_is_expansion_k4_expands_lone_vertex():
    phi = is_expansion(instance_as_config(complete_graph(4)), lone(3))
    assert phi == {0: 0}  # deterministic: smallest target


def test_is_expansion_conserves_true_degree():
    big = instance_as_config(complete_graph(4))
    small = LocalConfiguration(Graph([0, 1], [(0, 1)]), {0: 2, 1: 2})
    phi = is_expansion(big, small)
    assert phi is not None
    for v, w in phi.items():
        assert small.true_degree(v) == big.true_degree(w)


def test_is_expansion_absent_when_true_degree_mismatch():
    triangle = instance_as_config(cycle_graph(3))  # true degrees all 2
    assert is_expansion(triangle, lone(3)) is None


def test_expansion_children_expand_parent():
    rng = random.Random(5)
    for _ in range(20):
        l = random_config(rng, 5)
        if not l.boundary():
            continue
        for _, child in expand(l):
            assert is_expansion(child, l) is not None


def test_expansion_cover_exactly_one_child():
    # embed a fragment of a concrete graph as a configuration; however the
    # host resolves the selected vertex's next incomplete edge, exactly one
    # expansion child accounts for it
    from vcgen.configs import select_expansion_vertex

    rng = random.Random(6)
    checked = 0
    for _ in range(60):
        g = random_subcubic(rng, rng.randint(5, 10))
        sub = set(rng.sample(sorted(g.vertices), rng.randint(1, len(g.vertices) - 1)))
        h = Graph(sub, ((u, v) for u, v in g.edges() if u in sub and v in sub))
        d = {v: g.degree(v) - h.degree(v) for v in sub}
        l = LocalConfiguration(h, d)
        if not l.boundary():
            continue
        v = select_expansion_vertex(l)
        children = expand(l)
        labels = [label for label, _ in children]
        assert len(set(labels)) == len(labels)
        # every unresolved host edge at v resolves through exactly one label
        unresolved = [w for w in g.neighbors(v) if w not in h.neighbors(v)]
        assert len(unresolved) == l.d[v]
        for w in unresolved:
            if w in sub:
                expected = ("internal", w)
            else:
                expected = ("new", g.degree(w))
            assert labels.count(expected) == 1
            child = dict(children)[expected]
            assert is_expansion(instance_as_config(g), child) is not None
            checked += 1
    assert checked > 30


def test_canonical_key_isomorphic_relabelings():
    rng = random.Random(9)
    for _ in range(20):
        l = random_config(rng, 6)
        perm = sorted(l.h.vertices)
        shuffled = perm[:]
        rng.shuffle(shuffled)
        l2 = relabel(l, dict(zip(perm, shuffled)))
        assert canonical_key(l) == canonical_key(l2)


def test_canonical_key_exhaustive_small():
    # every permutation of a config with up to 6 vertices keys identically
    rng = random.Random(10)
    for n in (3, 4, 5, 6, 6):
        l = random_config(rng, n)
        vs = sorted(l.h.vertices)
        keys = set()
        for perm in itertools.permutations(vs):
            keys.add(canonical_key(relabel(l, dict(zip(vs, perm)))))
        assert len(keys) == 1


def test_canonical_key_distinguishes_d():
    assert canonical_key(edge_config(2, 2)) != canonical_key(edge_config(2, 1))


def test_canonical_key_path_reflection():
    a = LocalConfiguration(path_graph(3), {0: 2, 1: 1, 2: 2})
    b = LocalConfiguration(path_graph(3), {0: 2, 1: 1, 2: 2})
    b = relabel(b, {0: 2, 1: 1, 2: 0})
    assert canonical_key(a) == canonical_key(b)


def test_canonical_key_separates_nonisomorphic():
    rng = random.Random(12)
    for _ in range(30):
        a = random_config(rng, 5)
        b = random_config(rng, 5)
        same_key = canonical_key(a) == canonical_key(b)
        iso = is_expansion(a, b) is not None and is_expansion(b, a) is not None
        if len(a.h) == len(b.h) and a.h.edge_count() == b.h.edge_count():
            assert same_key == iso or not same_key and not iso


def test_canonical_cap():
    with pytest.raises(CapacityError):
        canonical_key(LocalConfiguration(Graph(range(17)), {}))


def test_isomorphism_mapping_valid():
    rng = random.Random(14)
    for _ in range(15):
        l = random_config(rng, 6)
        vs = sorted(l.h.vertices)
        shuffled = vs[:]
        rng.shuffle(shuffled)
        l2 = relabel(l, dict(zip(vs, shuffled)))
        phi = isomorphism(l, l2)
        assert phi is not None
        for u, v in l.h.edges():
            assert l2.h.has_edge(phi[u], phi[v])
        for v in vs:
            assert l.d[v] == l2.d[phi[v]]


def test_config_text_roundtrip():
    l = LocalConfiguration(path_graph(3), {0: 1, 2: 2})
    assert format_config(l) == "p vc 3 2\ne 0 1\ne 1 2\nd 0 1\nd 2 2\n"
    # vertices are written as their positions in sorted order
    l = LocalConfiguration(Graph([5, 9, 12], [(5, 12)]), {9: 2, 12: 1})
    assert format_config(l) == "p vc 3 1\ne 0 2\nd 1 2\nd 2 1\n"
