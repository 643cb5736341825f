import random

import pytest

from corpus import random_subcubic
from vcgen.branching import cost_bound
from vcgen.configs import LocalConfiguration, instance_as_config, is_expansion
from vcgen.errors import InputDomainError
from vcgen.graphs import (
    Graph,
    Instance,
    complete_graph,
    cycle_graph,
    petersen_graph,
)
from vcgen.measure import MU2
from vcgen.simplify import simplify_fixpoint
from vcgen.subspaces import (
    SUBSPACE_IDS,
    assertions_for,
    classify,
    forbidden_by,
    parse_subspace,
    root_config,
    subspace_name,
)


def test_classify_k4_p7():
    assert classify(complete_graph(4)) == 7


def test_classify_c8_p6():
    assert classify(cycle_graph(8)) == 6


def test_classify_petersen_p9():
    assert classify(petersen_graph()) == 9


def test_classify_examples_more():
    assert classify(Graph([0])) == 1  # isolated vertex
    assert classify(cycle_graph(3)) == 6  # degree-2 vertices come first
    # degree-3 vertex 0 with two degree-2 neighbors, no degree <= 1 anywhere
    g = Graph(
        range(8),
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6), (3, 7), (4, 5), (6, 7)],
    )
    assert classify(g) == 2


def test_classify_rejects_degree4():
    # a degree-4 input never reaches the call: Graph refuses to build it
    with pytest.raises(InputDomainError):
        star = Graph(range(5), [(0, i) for i in range(1, 5)])
        classify(star)


def test_classify_stable_under_relabeling():
    rng = random.Random(71)
    for _ in range(40):
        g = random_subcubic(rng, rng.randint(4, 12))
        sid = classify(g)
        vs = sorted(g.vertices)
        shuffled = vs[:]
        rng.shuffle(shuffled)
        mapping = dict(zip(vs, shuffled))
        g2 = Graph(shuffled, [(mapping[u], mapping[v]) for u, v in g.edges()])
        assert classify(g2) == sid


def test_roots_fire_their_own_detector_not_earlier():
    for sid in SUBSPACE_IDS:
        root = root_config(sid)
        assert forbidden_by(root, assertions_for(sid)) is None, sid
        # the root's own structure is certain in the configuration
        if sid < 19:
            assert forbidden_by(root, assertions_for(sid + 1)) == sid, sid


def test_root_examples():
    r19 = root_config(19)
    assert sorted(r19.h.vertices) == [0] and r19.d[0] == 3
    r7 = root_config(7)
    assert r7.h == cycle_graph(3) and all(r7.d[v] == 1 for v in range(3))
    r6 = root_config(6)
    assert r6.d[0] == 2 and r6.h.degree(0) == 0
    r3 = root_config(3)
    assert r3.h == cycle_graph(4)
    assert sorted(r3.true_degree(v) for v in range(4)) == [2, 3, 3, 3]


def test_root_true_degrees_three_for_regular_subspaces():
    for sid in (7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19):
        root = root_config(sid)
        assert all(root.true_degree(v) == 3 for v in root.h.vertices), sid


def test_contains_forbidden_examples():
    assert forbidden_by(root_config(7), assertions_for(7)) is None
    tri = LocalConfiguration(cycle_graph(3), {v: 1 for v in range(3)})
    assert forbidden_by(tri, assertions_for(8)) == 7  # triangle is P7 structure
    deg2 = LocalConfiguration(Graph([0]), {0: 2})
    assert forbidden_by(deg2, assertions_for(7)) == 6  # true degree 2 is P6 structure
    assert forbidden_by(deg2, assertions_for(6)) is None
    # a true-degree-2 triangle shows both: the smallest excluded id counts
    tri2 = LocalConfiguration(cycle_graph(3), {0: 0, 1: 1, 2: 1})
    assert forbidden_by(tri2, assertions_for(19)) == 6
    assert forbidden_by(tri2, assertions_for(6)) is None


def test_assertions_and_cost_lemmas():
    for sid in SUBSPACE_IDS:
        a = assertions_for(sid)
        assert a.no_deg3_with_two_deg2 == (sid >= 3)
        assert a.no_degree_2 == (sid >= 7)
        assert a.excluded_subspaces == tuple(range(1, sid))
    # a subspace's assertions pick its cost lemma
    for sid, lemma in ((2, 12), (3, 13), (6, 13), (7, 14), (19, 14)):
        root = root_config(sid)
        take = {min(root.h.vertices)}
        assert cost_bound(root, take, MU2, assertions_for(sid)).lemma_used == lemma, sid


def test_descriptor_bundles():
    # what a subspace bundles: name, root, assertions and detector
    k4 = instance_as_config(complete_graph(4))
    assert subspace_name(7) == "P7" and parse_subspace("P7") == 7
    assert root_config(7).h == cycle_graph(3)
    assert assertions_for(7).excluded_subspaces == tuple(range(1, 7))
    assert forbidden_by(k4, assertions_for(8)) == 7
    assert forbidden_by(k4, assertions_for(3)) is None
    assert forbidden_by(k4, assertions_for(1)) is None


def test_names_roundtrip():
    for sid in SUBSPACE_IDS:
        assert parse_subspace(subspace_name(sid)) == sid
    with pytest.raises(InputDomainError):
        parse_subspace("P20")
    with pytest.raises(InputDomainError):
        parse_subspace("Q1")
    assert parse_subspace("p3") == parse_subspace("3") == parse_subspace("P03") == 3
    for junk in ("PP3", "P+3", "p 3", " P3", "P\u0663", "P\u00b3", "P", ""):
        with pytest.raises(InputDomainError):
            parse_subspace(junk)


def simplification_free_corpus(seed, count, n_lo=6, n_hi=14):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = random_subcubic(rng, rng.randint(n_lo, n_hi))
        reduced, _ = simplify_fixpoint(Instance(g, 0))
        if reduced.graph.edge_count() > 0:
            out.append(reduced.graph)
    return out


def test_lemma_precondition_soundness_on_corpus():
    for g in simplification_free_corpus(73, 60):
        sid = classify(g)
        if sid >= 7:
            assert all(g.degree(v) != 2 for v in g.vertices)
        if sid >= 3:
            assert not any(
                g.degree(v) == 3
                and sum(1 for u in g.neighbors(v) if g.degree(u) == 2) >= 2
                for v in g.vertices
            )
        if sid >= 2:
            assert all(g.degree(v) >= 2 for v in g.vertices)


def test_root_anchors_every_corpus_instance():
    # consistency: an instance of subspace sid expands root_config(sid)
    for g in simplification_free_corpus(79, 40):
        sid = classify(g)
        phi = is_expansion(instance_as_config(g), root_config(sid))
        assert phi is not None, (sid, g)


def test_classify_simplification_free_never_p1():
    for g in simplification_free_corpus(83, 30):
        assert classify(g) != 1
