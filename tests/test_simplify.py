import random

import pytest

from corpus import is_cover, random_subcubic
from vcgen.configs import LocalConfiguration, instance_as_config
from vcgen.errors import ContractError
from vcgen.graphs import (
    Graph,
    Instance,
    VertexCoverSolver,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    vc_oracle,
)
from vcgen.simplify import (
    SimplificationSite,
    apply,
    config_site,
    find_site,
    lift_cover,
    simplify_fixpoint,
)


def claw() -> Graph:
    return Graph(range(4), [(0, 1), (0, 2), (0, 3)])


def test_find_site_k4_none():
    assert find_site(Instance(complete_graph(4), 3)) is None


def test_find_site_claw_rule2_smallest_leaf():
    site = find_site(Instance(claw(), 2))
    assert site == SimplificationSite(2, (1,))


def test_find_site_rule_order_degree1_before_cycle():
    # C6 with pendants on alternate vertices: the pendants are degree-1,
    # so rule 2 wins over the alternating-cycle rule
    g = cycle_graph(6)
    g = g.with_edge(0, 6).with_edge(2, 7).with_edge(4, 8)
    site = find_site(Instance(g, 6))
    assert site.rule_id == 2


def test_apply_rule2_claw():
    inst = Instance(claw(), 1)
    out = apply(inst, SimplificationSite(2, (1,)))
    assert sorted(out.graph.vertices) == [2, 3]
    assert out.graph.edge_count() == 0
    assert out.budget == 0


def test_apply_rule4_on_c5_gives_triangle():
    inst = Instance(cycle_graph(5), 3)
    out = apply(inst, SimplificationSite(4, (1, 2)))
    assert out.budget == 2
    assert sorted(out.graph.vertices) == [0, 3, 4]
    assert out.graph.edge_count() == 3  # triangle shape
    assert vc_oracle(inst.graph) - 1 == vc_oracle(out.graph)


def test_apply_rule5_alternating_square():
    # C4 0-1-2-3 with extra neighbors on 1 and 3: degrees 2,3,2,3
    g = cycle_graph(4).with_edge(1, 4).with_edge(3, 5)
    inst = Instance(g, 2)
    site = SimplificationSite(5, (0, 1, 2, 3))
    out = apply(inst, site)
    assert out.budget == 0
    assert sorted(out.graph.vertices) == [4, 5]
    assert vc_oracle(g) - 2 == vc_oracle(out.graph)


def test_apply_rule4_merges_parallel_edge():
    # adjacent outer neighbors with one of degree 3: the contracted edge
    # merges with the existing one and the graph stays simple
    g = Graph(range(5), [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
    inst = Instance(g, 2)
    out = apply(inst, SimplificationSite(4, (1, 2)))
    assert sorted(out.graph.vertices) == [0, 3, 4]
    assert out.graph.edge_count() == 2
    assert vc_oracle(inst.graph) - 1 == vc_oracle(out.graph)


def test_isolated_c4_goes_to_rule5_not_rule4():
    # contracting an isolated 4-cycle would raise k-mode measures; rule 5
    # removes the whole component instead
    inst = Instance(cycle_graph(4), 2)
    site = find_site(inst)
    assert site == SimplificationSite(5, (0, 1, 2, 3))
    out = apply(inst, site)
    assert len(out.graph) == 0 and out.budget == 0
    assert vc_oracle(inst.graph) == 2
    with pytest.raises(ContractError):
        apply(inst, SimplificationSite(4, (0, 1)))


def test_isolated_cycles_simplify_cleanly():
    # cycles reduce completely: C4 goes to rule 5 directly, longer cycles
    # chain through (measure-neutral) rule 4 until the 4-cycle remains
    from vcgen.measure import MU2, evaluate

    for n in range(3, 9):
        inst = Instance(cycle_graph(n), vc_oracle(cycle_graph(n)))
        while True:
            site = find_site(inst)
            if site is None:
                break
            out = apply(inst, site)
            assert evaluate(MU2, out) <= evaluate(MU2, inst)
            inst = out
        assert len(inst.graph) == 0 and inst.budget == 0, n


def test_apply_stale_site_rejected():
    with pytest.raises(ContractError):
        apply(Instance(complete_graph(4), 3), SimplificationSite(2, (0,)))
    with pytest.raises(ContractError):
        # adjacent degree-2 pair in a triangle shares its neighbor: rule 3 owns it
        apply(Instance(cycle_graph(3), 2), SimplificationSite(4, (0, 1)))


def test_apply_rejects_a_rule5_witness_that_is_no_cycle():
    # the middle edge of a path, or a cycle that repeats its vertices, has
    # every "cycle" edge present; taking one end of the middle edge would
    # leave the outer edges uncovered
    inst = Instance(path_graph(4), 1)
    for witness in [(1, 2), (1, 2, 1, 2)]:
        with pytest.raises(ContractError):
            apply(inst, SimplificationSite(5, witness))


def test_config_site_examples():
    lone1 = LocalConfiguration(Graph([0]), {0: 1})
    assert config_site(lone1) == SimplificationSite(2, (0,))
    lone3 = LocalConfiguration(Graph([0]), {0: 3})
    assert config_site(lone3) is None
    # complete triangle, apex true degree 2, base vertices true degree 3
    tri = LocalConfiguration(cycle_graph(3), {1: 1, 2: 1})
    assert config_site(tri) == SimplificationSite(3, (0, 1, 2))


def test_config_site_requires_certainty():
    # true degree 2 but second edge incomplete: rule 3 cannot be certain
    half = LocalConfiguration(Graph([0, 1], [(0, 1)]), {0: 1, 1: 2})
    assert config_site(half) is None
    # adjacent true-degree-2 pair is certain for rule 4 even with d > 0
    pair = LocalConfiguration(Graph([0, 1], [(0, 1)]), {0: 1, 1: 1})
    assert config_site(pair) == SimplificationSite(4, (0, 1))
    # alternating cycle on true degrees
    alt = LocalConfiguration(cycle_graph(4), {1: 1, 3: 1})
    assert config_site(alt) == SimplificationSite(5, (0, 1, 2, 3))


def test_config_site_matches_instance_rule_on_completions():
    # whenever config_site fires, the instance-level rule fires on hosts
    rng = random.Random(31)
    for _ in range(40):
        g = random_subcubic(rng, 8)
        l = instance_as_config(g)
        c = config_site(l)
        i = find_site(Instance(g, 5))
        assert (c is None) == (i is None)
        if c is not None:
            assert c == i


def decide(inst: Instance) -> bool:
    return vc_oracle(inst.graph) <= inst.budget


def test_answer_preservation_randomized():
    rng = random.Random(37)
    checked = 0
    for _ in range(300):
        g = random_subcubic(rng, rng.randint(3, 12))
        inst = Instance(g, rng.randint(0, 8))
        site = find_site(inst)
        if site is None:
            continue
        out = apply(inst, site)
        assert decide(inst) == decide(out)
        # strong form: the vc drop equals the budget drop
        assert vc_oracle(g) - vc_oracle(out.graph) == inst.budget - out.budget
        checked += 1
    assert checked > 100


def test_measure_never_increases_per_application():
    from vcgen.measure import MU1, MU2, Measure, evaluate
    from fractions import Fraction

    measures = (
        MU1,
        MU2,
        Measure(0, Fraction("0.02"), Fraction("0.04"), Fraction("0.1"), "n"),
        Measure(1, Fraction("-0.3"), Fraction("-0.4"), 0, "k"),
    )
    rng = random.Random(39)
    checked = 0
    for _ in range(400):
        g = random_subcubic(rng, rng.randint(3, 12))
        inst = Instance(g, 6)
        while True:
            site = find_site(inst)
            if site is None:
                break
            out = apply(inst, site)
            for m in measures:
                assert evaluate(m, out) <= evaluate(m, inst), (site, inst)
            inst = out
            checked += 1
    assert checked > 300


def test_progress_and_termination():
    rng = random.Random(41)
    for _ in range(60):
        g = random_subcubic(rng, 10)
        inst = Instance(g, 7)
        site = find_site(inst)
        if site is None:
            continue
        out = apply(inst, site)
        before = len(inst.graph) + inst.budget
        after = len(out.graph) + out.budget
        if site.rule_id == 1:
            assert len(out.graph) < len(inst.graph) and out.budget == inst.budget
        else:
            assert after < before


def test_fixpoint_has_no_sites_and_lifts_cover():
    rng = random.Random(43)
    for _ in range(60):
        g = random_subcubic(rng, 10)
        inst = Instance(g, vc_oracle(g))
        reduced, steps = simplify_fixpoint(inst)
        assert find_site(reduced) is None
        # lift an optimal cover of the reduced graph back to the original
        cover = lift_cover(steps, VertexCoverSolver(reduced.graph).cover())
        assert is_cover(g, cover)
        assert len(cover) <= inst.budget


def petersen_with_pendant_tree(depth: int) -> Graph:
    """The Petersen graph with its edge (0, 1) subdivided by vertex 10, and
    a complete binary tree of the given depth hung from 10 by its root 11."""
    edges = [e for e in petersen_graph().edges() if e != (0, 1)] + [(0, 10), (1, 10), (10, 11)]
    edges += [(v, 2 * v - 10 + i) for v in range(11, 2 ** depth + 10) for i in (0, 1)]
    return Graph(range(2 ** (depth + 1) + 10), edges)


@pytest.mark.parametrize("g, fires", [
    (path_graph(60), 30),  # rule 2, thirty times along the path
    (cycle_graph(41), 20),  # rule 4 contracts the cycle down to a triangle
    (petersen_with_pendant_tree(4), 20),  # rules 1 and 2 strip the tree
], ids=["path", "cycle", "pendant-tree"])
def test_fixpoint_edits_one_copy_of_the_graph(monkeypatch, g, fires):
    # the rules edit one working copy, so the fixpoint builds one Graph for
    # its result however many rules fire, and copies no graph per firing
    built = []
    init, from_adj = Graph.__init__, Graph._from_adj

    def copies(*args):
        raise AssertionError("the fixpoint copied the graph")

    inst = Instance(g, len(g))
    # a Graph is made by its constructor or, from an adjacency map, by _from_adj
    monkeypatch.setattr(Graph, "__init__", lambda self, *a: built.append(self) or init(self, *a))
    monkeypatch.setattr(Graph, "_from_adj", classmethod(lambda cls, *a: built.append(cls) or from_adj(*a)))
    monkeypatch.setattr(Graph, "without", copies)
    monkeypatch.setattr(Graph, "with_edge", copies)
    _, steps = simplify_fixpoint(inst)
    assert len(steps) >= fires
    assert len(built) == 1
