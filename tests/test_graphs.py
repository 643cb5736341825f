import itertools
import random

import pytest

from corpus import brute_force_vc, random_subcubic
from vcgen.errors import CapacityError, InputDomainError
from vcgen.graphs import (
    Graph,
    Instance,
    VertexCoverSolver,
    WorkingGraph,
    complete_graph,
    cycle_graph,
    enumerate_cycles,
    format_graph,
    format_instance,
    parse_graph,
    parse_instance,
    path_graph,
    petersen_graph,
    vc_oracle,
)


def test_delete_identity_on_empty():
    g = Graph()
    assert g.without(set()) == g


def test_delete_vertex_from_clique():
    g = complete_graph(4)
    assert g.without({0}) == Graph([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    assert sorted(g.without({0}).vertices) == [1, 2, 3]
    assert g.without({0}).edge_count() == 3


def test_delete_two_from_c5_leaves_path():
    # C5 a-b-c-d-e as 0-1-2-3-4; removing {1, 2} leaves the path 3-4-0
    g = cycle_graph(5)
    h = g.without({1, 2})
    assert sorted(h.vertices) == [0, 3, 4]
    assert sorted(h.edges()) == [(0, 4), (3, 4)]


def test_delete_unknown_vertex_rejected():
    with pytest.raises(InputDomainError):
        cycle_graph(3).without({7})


def test_delete_composes_over_disjoint_sets():
    rng = random.Random(7)
    for _ in range(25):
        g = random_subcubic(rng, 9)
        a = set(rng.sample(sorted(g.vertices), 2))
        b = set(rng.sample(sorted(g.vertices - a), 2))
        assert g.without(a).without(b) == g.without(a | b)


def _same_graph(a: Graph, b: Graph) -> bool:
    return (a == b and hash(a) == hash(b) and a.vertices == b.vertices
            and list(a.edges()) == list(b.edges()))


def test_edits_equal_a_rebuild_and_leave_the_source_alone():
    rng = random.Random(41)
    for _ in range(60):
        g = random_subcubic(rng, rng.randint(1, 12))
        twin = Graph(g.vertices, g.edges())
        vs = sorted(g.vertices)
        s = set(rng.sample(vs, rng.randint(0, len(vs))))
        keep = g.vertices - s
        rebuilt = Graph(keep, [(u, v) for u, v in g.edges() if u in keep and v in keep])
        assert _same_graph(g.without(s), rebuilt)
        spare = [x for x in vs if g.degree(x) < 3]
        if spare:
            u = rng.choice(spare)
            v = rng.choice([x for x in spare if x != u] + [max(vs) + 1])  # may be new
            rebuilt = Graph(g.vertices | {u, v}, [*g.edges(), (u, v)])
            assert _same_graph(g.with_edge(u, v), rebuilt)
        full = [x for x in vs if g.degree(x) == 3]
        if full:
            with pytest.raises(InputDomainError):
                g.with_edge(rng.choice(full), max(vs) + 1)
        assert _same_graph(g, twin)


def test_graphs_are_subcubic_by_construction():
    star = [(0, i) for i in range(1, 5)]
    with pytest.raises(InputDomainError):
        Graph(range(5), star)
    claw = Graph(range(5), star[:3])
    with pytest.raises(InputDomainError):
        claw.with_edge(0, 4)
    with pytest.raises(InputDomainError):
        claw.with_edge(4, 0)
    assert claw.with_edge(0, 1) == claw  # an edge already there adds no degree


def test_no_self_loops_or_parallel_edges():
    with pytest.raises(InputDomainError):
        Graph([0], [(0, 0)])
    g = Graph([0, 1], [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


def test_oracle_trivial_and_known_values():
    assert vc_oracle(Graph()) == 0
    assert vc_oracle(complete_graph(4)) == 3  # a 4-clique needs three vertices
    assert vc_oracle(cycle_graph(5)) == 3
    assert vc_oracle(petersen_graph()) == 6
    assert vc_oracle(path_graph(4)) == 2


def test_oracle_cap():
    with pytest.raises(CapacityError):
        vc_oracle(Graph(range(25)))


def test_oracle_matches_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        g = random_subcubic(rng, rng.randint(1, 9))
        assert vc_oracle(g) == brute_force_vc(g)


def test_oracle_vertex_removal_bracket():
    # VC(G - v) <= VC(G) <= VC(G - v) + 1 for every vertex
    rng = random.Random(13)
    for _ in range(20):
        g = random_subcubic(rng, 8)
        vc = vc_oracle(g)
        for v in g.vertices:
            sub = vc_oracle(g.without({v}))
            assert sub <= vc <= sub + 1


def test_oracle_monotone_under_edge_deletion():
    rng = random.Random(17)
    for _ in range(20):
        g = random_subcubic(rng, 8)
        vc = vc_oracle(g)
        for u, v in g.edges():
            keep = [e for e in g.edges() if e != (u, v)]
            assert vc_oracle(Graph(g.vertices, keep)) <= vc


def test_cover_witness_is_optimal_cover():
    rng = random.Random(19)
    for _ in range(30):
        g = random_subcubic(rng, 9)
        cover = VertexCoverSolver(g).cover()
        assert len(cover) == vc_oracle(g)
        assert all(u in cover or v in cover for u, v in g.edges())


def lexicographically_first_cover(g: Graph) -> frozenset[int]:
    """The first minimum cover among all vertex subsets listed by size,
    then in lexicographic order of their sorted vertices."""
    vs, edges = sorted(g.vertices), list(g.edges())
    for size in range(len(vs) + 1):
        for cand in itertools.combinations(vs, size):
            if all(u in cand or v in cand for u, v in edges):
                return frozenset(cand)
    raise AssertionError("unreachable")


def test_cover_is_the_first_minimum_cover():
    """cover() is the first cover of the enumeration minimum_covers lists,
    and that is the lexicographically first minimum cover, on seeded
    subcubic graphs with shuffled, gapped labels."""
    rng = random.Random(61)
    for _ in range(200):
        n = rng.randint(1, 13)
        h = random_subcubic(rng, n)
        names = rng.sample(range(3 * n), n)
        g = Graph(names, [(names[u], names[v]) for u, v in h.edges()])
        solver = VertexCoverSolver(g)
        cover = solver.cover()
        assert solver.mask_of(cover) == solver.minimum_covers(solver.full_mask)[0]
        assert cover == lexicographically_first_cover(g), g


def test_solver_masks_reusable():
    g = cycle_graph(6)
    solver = VertexCoverSolver(g)
    assert solver.vc() == 3
    assert solver.vc(solver.mask_of({0, 1, 2})) == 1
    assert solver.vc(solver.mask_of(set())) == 0


def test_cycles_triangle():
    assert enumerate_cycles(cycle_graph(3), 8) == [(0, 1, 2)]


def test_cycles_k4_counts():
    cycles = enumerate_cycles(complete_graph(4), 8)
    assert sum(1 for c in cycles if len(c) == 3) == 4
    assert sum(1 for c in cycles if len(c) == 4) == 3
    assert len(cycles) == 7


def test_cycles_c8():
    cycles = enumerate_cycles(cycle_graph(8), 8)
    assert cycles == [(0, 1, 2, 3, 4, 5, 6, 7)]
    assert enumerate_cycles(cycle_graph(8), 7) == []


def test_cycles_are_canonical_and_valid():
    rng = random.Random(23)
    for _ in range(25):
        g = random_subcubic(rng, 10)
        cycles = enumerate_cycles(g, 8)
        assert len(set(cycles)) == len(cycles)
        for c in cycles:
            assert c[0] == min(c)
            assert c[1] < c[-1]
            for i in range(len(c)):
                assert g.has_edge(c[i], c[(i + 1) % len(c)])


def cycle_search_cases(rng: random.Random):
    """Seeded subcubic graphs, every other one as dense as degree 3 allows,
    each followed by a working graph made from it by a few vertex deletions
    and edge insertions."""
    for i in range(60):
        n = rng.randint(6, 16)
        g = random_subcubic(rng, n, (3 * n) // 2 if i % 2 else None)
        yield g
        work = WorkingGraph(g)
        for _ in range(4):
            vs = sorted(work.vertices)
            if rng.random() < 0.4:
                work.remove([rng.choice(vs)])
                continue
            free = [v for v in vs if work.degree(v) < 3]
            pairs = [(u, v) for u in free for v in free if u < v and not work.has_edge(u, v)]
            if pairs:
                work.add_edge(*rng.choice(pairs))
        yield work


def walks(c: tuple[int, ...]):
    """The cycle c from each of its vertices, in both directions."""
    for r in (c, c[::-1]):
        for i in range(len(r)):
            yield r[i:] + r[:i]


def test_cycles_through_vertices_and_kept_filter_the_full_list():
    rng = random.Random(37)
    met = kept_some = 0
    for g in cycle_search_cases(rng):
        vs = sorted(g.vertices)
        for length in (5, 8):
            full = enumerate_cycles(g, length)
            if isinstance(g, WorkingGraph):
                assert full == enumerate_cycles(g.freeze(), length)
            through = set(rng.sample(vs, rng.randint(0, len(vs) // 2)))
            meet = [c for c in full if through.intersection(c)]
            assert enumerate_cycles(g, length, through=through) == meet
            met += len(full) > len(meet) > 0

            # whether keep admits a walk depends on the cycle alone
            allowed = set(rng.sample(vs, rng.randint(len(vs) // 2, len(vs))))

            def keep(path: list[int], w: int) -> bool:
                return path[0] in allowed and w in allowed

            kept = [c for c in full
                    if all(keep(list(r[:i]), r[i]) for r in walks(c) for i in range(1, len(c)))]
            assert enumerate_cycles(g, length, keep) == kept
            assert enumerate_cycles(g, length, keep, through) == [
                c for c in kept if through.intersection(c)]
            kept_some += len(full) > len(kept) > 0
    assert met >= 50 and kept_some >= 50, (met, kept_some)


def test_petersen_girth_five():
    cycles = enumerate_cycles(petersen_graph(), 8)
    assert min(len(c) for c in cycles) == 5


def test_graph_roundtrip():
    g = random_subcubic(random.Random(29), 8)
    assert parse_graph(format_graph(g)) == g


def test_instance_roundtrip_and_comments():
    inst = Instance(cycle_graph(5), 3)
    text = "c a comment\n" + format_instance(inst)
    back = parse_instance(text)
    assert back == inst


def test_parse_errors():
    with pytest.raises(InputDomainError):
        parse_graph("e 0 1\n")
    with pytest.raises(InputDomainError):
        parse_graph("p vc 2 1\ne 0 5\n")
    with pytest.raises(InputDomainError):
        parse_instance(format_graph(cycle_graph(3)))


@pytest.mark.parametrize("text", [
    "p vc 3 1\ne 0 x\nk 1\n",
    "p vc 3 1\ne 0 1\nk\n",
    "p vc 3 1\ne 0 1\nk 1 2\n",
    "p vc 3 1\ne 0 1\nk one\n",
    "p vc x 3\ne 0 1\nk 1\n",
    "p vc 3 1\np vc 3 1\ne 0 1\nk 1\n",  # a second problem line
    "p vc 3 1\ne 0 1\nk 1\nk 2\n",  # a second budget line
    "e 0 1\np vc 3 1\nk 1\n",  # an edge before the problem line
    "p vc -3 0\nk 1\n",
    "p vc 3 2\ne 0 1\ne 1 0\nk 1\n",  # a repeated edge
    "p vc 3 5\ne 0 1\ne 1 2\nk 1\n",  # fewer edge lines than declared
    "p vc 3 1\ne 0 1\ne 1 2\nk 1\n",  # more edge lines than declared
])
def test_parse_rejects_malformed_fields(text):
    with pytest.raises(InputDomainError):
        parse_instance(text)
