"""Branch scoring against the reference in tests/reference_scoring.py.

Generation names every candidate branch by its mask over the
configuration's sorted vertices.  A root's candidates are all its vertex
subsets, scored at once by a recurrence over masks; below the root, each
candidate is scored by the same per-vertex terms, and a child's
candidates are its parent's survivors extended by the new edge.  At every
depth coverage is read off each requirement's minimum covers; only
certification tests the vc equation.  The reference works on vertex sets:
it builds the child configuration, runs the Algorithm-3 test once per
requirement, and extends and sorts the candidates as sets.  Every cost
exponent, every `CostBound` field, every coverage mask and every child's
candidate list must agree: on every (configuration, candidate branch) pair and every expanded node
that generating the two reference table sets scores (and, for the
candidate lists, the deep tables too), and on seeded configuration corpora
under every measure and lemma assertion.  The subset scoring must also
agree with the per-branch scoring on every root and on seeded
configurations of up to 12 vertices, and `minimum_covers` with brute
force.  Generation's coverage must agree with certification's on every
pair generation tests, and at ORACLE_CAP, where a requirement has the
most minimum covers.
"""

import dataclasses
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import reference_scoring as ref
import vcgen.rulegen as rulegen
from corpus import (
    MU_N20,
    build_tables,
    config_corpus,
    deep_tables,
    random_config,
    random_cubic,
    random_subcubic,
)
from reference_requirements import eb
from vcgen.branching import (
    NO_ASSERTIONS,
    SubspaceAssertions,
    cost_bound,
    mask_exponents,
    prune_dominated_indexed,
    subset_exponents,
)
from vcgen.configs import LocalConfiguration
from vcgen.errors import InputDomainError
from vcgen.graphs import ORACLE_CAP, Graph, VertexCoverSolver, cycle_graph
from vcgen.measure import MU1, MU2, Measure, pure_k
from vcgen.requirements import RequirementContext
from vcgen.subspaces import assertions_for, root_config

L13 = SubspaceAssertions(no_deg3_with_two_deg2=True)
L14 = SubspaceAssertions(no_degree_2=True)


def assert_same_cost_bound(l, b, m, assertions):
    got = dataclasses.asdict(cost_bound(l, b, m, assertions))
    want = dataclasses.asdict(ref.cost_bound(l, b, m, assertions))
    assert got == want, (l, sorted(b), m, assertions)


MEASURES = [pure_k(), MU_N20, Measure(0, 0, 0, Fraction(1, 8), "n"), MU1, MU2,
            Measure(0, 0, 0, Fraction("0.2000001"), "n")]
MEASURE_IDS = ["k", "n20", "n8", "MU1", "MU2", "b3=0.2000001"]


def branches_of(l):
    vs = sorted(l.h.vertices)
    return [frozenset(c) for size in range(1, len(vs) + 1) for c in itertools.combinations(vs, size)]


def set_of(l, b):
    """The vertex set of l that mask b names over l's sorted vertices."""
    return frozenset(v for j, v in enumerate(sorted(l.h.vertices)) if b >> j & 1)


def subsets_of(l):
    """Every vertex subset of l, the empty one first, indexed by its mask
    over l's sorted vertices."""
    return [set_of(l, b) for b in range(1 << len(l.h.vertices))]


def test_generation_scores_match_reference(monkeypatch):
    """Each branch that the mask_exponents, cost_bound, listed_cover_masks
    and cover_masks calls of both reference generations score is checked
    against the reference as it is scored."""
    scored = {"cost": 0, "cover": 0}

    def checked_mask_exponents(l, masks, m, assertions=NO_ASSERTIONS):
        got = mask_exponents(l, masks, m, assertions)
        for b, e in zip([set_of(l, b) for b in masks], got, strict=True):
            assert e == ref.cost_bound(l, b, m, assertions).exponent * m.scaled[0], (l, sorted(b))
        scored["cost"] += len(got)
        return got

    def checked_cost_bound(l, b, m, assertions=NO_ASSERTIONS):
        assert_same_cost_bound(l, b, m, assertions)
        scored["cost"] += 1
        return cost_bound(l, b, m, assertions)

    def checked(cover_masks):
        def checked_cover_masks(ctx, branches, reqs):
            got = cover_masks(ctx, branches, reqs)
            for b, mask in zip(branches, got, strict=True):
                b = set_of(ctx.config, b)
                assert mask == ref.coverage_mask(ctx, b, reqs), (ctx.config, sorted(b), reqs)
            scored["cover"] += len(got)
            return got
        return checked_cover_masks

    def checked_subset_exponents(l, m, assertions=NO_ASSERTIONS):
        got = subset_exponents(l, m, assertions)
        for b, e in zip(subsets_of(l)[1:], got[1:], strict=True):
            assert e == ref.cost_bound(l, b, m, assertions).exponent * m.scaled[0], (l, sorted(b))
        scored["cost"] += len(got) - 1
        return got

    subset_cover_masks = RequirementContext.subset_cover_masks

    def checked_subset_cover_masks(ctx, reqs):
        got = subset_cover_masks(ctx, reqs)
        for b, mask in zip(subsets_of(ctx.config)[1:], got[1:], strict=True):
            assert mask == ref.coverage_mask(ctx, b, reqs), (ctx.config, sorted(b), reqs)
        scored["cover"] += len(got) - 1
        return got

    monkeypatch.setattr(rulegen, "mask_exponents", checked_mask_exponents)
    monkeypatch.setattr(rulegen, "cost_bound", checked_cost_bound)
    for name in ("listed_cover_masks", "cover_masks"):
        monkeypatch.setattr(RequirementContext, name, checked(getattr(RequirementContext, name)))
    monkeypatch.setattr(rulegen, "subset_exponents", checked_subset_exponents)
    monkeypatch.setattr(RequirementContext, "subset_cover_masks", checked_subset_cover_masks)
    for m, mode in ((MU_N20, "randomized"), (pure_k(), "deterministic")):
        tables = build_tables(m, mode)
        assert all(t.complete for t in tables.values())
    # every candidate of every rule search (at a root, every nonempty vertex
    # subset), and every entry of every rule leaf, is scored and tested once:
    # 1,364 candidates below the roots (listed_cover_masks), 20,164 root
    # subsets (subset_cover_masks), 171 leaf entries (cover_masks)
    assert scored["cost"] == scored["cover"] == 1_364 + 20_164 + 171


def test_generation_coverage_matches_the_vc_equation(monkeypatch):
    """Below the roots, generation reads coverage off minimum covers
    (listed_cover_masks) and certification tests the vc equation
    (cover_masks): the two agree on every (candidate, crucial requirement)
    pair of both reference generations and of the deep tables."""
    listed_cover_masks, pairs = RequirementContext.listed_cover_masks, []

    def compared(ctx, branches, reqs):
        got = listed_cover_masks(ctx, branches, reqs)
        assert got == ctx.cover_masks(branches, reqs), (ctx.config, reqs)
        pairs[-1] += len(got) * len(reqs)
        return got

    monkeypatch.setattr(RequirementContext, "listed_cover_masks", compared)
    for generate in (lambda: build_tables(MU_N20, "randomized"),
                     lambda: build_tables(pure_k(), "deterministic"), deep_tables):
        pairs.append(0)
        assert all(t.complete for t in generate().values())
    # (candidate, crucial requirement) pairs below the roots, per table set
    assert pairs == [6_030, 40, 86_027]


def test_child_candidates_match_reference_extension(monkeypatch):
    """At every expanded node of both reference generations and of the deep
    tables, each child that generation scores gets as candidates, read as
    vertex sets, the reference extension of the node's surviving branches
    and the empty one by the child's new edge, nonempty, in branch_sort_key
    order."""
    scored = {}  # id(config) -> (config, its candidates, its survivors)
    current = []

    def recording(score):
        def recorded(l, *args):
            current[:] = [l]
            return score(l, *args)
        return recorded

    def recorded_prune(candidates, exponents, masks):
        keep = prune_dominated_indexed(candidates, exponents, masks)
        (l,) = current
        scored[id(l)] = (l, list(candidates), [candidates[i] for i in keep])
        return keep

    monkeypatch.setattr(rulegen, "mask_exponents", recording(mask_exponents))
    monkeypatch.setattr(rulegen, "subset_exponents", recording(subset_exponents))
    monkeypatch.setattr(rulegen, "prune_dominated_indexed", recorded_prune)
    tables = [*build_tables(MU_N20, "randomized").values(),
              *build_tables(pure_k(), "deterministic").values(), *deep_tables().values()]
    checked = Counter()
    for t in tables:
        assert t.complete
        nodes = t.tree.nodes
        for node in nodes:
            if node.kind != "expanded":
                continue
            config, _, survivors = scored[id(node.config)]
            assert config is node.config
            basis = [frozenset()] + [set_of(config, b) for b in survivors]
            for child_ref in node.children:
                if child_ref.node is None:
                    continue
                child = nodes[child_ref.node]
                if not (child.kind == "expanded" or child.kind == "leaf" and child.leaf.kind == "rule"):
                    assert id(child.config) not in scored
                    continue
                ((u, v),) = set(child.config.h.edges()) - set(config.h.edges())
                want = sorted(set(ref.extend_branches(basis, u, v)) - {frozenset()}, key=ref.branch_sort_key)
                _, candidates, _ = scored[id(child.config)]
                assert [set_of(child.config, b) for b in candidates] == want, (config, child_ref.label)
                checked[child_ref.label[0]] += 1
    assert checked["internal"] > 0 and checked["new"] > 0, checked


@pytest.mark.parametrize("m", [MU1, MU2, MU_N20, pure_k()], ids=["MU1", "MU2", "n20", "k"])
def test_cost_bound_matches_reference_on_corpus(m):
    for l in config_corpus(seed=29, count=60, max_n=7):
        for b in branches_of(l):
            for assertions in (NO_ASSERTIONS, L13, L14):
                assert_same_cost_bound(l, b, m, assertions)


@pytest.mark.parametrize("m", [MU1, MU2, MU_N20, pure_k(), Measure(0, 0, 0, Fraction("0.2000001"), "n")],
                         ids=["MU1", "MU2", "n20", "k", "b3=0.2000001"])
def test_cost_exponents_match_cost_bound_on_corpus(m):
    """mask_exponents are the per-branch exponents of cost_bound over
    m.scaled[0]."""
    for l in config_corpus(seed=29, count=60, max_n=7):
        branches = branches_of(l)
        vs = sorted(l.h.vertices)
        masks = [sum(1 << vs.index(v) for v in b) for b in branches]
        for assertions in (NO_ASSERTIONS, L13, L14):
            want = [cost_bound(l, b, m, assertions).exponent * m.scaled[0] for b in branches]
            assert mask_exponents(l, masks, m, assertions) == want, (l, m, assertions)


def test_coverage_matches_reference_on_corpus():
    """cover_masks, listed_cover_masks, satisfies and eb against the
    per-requirement test, over every boundary requirement, crucial or not."""
    for l in config_corpus(seed=31, count=60, max_n=7):
        ctx = RequirementContext(l)
        delta = sorted(l.boundary())
        reqs = [frozenset(c) for size in range(len(delta) + 1)
                for c in itertools.combinations(delta, size)]
        for b in [frozenset()] + branches_of(l):
            want = ref.coverage_mask(ctx, b, reqs)
            b_mask, crucial = ctx.solver.mask_of(b), ctx.crucial_set()
            assert ctx.cover_masks([b_mask], reqs)[0] == want
            assert ctx.listed_cover_masks([b_mask], reqs)[0] == want
            assert ctx.cover_masks([b_mask], crucial)[0] == ref.coverage_mask(ctx, b, crucial)
            assert [ctx.satisfies(b, r) for r in reqs] == [bool(want >> i & 1) for i in range(len(reqs))]
            assert eb(ctx, b, reqs) == tuple(r for i, r in enumerate(reqs) if want >> i & 1)


def test_cost_bound_rejects_unknown_vertices_like_reference():
    l = config_corpus(seed=37, count=1, max_n=4)[0]
    stranger = max(l.h.vertices) + 1
    for score in (cost_bound, ref.cost_bound):
        with pytest.raises(InputDomainError):
            score(l, {stranger}, MU1)


def assert_subset_scores_match(l, reqs, measures, assertion_sets):
    """subset_exponents and subset_cover_masks, read at every subset's mask,
    against cost_bound and cover_masks of the subset as a branch."""
    subsets = subsets_of(l)
    ctx = RequirementContext(l)
    assert ctx.subset_cover_masks(reqs) == ctx.cover_masks(range(len(subsets)), reqs), (l, reqs)
    for m in measures:
        for assertions in assertion_sets:
            want = [0] + [cost_bound(l, b, m, assertions).exponent * m.scaled[0] for b in subsets[1:]]
            assert subset_exponents(l, m, assertions) == want, (l, m, assertions)


@pytest.mark.parametrize("m", MEASURES, ids=MEASURE_IDS)
def test_subset_scores_match_branch_scores_on_roots(m):
    for sid in range(1, 20):
        root = root_config(sid)
        reqs = RequirementContext(root).crucial_set()
        assert_subset_scores_match(root, reqs, [m], [assertions_for(sid), NO_ASSERTIONS])


def test_subset_scores_match_branch_scores_on_seeded_configurations():
    """Configurations of 1 to 12 vertices with boundary, against the crucial
    set and a seeded sample of other boundary requirements."""
    rng = random.Random(41)
    checked = 0
    while checked < 36:
        l = random_config(rng, rng.randint(1, 12))
        delta = sorted(l.boundary())
        if not delta:
            continue
        ctx = RequirementContext(l)
        every = [frozenset(c) for size in range(len(delta) + 1)
                 for c in itertools.combinations(delta, size)]
        reqs = list(ctx.crucial_set()) + rng.sample(every, min(len(every), 6))
        assert_subset_scores_match(l, reqs, MEASURES, (NO_ASSERTIONS, L13, L14))
        checked += 1


def brute_force_minimum_covers(mask, edges):
    """Every submask of mask covering each edge inside it, of the least size."""
    inside = [(a, b) for a, b in edges if a & mask and b & mask]
    subs = [s for s in range(mask + 1) if s & ~mask == 0
            and all(s & a or s & b for a, b in inside)]
    least = min(map(int.bit_count, subs))
    return sorted(s for s in subs if s.bit_count() == least)


def cover_test_graphs():
    rng = random.Random(43)
    yield Graph(range(7))  # edgeless
    yield Graph(range(12), [(2 * i, 2 * i + 1) for i in range(6)])  # perfect matching
    yield Graph(range(11), [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6), (6, 7), (7, 8), (8, 5)])
    yield cycle_graph(9)
    yield Graph(range(12), [(u, v) for u, v in random_cubic(rng, 6).edges()]
                + [(u + 6, v + 6) for u, v in random_cubic(rng, 6).edges()])  # disconnected
    for _ in range(30):
        yield random_subcubic(rng, rng.randint(1, 12))
    for n in (4, 8, 10, 12):
        yield random_cubic(rng, n)


def test_minimum_covers_match_brute_force():
    rng = random.Random(47)
    for g in cover_test_graphs():
        solver = VertexCoverSolver(g)
        edges = [(solver.mask_of((u,)), solver.mask_of((v,))) for u, v in g.edges()]
        masks = [solver.full_mask] + [rng.getrandbits(len(g)) for _ in range(4)]
        for mask in masks:
            got = solver.minimum_covers(mask)
            assert len(set(got)) == len(got), (g, mask)
            assert sorted(got) == brute_force_minimum_covers(mask, edges), (g, mask)
            assert all(c.bit_count() == solver.vc(mask) for c in got)


def test_coverage_at_oracle_cap_lists_every_minimum_cover():
    """Eight disjoint triangles fill ORACLE_CAP with the most minimum covers
    any graph of that size has, 3^8 (Moon and Moser): the listing for the
    empty requirement holds them all, and coverage read off the listings
    agrees with the vc equation on seeded branches."""
    triangles = [(3 * t + i, 3 * t + (i + 1) % 3) for t in range(8) for i in range(3)]
    # one vertex of each triangle keeps an incomplete edge: 8 boundary vertices
    l = LocalConfiguration(Graph(range(ORACLE_CAP), triangles), {3 * t: 1 for t in range(8)})
    ctx = RequirementContext(l)
    (empty,) = ctx.cover_sets([frozenset()])
    assert len(empty) == len(set(empty)) == 3 ** 8
    assert all(s.bit_count() == 16 for s in empty)
    rng = random.Random(53)
    reqs = [frozenset(), *ctx.crucial_set(),
            *(frozenset(rng.sample(sorted(l.boundary()), k)) for k in (1, 3, 8))]
    branches = [rng.getrandbits(ORACLE_CAP) & rng.getrandbits(ORACLE_CAP) for _ in range(40)]
    branches += empty[:10]  # each satisfies the empty requirement
    got = ctx.listed_cover_masks(branches, reqs)
    assert got == ctx.cover_masks(branches, reqs)
    assert all(mask & 1 for mask in got[-10:])
