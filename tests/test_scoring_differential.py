"""Branch scoring against the reference in tests/reference_scoring.py.

The package scores all branches of a configuration in one pass, from each
branch's vertices and their neighbours in integer arithmetic, and tests
requirement coverage once per branch on vertex masks.  At a root, whose
candidates are all its vertex subsets, it scores every subset at once by a
recurrence over masks and reads coverage off each requirement's minimum
covers.  The reference builds the child configuration and runs the
Algorithm-3 test once per requirement.  Every cost exponent, every
`CostBound` field and every coverage mask must agree: on every
(configuration, candidate branch) pair that generating the two reference
table sets scores, and on seeded configuration corpora under every measure
and lemma assertion.  The subset scoring must also agree with the
per-branch scoring on every root and on seeded configurations of up to 12
vertices, and `minimum_covers` with brute force.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

import reference_scoring as ref
import vcgen.rulegen as rulegen
from corpus import MU_N20, build_tables, config_corpus, random_config, random_cubic, random_subcubic
from reference_requirements import eb
from vcgen.branching import (
    NO_ASSERTIONS,
    SubspaceAssertions,
    cost_bound,
    cost_exponents,
    subset_exponents,
)
from vcgen.configs import LocalConfiguration
from vcgen.errors import InputDomainError
from vcgen.graphs import Graph, VertexCoverSolver, cycle_graph
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


def subsets_of(l):
    """Every vertex subset of l, the empty one first, indexed by its mask
    over l's sorted vertices."""
    vs = sorted(l.h.vertices)
    return [frozenset(v for j, v in enumerate(vs) if b >> j & 1) for b in range(1 << len(vs))]


def test_generation_scores_match_reference(monkeypatch):
    """Each branch that the cost_exponents, cost_bound and cover_masks calls
    of both reference generations score is checked against the reference as
    it is scored."""
    scored = {"cost": 0, "cover": 0}

    def checked_cost_exponents(l, branches, m, assertions=NO_ASSERTIONS):
        got = cost_exponents(l, branches, m, assertions)
        for b, e in zip(branches, got, strict=True):
            assert e == ref.cost_bound(l, b, m, assertions).exponent * m.scaled[0], (l, sorted(b))
        scored["cost"] += len(got)
        return got

    def checked_cost_bound(l, b, m, assertions=NO_ASSERTIONS):
        assert_same_cost_bound(l, b, m, assertions)
        scored["cost"] += 1
        return cost_bound(l, b, m, assertions)

    cover_masks = RequirementContext.cover_masks

    def checked_cover_masks(ctx, branches, reqs):
        got = cover_masks(ctx, branches, reqs)
        for b, mask in zip(branches, got, strict=True):
            assert mask == ref.coverage_mask(ctx, b, reqs), (ctx.config, sorted(b), reqs)
        scored["cover"] += len(got)
        return got

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

    monkeypatch.setattr(rulegen, "cost_exponents", checked_cost_exponents)
    monkeypatch.setattr(rulegen, "cost_bound", checked_cost_bound)
    monkeypatch.setattr(RequirementContext, "cover_masks", checked_cover_masks)
    monkeypatch.setattr(rulegen, "subset_exponents", checked_subset_exponents)
    monkeypatch.setattr(RequirementContext, "subset_cover_masks", checked_subset_cover_masks)
    for m, mode in ((MU_N20, "randomized"), (pure_k(), "deterministic")):
        tables = build_tables(m, mode)
        assert all(t.complete for t in tables.values())
    # every candidate of every rule search (at a root, every nonempty vertex
    # subset), and every entry of every rule leaf, is scored and tested once
    assert scored["cost"] == scored["cover"] > 10_000


@pytest.mark.parametrize("m", [MU1, MU2, MU_N20, pure_k()], ids=["MU1", "MU2", "n20", "k"])
def test_cost_bound_matches_reference_on_corpus(m):
    for l in config_corpus(seed=29, count=60, max_n=7):
        for b in branches_of(l):
            for assertions in (NO_ASSERTIONS, L13, L14):
                assert_same_cost_bound(l, b, m, assertions)


@pytest.mark.parametrize("m", [MU1, MU2, MU_N20, pure_k(), Measure(0, 0, 0, Fraction("0.2000001"), "n")],
                         ids=["MU1", "MU2", "n20", "k", "b3=0.2000001"])
def test_cost_exponents_match_cost_bound_on_corpus(m):
    """The batched exponents are the per-branch ones over m.scaled[0]."""
    for l in config_corpus(seed=29, count=60, max_n=7):
        branches = branches_of(l)
        for assertions in (NO_ASSERTIONS, L13, L14):
            want = [cost_bound(l, b, m, assertions).exponent * m.scaled[0] for b in branches]
            assert cost_exponents(l, branches, m, assertions) == want, (l, m, assertions)


def test_coverage_matches_reference_on_corpus():
    """cover_masks, satisfies and eb against the per-requirement test, over
    every boundary requirement, crucial or not."""
    for l in config_corpus(seed=31, count=60, max_n=7):
        ctx = RequirementContext(l)
        delta = sorted(l.boundary())
        reqs = [frozenset(c) for size in range(len(delta) + 1)
                for c in itertools.combinations(delta, size)]
        for b in [frozenset()] + branches_of(l):
            want = ref.coverage_mask(ctx, b, reqs)
            assert ctx.cover_masks([b], reqs)[0] == want
            assert ctx.cover_masks([b], ctx.crucial_set())[0] == ref.coverage_mask(ctx, b, ctx.crucial_set())
            assert [ctx.satisfies(b, r) for r in reqs] == [bool(want >> i & 1) for i in range(len(reqs))]
            assert eb(ctx, b, reqs) == tuple(r for i, r in enumerate(reqs) if want >> i & 1)


def test_cost_bound_rejects_unknown_vertices_like_reference():
    l = config_corpus(seed=37, count=1, max_n=4)[0]
    stranger = max(l.h.vertices) + 1
    for score in (cost_bound, ref.cost_bound):
        with pytest.raises(InputDomainError):
            score(l, {stranger}, MU1)
    with pytest.raises(InputDomainError):
        cost_exponents(l, [frozenset(l.h.vertices), frozenset({stranger})], MU1)


def assert_subset_scores_match(l, reqs, measures, assertion_sets):
    """subset_exponents and subset_cover_masks, read at every subset's mask,
    against cost_exponents and cover_masks of the subset as a branch."""
    subsets = subsets_of(l)
    ctx = RequirementContext(l)
    assert ctx.subset_cover_masks(reqs) == ctx.cover_masks(subsets, reqs), (l, reqs)
    for m in measures:
        for assertions in assertion_sets:
            want = [0] + cost_exponents(l, subsets[1:], m, assertions)
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
