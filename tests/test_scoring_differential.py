"""Branch scoring against the reference in tests/reference_scoring.py.

The package scores all branches of a configuration in one pass, from each
branch's vertices and their neighbours in integer arithmetic, and tests
requirement coverage once per branch on vertex masks.  The reference
builds the child configuration and runs the Algorithm-3 test once per
requirement.  Every cost exponent, every `CostBound` field and every
coverage mask must agree: on every (configuration, candidate branch) pair
that generating the two reference table sets scores, and on seeded
configuration corpora under every measure and lemma assertion.
"""

import dataclasses
import itertools
from fractions import Fraction

import pytest

import reference_scoring as ref
import vcgen.rulegen as rulegen
from corpus import MU_N20, build_tables, config_corpus
from reference_requirements import eb
from vcgen.branching import NO_ASSERTIONS, SubspaceAssertions, cost_bound, cost_exponents
from vcgen.errors import InputDomainError
from vcgen.measure import MU1, MU2, Measure, pure_k
from vcgen.requirements import RequirementContext

L13 = SubspaceAssertions(no_deg3_with_two_deg2=True)
L14 = SubspaceAssertions(no_degree_2=True)


def assert_same_cost_bound(l, b, m, assertions):
    got = dataclasses.asdict(cost_bound(l, b, m, assertions))
    want = dataclasses.asdict(ref.cost_bound(l, b, m, assertions))
    assert got == want, (l, sorted(b), m, assertions)


def branches_of(l):
    vs = sorted(l.h.vertices)
    return [frozenset(c) for size in range(1, len(vs) + 1) for c in itertools.combinations(vs, size)]


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

    monkeypatch.setattr(rulegen, "cost_exponents", checked_cost_exponents)
    monkeypatch.setattr(rulegen, "cost_bound", checked_cost_bound)
    monkeypatch.setattr(RequirementContext, "cover_masks", checked_cover_masks)
    for m, mode in ((MU_N20, "randomized"), (pure_k(), "deterministic")):
        tables = build_tables(m, mode)
        assert all(t.complete for t in tables.values())
    # every candidate of every rule search, and every entry of every rule
    # leaf, is scored and tested once
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
