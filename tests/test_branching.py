import itertools
import random
from fractions import Fraction

import pytest

from corpus import config_corpus
from reference_scoring import apply_branch
from vcgen.branching import (
    SubspaceAssertions,
    cost_bound,
    cost_value,
    branch_sort_key,
    extend_branches,
    prune_dominated_indexed,
    seed_masks,
)
from vcgen.configs import LocalConfiguration, instance_as_config
from vcgen.errors import CapacityError
from vcgen.graphs import MAX_DEGREE, Graph, complete_graph, cycle_graph
from vcgen.measure import MU1, MU2, pure_k
from vcgen.requirements import RequirementContext


def lone(d):
    return LocalConfiguration(Graph([0]), {0: d})


def edge22():
    return LocalConfiguration(Graph([0, 1], [(0, 1)]), {0: 2, 1: 2})


def fs(*xs):
    return frozenset(xs)


def seed_branches(l):
    """All nonempty vertex subsets of l, as gensa seeds its root with them."""
    vs = sorted(l.h.vertices)
    return [frozenset(v for j, v in enumerate(vs) if b >> j & 1) for b in seed_masks(l)]


def test_seed_branches():
    assert seed_branches(lone(3)) == [fs(0)]
    assert seed_branches(edge22()) == [fs(0), fs(1), fs(0, 1)]
    assert len(seed_branches(instance_as_config(cycle_graph(3)))) == 7
    l = LocalConfiguration(Graph([4, 7, 9, 12], [(4, 7), (7, 9), (9, 12)]), {4: 2, 7: 1, 9: 1, 12: 2})
    assert seed_branches(l) == sorted(seed_branches(l), key=branch_sort_key)
    assert len(set(seed_branches(l))) == 15
    with pytest.raises(CapacityError):
        seed_branches(LocalConfiguration(Graph(range(17)), {}))


def test_extend_branches_formula():
    assert extend_branches([fs("a")], "a", "u") == [fs("a"), fs("a", "u")]
    assert extend_branches([], 0, 1) == []
    assert extend_branches([fs("a"), fs("b")], "a", "b") == [
        fs("a"),
        fs("a", "b"),
        fs("b"),
    ]


def test_extend_branches_with_empty_basis_entry():
    # keeping the empty branch in the basis regenerates the bare singletons
    out = extend_branches([frozenset(), fs("a")], "a", "u")
    assert fs("u") in out and fs("a") in out and fs("a", "u") in out
    assert frozenset() in out


def test_apply_branch_examples():
    k4 = instance_as_config(complete_graph(4))
    after = apply_branch(k4, {0, 1, 2})
    assert sorted(after.h.vertices) == [3]
    assert after.d[3] == 0

    after = apply_branch(edge22(), {0})
    assert sorted(after.h.vertices) == [1]
    assert after.h.degree(1) == 0 and after.d[1] == 2

    tri = LocalConfiguration(cycle_graph(3), {0: 1})
    after = apply_branch(tri, {0})
    assert sorted(after.h.edges()) == [(1, 2)]
    assert after.d[1] == 0 and after.d[2] == 0


def test_apply_branch_preserves_invariant():
    rng = random.Random(3)
    corpus = config_corpus(seed=3, count=30, max_n=6)
    for l in corpus:
        vs = sorted(l.h.vertices)
        b = frozenset(rng.sample(vs, rng.randint(1, len(vs))))
        after = apply_branch(l, b)
        for v in after.h.vertices:
            assert after.h.degree(v) + after.d[v] <= MAX_DEGREE


def test_cost_bound_edge_mu1():
    l = edge22()
    cb = cost_bound(l, {0}, MU1)
    assert cb.exponent == Fraction(-212, 1000)
    assert cb.dn3 == -2 and cb.dn2 == 1 and cb.dn1 == 0
    assert cb.profile.d32 == 1 and cb.profile.r22 == 1
    assert cb.lemma_used == 12


def test_cost_bound_k4():
    k4 = instance_as_config(complete_graph(4))
    cb1 = cost_bound(k4, {0, 1, 2}, MU1)
    assert cb1.exponent == Fraction(-424, 1000)
    assert cb1.dn3 == -4
    cb2 = cost_bound(k4, {0, 1, 2}, MU2)
    assert cb2.exponent == Fraction(-534, 1000)
    assert cb2.dn1 == 0 and cb2.dn2 == 0


def test_cost_bound_correction_term_mu2():
    # removing u leaves v with true degree 2 behind one incomplete edge:
    # d32 = 1 slot pair, r22 = 1, so lemma 12 pays 2 * max(b1-b2, -b1)
    l = edge22()
    cb = cost_bound(l, {0}, MU2)
    multiplier = max(MU2.beta1 - MU2.beta2, -MU2.beta1)
    expected = MU2.alpha * -1 + MU2.beta2 * 1 + max(
        Fraction(0), (2 + min(0, 2)) * multiplier
    )
    assert cb.exponent == expected


def test_cost_bound_lemma_selection_and_ordering():
    corpus = config_corpus(seed=11, count=40, max_n=5)
    l13 = SubspaceAssertions(no_deg3_with_two_deg2=True)
    l14 = SubspaceAssertions(no_degree_2=True)
    for l in corpus:
        vs = sorted(l.h.vertices)
        for size in range(1, len(vs) + 1):
            for b in itertools.combinations(vs, size):
                e12 = cost_bound(l, b, MU2).exponent
                e13 = cost_bound(l, b, MU2, l13).exponent
                e14 = cost_bound(l, b, MU2, l14).exponent
                assert e13 <= e12
                assert e14 <= e12
                assert cost_bound(l, b, MU2, l14).lemma_used == 14
                assert cost_bound(l, b, MU2, l13).lemma_used == 13


def test_cost_value_rounds_upward():
    v = cost_value(Fraction(-1))
    assert v > Fraction(1, 2)
    assert v < Fraction(1, 2) * (1 + Fraction(1, 2**39))
    assert cost_value(Fraction(0)) > 1


def prune_dominated(l, branches, crucial, m):
    """The branches that survive pruning, with costs and satisfier masks as
    the generator computes them."""
    ctx = RequirementContext(l)
    exponents = [cost_bound(l, b, m).exponent * m.scaled[0] for b in branches]
    masks = [
        sum(1 << i for i, r in enumerate(crucial) if ctx.satisfies(b, r))
        for b in branches
    ]
    return [branches[i] for i in prune_dominated_indexed(branches, exponents, masks)]


def test_prune_removes_duplicate():
    l = edge22()
    crucial = RequirementContext(l).crucial_set()
    kept = prune_dominated(l, [fs(0), fs(0)], crucial, MU1)
    assert kept == [fs(0)]


def test_prune_edge_example_mu1():
    # {0,1} costs the same as {0} but satisfies nothing: dominated
    l = edge22()
    crucial = RequirementContext(l).crucial_set()
    kept = prune_dominated(l, [fs(0), fs(1), fs(0, 1)], crucial, MU1)
    assert fs(0, 1) not in kept
    assert fs(0) in kept and fs(1) in kept


def test_prune_keeps_incomparable():
    l = edge22()
    crucial = RequirementContext(l).crucial_set()
    # cheaper branch with incomparable satisfier set survives
    kept = prune_dominated(l, [fs(0), fs(1)], crucial, pure_k())
    assert set(kept) == {fs(0), fs(1)}


def test_prune_preserves_requirement_coverage():
    corpus = config_corpus(seed=13, count=30, max_n=5, require_site_free=True)
    for l in corpus:
        ctx = RequirementContext(l)
        crucial = ctx.crucial_set()
        branches = seed_branches(l)
        kept = prune_dominated(l, branches, crucial, MU2)
        for r in crucial:
            had = any(ctx.satisfies(b, r) for b in branches)
            if had:
                assert any(ctx.satisfies(b, r) for b in kept)
