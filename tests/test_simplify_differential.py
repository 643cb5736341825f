"""The simplification rules against tests/reference_simplify.py, the version
that logged a graph snapshot per simplification and re-derived each rule's
effect from it to lift a cover.

On two seeded corpora the fixpoint must log the steps the reference's
sites imply, one for one, leave the same instance, and lift every cover of
the reduced graph it is given, a minimum one or a larger one, to the same
cover of the original.  Given a set to take from a graph on which no rule
applied, it must log the take first and then fire exactly what the
reference's full scan of the rest fires, both on such graphs with random
takes and at every fixpoint of a run of each solve engine.
"""

import random
from collections import Counter

import pytest

import reference_simplify as ref
from corpus import is_cover, random_cubic, random_subcubic
from vcgen import runtime, simplify
from vcgen.graphs import Graph, Instance, VertexCoverSolver
from vcgen.runtime import TrialPlan


def subdivided_cubic(rng: random.Random, n: int) -> Graph:
    """A random cubic graph with a random half of its edges subdivided:
    degree-2 vertices between degree-3 ones, so alternating cycles (rule 5)
    occur often."""
    g = random_cubic(rng, n)
    edges, nxt = [], n
    for u, v in g.edges():
        if rng.random() < 0.5:
            edges += [(u, nxt), (nxt, v)]
            nxt += 1
        else:
            edges.append((u, v))
    return Graph(range(nxt), edges)


def corpus():
    rng = random.Random(53)
    for _ in range(150):
        n = rng.randint(4, 16)
        yield Instance(random_subcubic(rng, n), rng.randint(0, n))
    for _ in range(150):
        g = subdivided_cubic(rng, rng.choice((4, 6, 8)))
        yield Instance(g, rng.randint(0, len(g)))


def kind(site, g_before: Graph) -> str:
    """The rule, with rule 5 split into its alternating and all-degree-2 forms."""
    if site.rule_id == 5:
        return "5-cycle" if all(g_before.degree(x) == 2 for x in site.witness) else "5-alternating"
    return str(site.rule_id)


def ref_lift(events, cover: frozenset) -> frozenset:
    for site, g_before in reversed(events):
        cover = ref.lift_cover(g_before, site, cover)
    return cover


def test_fixpoint_and_lift_match_reference():
    # the steps and the reduced instance are all that the fixpoint hands
    # back; step for step they must be what the reference's sites imply
    rng = random.Random(59)
    seen: Counter = Counter()
    for inst in corpus():
        reduced, steps = simplify.simplify_fixpoint(inst)
        want_reduced, events = ref.simplify_fixpoint(inst)
        assert steps == [ref.step(site, g_before) for site, g_before in events], inst.graph
        assert reduced == want_reduced
        seen.update(kind(site, g_before) for site, g_before in events)

        base = VertexCoverSolver(reduced.graph).cover()
        rest = sorted(reduced.graph.vertices - base)
        for cover in [base] + [base | set(rng.sample(rest, rng.randint(1, len(rest))))
                               for _ in range(3) if rest]:
            lifted = simplify.lift_cover(steps, cover)
            assert lifted == ref_lift(events, cover), (inst.graph, events)
            assert is_cover(inst.graph, lifted)
        assert len(simplify.lift_cover(steps, base)) == len(base) + inst.budget - reduced.budget
    assert {"1", "2", "3", "4", "5-alternating", "5-cycle"} <= set(seen), seen
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("rule", [1, 2, 3, 4, 5])
def test_apply_matches_reference_at_each_first_site(rule):
    # apply on its own, at the first site of each instance where the rule fires
    checked = 0
    for inst in corpus():
        site = simplify.find_site(inst)
        if site is None or site.rule_id != rule:
            continue
        assert simplify.apply(inst, site) == ref.apply(inst, site)
        checked += 1
    assert checked >= 5


def assert_matches_full_scan(inst: Instance, reduced: Instance, steps) -> int:
    """The fixpoint's result on inst is the reference's; the number of
    rules the reference fired."""
    want_reduced, events = ref.simplify_fixpoint(inst)
    assert steps == [ref.step(site, g_before) for site, g_before in events], inst.graph
    assert reduced == want_reduced, inst.graph
    return len(events)


def after_take(inst: Instance, take, steps):
    """The instance a take leaves, and the fixpoint steps after the take,
    which must come first."""
    assert steps[0] == (take, None), inst.graph
    return Instance(inst.graph.without(take), inst.budget - len(take)), steps[1:]


def test_fixpoint_after_a_take_matches_the_full_scan():
    # a graph on which no rule applies, less a vertex set X that a branch
    # takes: only the vertices of N(X) - X have other neighbours than before
    rng = random.Random(61)
    fixpoints = [ref.simplify_fixpoint(inst)[0] for inst in corpus()]
    fixpoints += [Instance(random_cubic(rng, n), n) for n in (8, 10, 12, 14, 16) * 10]
    fired = 0
    for fixed in fixpoints:
        g = fixed.graph
        for _ in range(3 if len(g) > 1 else 0):
            xs = frozenset(rng.sample(sorted(g.vertices), rng.randint(1, min(3, len(g) - 1))))
            reduced, steps = simplify.simplify_fixpoint(fixed, xs)
            rest, steps = after_take(fixed, xs, steps)
            fired += assert_matches_full_scan(rest, reduced, steps) > 0
    assert fired >= 150


def test_engine_fixpoints_match_the_full_scan(monkeypatch, det_engine, rand_engine):
    # every fixpoint of one deterministic search and one randomized solve,
    # most of them after a branch's take
    fixpoint = runtime.simplify_fixpoint
    told: Counter = Counter()

    def checked(inst, take=None):
        reduced, steps = fixpoint(inst, take)
        rest, after = (inst, steps) if take is None else after_take(inst, take, steps)
        told[take is not None] += assert_matches_full_scan(rest, reduced, after) > 0
        return reduced, steps

    monkeypatch.setattr(runtime, "simplify_fixpoint", checked)
    # with the cover lower bound at 0 the search prunes nothing, so it still
    # reaches every fixpoint below a root that the bound would cut off
    monkeypatch.setattr(runtime, "_cover_lower_bound", lambda g, mate: 0)
    rng = random.Random(67)
    # 29 vertices cover at most 87 of the 90 edges: a search of every branch
    assert det_engine.deterministic_cover(Instance(random_cubic(rng, 60), 29)) is None
    rand_engine.solve_randomized(Instance(random_cubic(rng, 60), 34), TrialPlan(10, 71))
    assert told[True] >= 200, told
