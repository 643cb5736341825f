"""The simplification rules against tests/reference_simplify.py, the version
that logged a graph snapshot per simplification and re-derived each rule's
effect from it to lift a cover.

On two seeded corpora the fixpoint must fire the same sites, leave the same
instance, and lift every cover of the reduced graph it is given, a minimum
one or a larger one, to the same cover of the original.
"""

import random
from collections import Counter

import pytest

import reference_simplify as ref
from corpus import is_cover, random_cubic, random_subcubic
from vcgen import simplify
from vcgen.graphs import Graph, Instance, VertexCoverSolver


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


def test_fixpoint_and_lift_match_reference(monkeypatch):
    fired = []
    find_site = simplify.find_site

    def recording(inst):
        site = find_site(inst)
        fired.append(site)
        return site

    # simplify_fixpoint looks find_site up in its module; the reference
    # bound its own at import, so only the new fixpoint is recorded
    monkeypatch.setattr(simplify, "find_site", recording)
    rng = random.Random(59)
    seen: Counter = Counter()
    for inst in corpus():
        fired.clear()
        reduced, steps = simplify.simplify_fixpoint(inst)
        want_reduced, events = ref.simplify_fixpoint(inst)
        assert fired == [site for site, _ in events] + [None]
        assert reduced == want_reduced
        assert len(steps) == len(events)
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
