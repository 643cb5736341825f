"""The simplification rules as vcgen.simplify fired and lifted them before
each rule had one definition of its effect, kept unchanged as the oracle of
tests/test_simplify_differential.py.

apply re-derives each rule's effect from the graph, and the fixpoint logs a
snapshot of the graph before every simplification, so that lift_cover can
re-derive the same facts (rule 4's outer neighbour, rule 5's high-degree
half) when it undoes the step.  step re-derives from the same snapshot the
(taken, fold) step that vcgen.simplify logs instead.
"""

from __future__ import annotations

from vcgen.errors import ContractError
from vcgen.graphs import Graph, Instance
from vcgen.simplify import SimplificationSite, find_site


def _rule4_blocked(g: Graph, u: int, v: int) -> bool:
    """The pair closes an isolated 4-cycle: both outer neighbors are
    degree-2 and adjacent to each other."""
    a = next(iter(g.neighbors(u) - {v}))
    b = next(iter(g.neighbors(v) - {u}))
    return a != b and g.degree(a) == 2 and g.degree(b) == 2 and g.has_edge(a, b)


def _validate(inst: Instance, site: SimplificationSite) -> None:
    g = inst.graph
    w = site.witness
    ok = all(v in g for v in w)
    if ok:
        if site.rule_id == 1:
            ok = g.degree(w[0]) == 0
        elif site.rule_id == 2:
            ok = g.degree(w[0]) == 1
        elif site.rule_id == 3:
            v, u, x = w
            ok = g.degree(v) == 2 and g.neighbors(v) == {u, x} and g.has_edge(u, x)
        elif site.rule_id == 4:
            u, v = w
            ok = g.has_edge(u, v) and g.degree(u) == 2 and g.degree(v) == 2
            if ok:
                a = next(iter(g.neighbors(u) - {v}))
                b = next(iter(g.neighbors(v) - {u}))
                # a shared neighbor is rule-3 territory; an isolated 4-cycle
                # belongs to rule 5
                ok = a != b and not _rule4_blocked(g, u, v)
        elif site.rule_id == 5:
            ok = len(w) % 2 == 0 and all(
                g.has_edge(w[i], w[(i + 1) % len(w)]) for i in range(len(w))
            )
            if ok and not all(g.degree(x) == 2 for x in w):
                parity = 0 if g.degree(w[0]) == 2 else 1
                ok = all(
                    (g.degree(x) == 2) if i % 2 == parity else (g.degree(x) > 2)
                    for i, x in enumerate(w)
                )
        else:
            ok = False
    if not ok:
        raise ContractError(f"site {site} is stale for {inst}")


def apply(inst: Instance, site: SimplificationSite) -> Instance:
    """Reduced instance after firing the rule; YES/NO answer is unchanged."""
    _validate(inst, site)
    g, k, w = inst.graph, inst.budget, site.witness
    if site.rule_id == 1:
        return Instance(g.without({w[0]}), k)
    if site.rule_id == 2:
        v = w[0]
        return Instance(g.without(g.neighbors(v) | {v}), k - 1)
    if site.rule_id == 3:
        return Instance(g.without(set(w)), k - 2)
    if site.rule_id == 4:
        u, v = w
        a = next(iter(g.neighbors(u) - {v}))
        b = next(iter(g.neighbors(v) - {u}))
        reduced = g.without({u, v})
        if not reduced.has_edge(a, b):  # merge parallel edges
            reduced = reduced.with_edge(a, b)
        return Instance(reduced, k - 1)
    return Instance(g.without(set(w)), k - len(w) // 2)


def lift_cover(
    g_before: Graph, site: SimplificationSite, cover_after: frozenset[int]
) -> frozenset[int]:
    """Turn a cover of the reduced graph into a cover of the original."""
    w = site.witness
    if site.rule_id == 1:
        return cover_after
    if site.rule_id == 2:
        v = w[0]
        return cover_after | g_before.neighbors(v)
    if site.rule_id == 3:
        return cover_after | {w[1], w[2]}
    if site.rule_id == 4:
        u, v = w
        a = next(iter(g_before.neighbors(u) - {v}))
        return cover_after | ({v} if a in cover_after else {u})
    if all(g_before.degree(x) == 2 for x in w):
        return cover_after | set(w[1::2])  # isolated cycle: alternate vertices
    parity = 0 if g_before.degree(w[0]) == 2 else 1
    highs = {x for i, x in enumerate(w) if i % 2 != parity}
    return cover_after | highs


def step(site: SimplificationSite, g_before: Graph) -> tuple[frozenset[int], tuple | None]:
    """The step (taken, fold) that vcgen.simplify logs for the site, as
    re-derived from the graph before it fired: the vertices the rule takes,
    and for rule 4 the fold (u, v, a) of the pair and u's outer neighbor."""
    w = site.witness
    if site.rule_id == 1:
        return frozenset(), None
    if site.rule_id == 2:
        return g_before.neighbors(w[0]), None
    if site.rule_id == 3:
        return frozenset({w[1], w[2]}), None
    if site.rule_id == 4:
        u, v = w
        return frozenset(), (u, v, next(iter(g_before.neighbors(u) - {v})))
    if all(g_before.degree(x) == 2 for x in w):
        return frozenset(w[1::2]), None  # isolated cycle: alternate vertices
    parity = 0 if g_before.degree(w[0]) == 2 else 1
    return frozenset(x for i, x in enumerate(w) if i % 2 != parity), None


def simplify_fixpoint(
    inst: Instance,
) -> tuple[Instance, list[tuple[SimplificationSite, Graph]]]:
    """Fire rules until none applies; returns the trace for cover lifting."""
    events: list[tuple[SimplificationSite, Graph]] = []
    while True:
        site = find_site(inst)
        if site is None:
            return inst, events
        events.append((site, inst.graph))
        inst = apply(inst, site)
