"""Answer-preserving simplification rules for vertex-cover instances.

Rule 1: drop an isolated vertex.
Rule 2: a degree-1 vertex v: take its neighbor; remove N[v], k -= 1.
Rule 3: a degree-2 vertex whose neighbors are adjacent: take both
        neighbors; remove the closed neighborhood, k -= 2.
Rule 4: two adjacent degree-2 vertices: contract through them, joining
        their outer neighbors, k -= 1.
Rule 5: an even cycle alternating degree-2 / degree->=3 vertices: take the
        high-degree half; remove the cycle, k -= len/2.  Also fires on an
        all-degree-2 even cycle (an isolated cycle component), taking
        alternate vertices.

Rule 4 skips the pair whose outer neighbors are adjacent degree-2 vertices:
that pair closes an isolated 4-cycle, where contracting would drop the
outer degrees and increase k-parameterized measures; rule 5 removes that
component with the measure intact instead.  Together the two still
eliminate every adjacent degree-2 pair, which the branch cost bounds
assume.

The same structural detectors run in two modes: on concrete instances
(`find_site`) and on local configurations (`config_site`), where a rule is
reported only when every host graph of the configuration must admit it.

Firing a rule yields a step (taken, fold): the vertices it puts into the
cover, and for rule 4 the fold (u, v, a) of the contracted pair and u's
outer neighbor.  `lift_cover` turns a cover of the reduced graph back into
one of the original from these steps alone; the solve engines log their
branch takes as steps with no fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .configs import LocalConfiguration
from .errors import ContractError
from .graphs import Graph, Instance, enumerate_cycles

CYCLE_SEARCH_CAP = 8


@dataclass(frozen=True)
class SimplificationSite:
    rule_id: int
    witness: tuple[int, ...]


def _rule3_sites(g: Graph, low: dict[int, int]):
    # both of the apex's edges must lie in g; on an instance low holds
    # degrees in g, so the second test adds nothing there
    for v, d in low.items():
        if d != 2 or g.degree(v) != 2:
            continue
        u, w = sorted(g.neighbors(v))
        if g.has_edge(u, w):
            yield SimplificationSite(3, (v, u, w))


def _rule4_outer(g: Graph, u: int, v: int) -> tuple[int, int]:
    """The outer neighbors a of u and b of v, for an adjacent degree-2 pair."""
    return next(iter(g.neighbors(u) - {v})), next(iter(g.neighbors(v) - {u}))


def _rule4_blocked(g: Graph, a: int, b: int) -> bool:
    """The outer neighbors a, b of a degree-2 pair close an isolated
    4-cycle: both are degree-2 and adjacent to each other."""
    return g.degree(a) == 2 and g.degree(b) == 2 and g.has_edge(a, b)


def _rule4_sites(g: Graph, low: dict[int, int], skip_blocked: bool):
    for u, d in low.items():
        if d != 2:
            continue
        for v in sorted(g.neighbors(u)):
            if v > u and low.get(v) == 2:
                if skip_blocked and _rule4_blocked(g, *_rule4_outer(g, u, v)):
                    continue
                yield SimplificationSite(4, (u, v))


def _rule5_take(cyc: tuple[int, ...], deg: Callable[[int], int]) -> Optional[tuple[int, ...]]:
    """The vertices rule 5 takes on the cycle cyc: the high-degree half when
    degrees alternate 2 / >2, alternate vertices when all are 2; None when
    cyc is odd or neither."""
    if len(cyc) % 2:
        return None
    twos = [deg(x) == 2 for x in cyc]
    if all(twos):
        return cyc[1::2]
    if all(twos[i] != twos[i - 1] for i in range(len(cyc))):
        return tuple(x for x, two in zip(cyc, twos) if not two)
    return None


def _rule5_sites(g: Graph, deg: Callable[[int], int]):
    def fits(path: list[int], w: int) -> bool:
        # a site's degrees alternate 2 / >2 or are all 2, so its first two
        # vertices fix the class of every later one; this only prunes
        if len(path) == 1:
            return deg(path[0]) == 2 or deg(w) == 2
        return (deg(w) == 2) == (deg(path[len(path) % 2]) == 2)

    # a site's smallest vertex has degree 2 or lies between two vertices of
    # degree 2; the scan reads every vertex, not g.low_degree(), so that
    # the configurations generation makes by the thousand stay without a
    # cached degree set (it cost set-up time and memory)
    twos = [v for v in g.vertices if deg(v) == 2]
    starts = set(twos).union(*(g.neighbors(v) for v in twos))
    for cyc in enumerate_cycles(g, CYCLE_SEARCH_CAP, fits, starts):
        if _rule5_take(cyc, deg) is not None:
            yield SimplificationSite(5, cyc)


def _site(
    g: Graph, deg: Callable[[int], int], scan: Iterable[int], skip_blocked: bool
) -> Optional[SimplificationSite]:
    """Lowest-numbered rule with a site under the degree function deg,
    lexicographically smallest witness; skip_blocked leaves out rule-4
    pairs that close an isolated 4-cycle.

    Every site has a vertex of degree at most 2 under deg, so scan need
    only hold those vertices of g; it may hold more.  Rules 1-4 yield their
    sites in witness order, so the first one found is the smallest.
    """
    low = {v: d for v in sorted(scan) if (d := deg(v)) <= 2}
    for sites in (
        (SimplificationSite(1, (v,)) for v, d in low.items() if d == 0),
        (SimplificationSite(2, (v,)) for v, d in low.items() if d == 1),
        _rule3_sites(g, low),
        _rule4_sites(g, low, skip_blocked),
    ):
        hit = next(sites, None)
        if hit:
            return hit
    if 2 not in low.values():  # every rule-5 cycle has a degree-2 vertex
        return None
    return min(_rule5_sites(g, deg), key=lambda s: s.witness, default=None)


def find_site(inst: Instance) -> Optional[SimplificationSite]:
    """Lowest-numbered applicable rule, lexicographically smallest witness."""
    g = inst.graph
    return _site(g, g.degree, g.low_degree(), skip_blocked=True)


def config_site(l: LocalConfiguration) -> Optional[SimplificationSite]:
    """A site certain from the configuration alone, using true degrees.

    Structures count only when fully resolved inside H: rule 3 needs both of
    the apex's edges and the neighbor-neighbor edge complete; rules 4 and 5
    need the carrying edges complete.  A merely possible site is not
    reported, since the unknown part of the host can always avoid it.

    An adjacent true-degree-2 pair is certain as a rule-4 site even though
    the host-level rule 4 skips isolated 4-cycles: in a host closing that
    cycle, rule 5 (or rule 3, for a shared neighbor) fires instead, so some
    simplification always applies.
    """
    return _site(l.h, l.true_degree, l.h.vertices, skip_blocked=False)


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
                a, b = _rule4_outer(g, u, v)
                # a shared neighbor is rule-3 territory; an isolated 4-cycle
                # belongs to rule 5
                ok = a != b and not _rule4_blocked(g, a, b)
        elif site.rule_id == 5:
            ok = (
                len(set(w)) == len(w) >= 4
                and all(g.has_edge(w[i - 1], w[i]) for i in range(len(w)))
                and _rule5_take(w, g.degree) is not None
            )
        else:
            ok = False
    if not ok:
        raise ContractError(f"site {site} is stale for {inst}")


Fold = tuple[int, int, int]
Step = tuple[frozenset[int], Optional[Fold]]


def _fire(inst: Instance, site: SimplificationSite) -> tuple[Instance, Step]:
    """The reduced instance and the step that undoes it: the vertices the
    rule takes into the cover, or, for rule 4, the fold (u, v, a) of the
    pair u, v and u's outer neighbor a."""
    g, w = inst.graph, site.witness
    if site.rule_id == 4:
        u, v = w
        a, b = _rule4_outer(g, u, v)
        reduced = g.without(w)
        if not reduced.has_edge(a, b):  # merge parallel edges
            reduced = reduced.with_edge(a, b)
        return Instance(reduced, inst.budget - 1), (frozenset(), (u, v, a))
    if site.rule_id == 1:
        taken = frozenset()
    elif site.rule_id == 2:
        taken = g.neighbors(w[0])
    elif site.rule_id == 3:
        taken = frozenset(w[1:])
    else:
        taken = frozenset(_rule5_take(w, g.degree))
    # every rule removes its witness and what it takes
    return Instance(g.without(taken | set(w)), inst.budget - len(taken)), (taken, None)


def apply(inst: Instance, site: SimplificationSite) -> Instance:
    """Reduced instance after firing the rule; YES/NO answer is unchanged."""
    _validate(inst, site)
    return _fire(inst, site)[0]


def lift_cover(steps: Sequence[Step], cover: frozenset[int]) -> frozenset[int]:
    """Turn a cover of the graph the steps leave into a cover of the graph
    they started from: last step first, add what each step took, and put
    back one vertex of each folded pair, v when a is in the cover, else u."""
    for taken, fold in reversed(steps):
        cover = cover | taken
        if fold is not None:
            u, v, a = fold
            cover = cover | {v if a in cover else u}
    return cover


def simplify_fixpoint(inst: Instance) -> tuple[Instance, list[Step]]:
    """Fire rules until none applies; returns the steps for lift_cover."""
    steps: list[Step] = []
    while True:
        site = find_site(inst)
        if site is None:
            return inst, steps
        _validate(inst, site)
        inst, step = _fire(inst, site)
        steps.append(step)
