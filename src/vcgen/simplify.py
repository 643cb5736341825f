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

Each rule's condition is stated once (`_holds`).  The same scans run in
two modes: on concrete instances (`find_site`) and on local
configurations (`config_site`), where a rule is reported only when every
host graph of the configuration must admit it.  `simplify_fixpoint` fires
the sites repeated `find_site` calls would give, on one working copy of
the graph, rescanning only where each firing changed it.

Firing a rule yields a step (taken, fold): the vertices it puts into the
cover, and for rule 4 the fold (u, v, a) of the contracted pair and u's
outer neighbor.  `lift_cover` turns a cover of the reduced graph back into
one of the original from these steps alone.  A branch's take is a step
with no fold: given one, `simplify_fixpoint` removes it as its first step
and then simplifies from where it changed the graph, so a solve's whole
log is fixpoint steps.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .configs import LocalConfiguration
from .errors import ContractError
from .graphs import CYCLE_SEARCH_CAP, Graph, Instance, WorkingGraph, enumerate_cycles


@dataclass(frozen=True)
class SimplificationSite:
    rule_id: int
    witness: tuple[int, ...]


# (rule_id, witness): as tuples, sites order as the rules fire them
Site = tuple[int, tuple[int, ...]]


def _rule3_pair(g, v: int) -> Optional[frozenset[int]]:
    """v's neighbors in g when they are two and adjacent, so that v closes
    a triangle with them; else None."""
    ns = g.neighbors(v)
    if len(ns) == 2:
        u, x = ns
        if g.has_edge(u, x):
            return ns
    return None


def _rule4_outer(g, u: int, v: int) -> tuple[int, int]:
    """The outer neighbors a of u and b of v, for an adjacent degree-2 pair."""
    return next(iter(g.neighbors(u) - {v})), next(iter(g.neighbors(v) - {u}))


def _rule4_blocked(g, a: int, b: int) -> bool:
    """The outer neighbors a, b of a degree-2 pair close an isolated
    4-cycle: both are degree-2 and adjacent to each other."""
    return g.degree(a) == 2 and g.degree(b) == 2 and g.has_edge(a, b)


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


def _holds(g, deg: Callable[[int], int], site: Site, instance: bool) -> bool:
    """Whether site is a site of g (a Graph or a WorkingGraph) under the
    degree function deg: the one statement of each rule's condition, which
    the scans, the fixpoint's re-check and apply all ask.

    On an instance, rule 4 leaves out a pair whose outer neighbors meet
    (a triangle, which is rule 3's) or close an isolated 4-cycle (rule
    5's).  Never raises for a witness of the rule's size.
    """
    rule_id, w = site
    if rule_id == 1 or rule_id == 2:
        return w[0] in g and deg(w[0]) == rule_id - 1
    if rule_id == 3:
        v, u, x = w
        return v in g and deg(v) == 2 and _rule3_pair(g, v) == {u, x}
    if rule_id == 4:
        u, v = w  # has_edge holds only between vertices of g
        if not (g.has_edge(u, v) and deg(u) == 2 and deg(v) == 2):
            return False
        if not instance:
            return True
        a, b = _rule4_outer(g, u, v)
        return a != b and not _rule4_blocked(g, a, b)
    if rule_id == 5:
        return (
            len(set(w)) == len(w) >= 4
            and all(g.has_edge(w[i - 1], w[i]) for i in range(len(w)))
            and _rule5_take(w, deg) is not None
        )
    return False


def _candidates(g, deg: Callable[[int], int], low: dict[int, int]) -> Iterator[Site]:
    """The witnesses that the vertices of low (vertex -> degree under deg,
    at most 2) suggest, in no order: rule 1 or 2 at a vertex of degree 0
    or 1, rule 3 at a degree-2 vertex on a triangle, and rule 4 at each
    pair of adjacent degree-2 vertices.  _holds decides which are sites.

    A pair is listed from its smaller end, or from the end in low when the
    other is not, so that a scan of part of the graph still lists every
    pair with an end in it.
    """
    for v, d in low.items():
        if d == 0:
            yield 1, (v,)
        elif d == 1:
            yield 2, (v,)
        else:
            pair = _rule3_pair(g, v)
            if pair:
                u, x = pair
                yield 3, (v, u, x) if u < x else (v, x, u)
            for y in g.neighbors(v):
                dy = low.get(y)
                if dy == 2 and y > v or dy is None and deg(y) == 2:
                    yield 4, (v, y) if v < y else (y, v)


def _rule5_sites(g, deg: Callable[[int], int], through: Iterable[int]) -> list[Site]:
    """The rule-5 sites of g with a vertex in through, each once, sorted."""

    def fits(path: list[int], w: int) -> bool:
        # a site's degrees alternate 2 / >2 or are all 2, so its first two
        # vertices fix the class of every later one, wherever the path
        # starts on it; this only prunes
        if len(path) == 1:
            return deg(path[0]) == 2 or deg(w) == 2
        return (deg(w) == 2) == (deg(path[len(path) % 2]) == 2)

    # a vertex of a site has degree 2, or two neighbors of degree 2
    through = [
        t for t in through
        if t in g and (deg(t) == 2 or list(map(deg, g.neighbors(t))).count(2) >= 2)
    ]
    cycles = enumerate_cycles(g, CYCLE_SEARCH_CAP, fits, through) if through else []
    return [(5, c) for c in cycles if _holds(g, deg, (5, c), True)]


def _site(
    g: Graph, deg: Callable[[int], int], scan: Iterable[int], instance: bool
) -> Optional[SimplificationSite]:
    """Lowest-numbered rule with a site under the degree function deg,
    lexicographically smallest witness.

    Every site has a vertex of degree at most 2 under deg, so scan need
    only hold those vertices of g; it may hold more.
    """
    low = {v: d for v in scan if (d := deg(v)) <= 2}
    hit = min((s for s in _candidates(g, deg, low) if _holds(g, deg, s, instance)), default=None)
    if hit is None:  # every rule-5 cycle has a degree-2 vertex
        hit = min(_rule5_sites(g, deg, [v for v, d in low.items() if d == 2]), default=None)
    return None if hit is None else SimplificationSite(*hit)


def find_site(inst: Instance) -> Optional[SimplificationSite]:
    """Lowest-numbered applicable rule, lexicographically smallest witness."""
    g = inst.graph
    return _site(g, g.degree, g.low_degree(), instance=True)


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
    return _site(l.h, l.true_degree, l.h.vertices, instance=False)


Fold = tuple[int, int, int]
Step = tuple[frozenset[int], Optional[Fold]]


def _fire(work: WorkingGraph, site: Site) -> tuple[Step, set[int]]:
    """Fire the rule on the working graph.  Returns the step that undoes
    it and the vertices left whose neighbor sets changed.  The step holds
    the vertices the rule takes into the cover and, for rule 4, the fold
    (u, v, a) of the pair u, v and u's outer neighbor a."""
    rule_id, w = site
    if rule_id == 4:
        u, v = w
        a, b = _rule4_outer(work, u, v)
        touched = work.remove(w)
        if not work.has_edge(a, b):  # merge parallel edges
            work.add_edge(a, b)
        return (frozenset(), (u, v, a)), touched
    if rule_id == 1:
        taken = frozenset()
    elif rule_id == 2:
        taken = work.neighbors(w[0])
    elif rule_id == 3:
        taken = frozenset(w[1:])
    else:
        taken = frozenset(_rule5_take(w, work.degree))
    # every rule removes its witness and what it takes
    return (taken, None), work.remove(taken.union(w))


def _spent(step: Step) -> int:
    """The budget a step spends: what it takes, and one for a fold."""
    taken, fold = step
    return len(taken) + (fold is not None)


def apply(inst: Instance, site: SimplificationSite) -> Instance:
    """Reduced instance after firing the rule; YES/NO answer is unchanged."""
    g = inst.graph
    if not _holds(g, g.degree, (site.rule_id, site.witness), True):
        raise ContractError(f"site {site} is stale for {inst}")
    work = WorkingGraph(g)
    step, _ = _fire(work, (site.rule_id, site.witness))
    return Instance(work.freeze(), inst.budget - _spent(step))


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


def simplify_fixpoint(
    inst: Instance, take: Optional[frozenset[int]] = None
) -> tuple[Instance, list[Step]]:
    """Fire rules until none applies; returns the reduced instance and the
    steps for lift_cover.

    The sites fire in the order that calling find_site until it finds none
    would give, but on one working copy of the graph, frozen once at the
    end.  A heap holds candidate sites, lowest rule and smallest witness
    first, and _holds checks each when it comes up, since a firing after
    it was queued may have spoilt it.  A firing can make or spoil a site
    only through the vertices whose neighbor sets it changed, so after it
    only the degree-<=2 vertices within distance 1 of those are scanned for
    rules 1-4.  The rule-5 cycle search runs only when no rule 1-4 site is
    left, and then only through the vertices changed since it last ran.

    take, when given, is a branch's take on an instance on which no rule
    applies: the fixpoint first removes it, logs the step (take, None) and
    spends len(take), and its first scans and rule-5 search start from the
    vertices that lost a neighbor.  Without take they start from the
    degree-<=2 vertices, since every site has one.
    """
    g = inst.graph
    work = WorkingGraph(g)
    deg = work.degree
    heap: list[Site] = []
    queued: set[Site] = set()

    def queue(sites: Iterable[Site]) -> None:
        for s in sites:
            if s not in queued:
                queued.add(s)
                heapq.heappush(heap, s)

    def scan(vs: Iterable[int]) -> None:
        """Queue the witnesses rules 1-4 may have at the degree-<=2 vertices of vs."""
        queue(_candidates(work, deg, {v: d for v in vs if (d := deg(v)) <= 2}))

    steps: list[Step] = []
    budget = inst.budget
    # the vertices the rule-5 search has yet to look through
    if take is None:
        due = set(g.low_degree())
    else:
        due = work.remove(take)
        steps.append((take, None))
        budget -= len(take)
    scan(due.union(*map(work.neighbors, due)))
    while True:
        while heap and not _holds(work, deg, heap[0], True):
            queued.discard(heapq.heappop(heap))
        if (not heap or heap[0][0] == 5) and due:
            queue(_rule5_sites(work, deg, due))
            due = set()
            continue
        if not heap:
            break
        site = heapq.heappop(heap)
        queued.discard(site)
        step, touched = _fire(work, site)
        steps.append(step)
        budget -= _spent(step)
        due |= touched
        scan(touched.union(*map(work.neighbors, touched)))
    if not steps:
        return inst, steps
    return Instance(work.freeze(), budget), steps
