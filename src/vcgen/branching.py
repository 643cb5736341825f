"""Candidate branches and their worst-case measure cost.

A branch is the vertex set one child of a rule commits into the cover.  Its
cost bounds the multiplicative measure shrinkage over every host instance;
the visible part is exact, and a correction term compensates for incomplete
edges whose removal may keep low-degree vertices alive longer than the
configuration shows.

Generation scores all candidate branches of a configuration in one call,
cost_exponents: each cost is an integer exponent over the measure's common
denominator, from one table of the configuration's degrees and neighbours.
A root's candidates are all its nonempty vertex subsets (seed_masks), so
there subset_exponents scores every subset at once, as masks over the
sorted vertices, by a lowest-bit recurrence; gensa turns into branches
only the ones that survive pruning.  cost_bound scores one branch by the
same formula and also reports the terms of its exponent; certification
uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

from .configs import LocalConfiguration
from .errors import CapacityError, InputDomainError
from .graphs import MAX_DEGREE
from .measure import Measure, degree_shift

Branch = frozenset[int]

SEED_CAP = 16
COST_ROUNDING_MARGIN = Fraction(1, 2**40)


@dataclass(frozen=True)
class SubspaceAssertions:
    """Facts guaranteed by the subspace every host instance lives in."""

    no_deg3_with_two_deg2: bool = False
    no_degree_2: bool = False
    excluded_subspaces: tuple[int, ...] = ()


NO_ASSERTIONS = SubspaceAssertions()


def branch_sort_key(b: Branch) -> tuple:
    return (len(b), tuple(sorted(b)))


def seed_masks(l: LocalConfiguration) -> list[int]:
    """All nonempty vertex subsets of l as masks over its sorted vertices,
    in branch_sort_key order: by size, then lexicographically."""
    n = len(l.h.vertices)
    if n > SEED_CAP:
        raise CapacityError(f"seeding capped at {SEED_CAP} vertices")
    bits = [1 << i for i in range(n)]
    return [sum(c) for size in range(1, n + 1) for c in combinations(bits, size)]


def extend_branches(prev: Sequence[Branch], u: int, v: int) -> list[Branch]:
    """Candidates for the child configuration reached by adding edge {u, v}:
    each previous branch, plus it with u, with v, and with both; deduplicated
    preserving first appearance."""
    seen: set[Branch] = set()
    out: list[Branch] = []
    for b in prev:
        for extra in ((), (u,), (v,), (u, v)):
            nb = b | frozenset(extra)
            if nb not in seen:
                seen.add(nb)
                out.append(nb)
    return out


@dataclass(frozen=True)
class BoundaryProfile:
    d31: int
    d32: int
    d21: int
    r21: int
    r22: int
    r11: int


@dataclass(frozen=True)
class CostBound:
    exponent: Fraction
    lemma_used: int
    dk: int
    dn1: int
    dn2: int
    dn3: int
    profile: BoundaryProfile


# boundary vertex (true degree, d) -> its BoundaryProfile field: the taken
# ones by their values before the branch, the survivors by theirs after it
_TAKEN_SLOT = {(3, 1): 0, (3, 2): 1, (2, 1): 2}
_KEPT_SLOT = {(2, 1): 3, (2, 2): 4, (1, 1): 5}


def _correction_unit(m: Measure) -> int:
    """D times the exponent that one correction unit adds, for D = m.scaled[0]."""
    _, _, beta1, beta2, _ = m.scaled
    return max(beta1 - beta2, -beta1)


def _correction(assertions: SubspaceAssertions, d31: int, d32: int, d21: int,
                r21: int, r22: int, r11: int) -> tuple[int, int]:
    """The tightest lemma the assertions allow for a boundary profile, and
    the correction units it charges."""
    r_capacity = r21 + 2 * r22 + r11
    if assertions.no_degree_2:
        return 14, min(d31 + 2 * d32 + d21, r_capacity)
    if assertions.no_deg3_with_two_deg2:
        return 13, d31 + d32 + min(d32 + d21, r_capacity)
    return 12, d31 + 2 * d32 + min(d21, r_capacity)


def _scorer(
    l: LocalConfiguration, m: Measure, assertions: SubspaceAssertions
) -> Callable[[Iterable[int]], tuple[int, int, list[int], list[int]]]:
    """The scoring of l's branches: a function from a branch to D times its
    cost exponent, for D = m.scaled[0], with the lemma used, the degree
    shift and the boundary profile (in BoundaryProfile's field order).  Each
    vertex's true degree and neighbours, and the boundary, are read once
    here, not once per branch.

    Taking b removes its vertices, and each neighbour outside b loses one
    true degree per edge into b.  Survivors keep their incomplete counts
    (the deleted incomplete edges' endpoints are unknown, so the counts are
    left as an upper approximation that the correction pays for).  Only b
    and its neighbours change degree, so no child configuration is built;
    the exponent is a sum of integers over the measure's common denominator.
    """
    h, d = l.h, l.d
    vertices = h.vertices
    nbrs = {v: h.neighbors(v) for v in vertices}
    tdeg = {v: len(ns) + d[v] for v, ns in nbrs.items()}
    # each boundary vertex with its profile slot if taken, and if kept, by
    # the number of its edges into the branch
    boundary = [(v, _TAKEN_SLOT.get((tdeg[v], dv)),
                 [_KEPT_SLOT.get((tdeg[v] - k, dv)) for k in range(MAX_DEGREE + 1)])
                for v, dv in d.items() if dv]
    unit = _correction_unit(m)

    def score(b: Iterable[int]) -> tuple[int, int, list[int], list[int]]:
        take = frozenset(b)
        if not take <= vertices:
            raise InputDomainError(f"unknown vertices {sorted(take - vertices)}")
        dn, lost = degree_shift(tdeg.__getitem__, nbrs.__getitem__, take)
        p = [0] * 6
        for v, taken_slot, kept_slots in boundary:
            slot = taken_slot if v in take else kept_slots[lost.get(v, 0)]
            if slot is not None:
                p[slot] += 1
        lemma, count = _correction(assertions, *p)
        # count >= 0, so this is count * max(0, unit)
        numerator = m.scaled_value(-len(take), dn) + max(0, count * unit)
        return numerator, lemma, dn, p

    return score


def cost_exponents(
    l: LocalConfiguration,
    branches: Iterable[Iterable[int]],
    m: Measure,
    assertions: SubspaceAssertions = NO_ASSERTIONS,
) -> list[int]:
    """D * cost_bound(l, b, m, assertions).exponent for each branch b, for
    D = m.scaled[0], in one pass over l; InputDomainError on a branch with a
    vertex outside l."""
    score = _scorer(l, m, assertions)
    return [score(b)[0] for b in branches]


def subset_exponents(
    l: LocalConfiguration,
    m: Measure,
    assertions: SubspaceAssertions = NO_ASSERTIONS,
) -> list[int]:
    """cost_exponents of every vertex subset of l at once, indexed by the
    subset's mask over l's sorted vertices (2^n of them: gensa calls this on
    a root, whose size seed_masks caps); the empty set scores 0.

    A branch's exponent before its correction is a sum of one term per
    taken vertex and one per vertex left, by its number of edges into the
    branch (Measure.scaled_value of each vertex's own degree change), and so
    is its boundary profile, packed one 8-bit field per BoundaryProfile
    field; _subset_sums adds both up for every subset.  The profile is
    summed only when the measure charges a correction.
    """
    vs = sorted(l.h.vertices)
    index = {v: i for i, v in enumerate(vs)}
    nbrs = [[index[u] for u in l.h.neighbors(v)] for v in vs]
    degrees = [(len(ns) + l.d[v], l.d[v]) for v, ns in zip(vs, nbrs)]  # (true degree, d)

    def term(i: int, budget: int, k: int) -> int:
        """D times the change to the measure when vertex i loses k of its true degree."""
        dn = [0] * (MAX_DEGREE + 1)
        dn[degrees[i][0]] -= 1
        dn[degrees[i][0] - k] += 1
        return m.scaled_value(budget, dn)

    exponents = _subset_sums(nbrs, [term(i, -1, t) for i, (t, _) in enumerate(degrees)],
                             [[term(i, 0, k) for k in range(len(ns) + 1)] for i, ns in enumerate(nbrs)])
    unit = _correction_unit(m)
    if unit <= 0:  # count >= 0, so no correction is charged
        return exponents

    def field(slot: Optional[int]) -> int:
        return 0 if slot is None else 1 << 8 * slot

    profiles = _subset_sums(
        nbrs,
        [field(_TAKEN_SLOT.get(td)) for td in degrees],
        [[field(_KEPT_SLOT.get((t - k, dv))) for k in range(len(ns) + 1)]
         for (t, dv), ns in zip(degrees, nbrs)],
    )
    counts = {p: _correction(assertions, *(p >> s & 255 for s in range(0, 48, 8)))[1]
              for p in set(profiles)}
    return [e + unit * counts[p] for e, p in zip(exponents, profiles)]


def _subset_sums(nbrs: Sequence[Sequence[int]], taken: Sequence[int],
                 left: Sequence[Sequence[int]]) -> list[int]:
    """For every mask b over the vertices 0..n-1 with neighbours nbrs, the
    sum of taken[v] over v in b plus left[u][k] over u outside b, for k
    u's number of edges into b.

    A lowest-bit recurrence: b is its lowest vertex v added to rest, which
    adds taken[v] and drops v's left term, and moves each neighbour of v
    outside b one edge further along its left row.
    """
    n = len(nbrs)
    nbr_masks = [sum(1 << u for u in ns) for ns in nbrs]
    sums = [0] * (1 << n)
    sums[0] = sum(row[0] for row in left)
    for v in reversed(range(n)):  # every rest holds only vertices above v
        bit, own, row, nbr = 1 << v, taken[v], left[v], nbr_masks[v]
        steps = [(1 << u, nbr_masks[u], left[u]) for u in nbrs[v]]
        for rest in range(0, 1 << n, bit << 1):
            total = sums[rest] + own - row[(nbr & rest).bit_count()]
            for ubit, unbr, urow in steps:
                if not rest & ubit:
                    k = (unbr & rest).bit_count()
                    total += urow[k + 1] - urow[k]
            sums[rest | bit] = total
    return sums


def cost_bound(
    l: LocalConfiguration,
    b: Iterable[int],
    m: Measure,
    assertions: SubspaceAssertions = NO_ASSERTIONS,
) -> CostBound:
    """Exponent e with cost(l, b) <= 2^e, by the tightest applicable bound,
    with the terms it is made of."""
    take = frozenset(b)
    numerator, lemma, dn, p = _scorer(l, m, assertions)(take)
    return CostBound(Fraction(numerator, m.scaled[0]), lemma, -len(take), dn[1], dn[2], dn[3],
                     BoundaryProfile(*p))


def cost_value(exponent: Fraction) -> Fraction:
    """2^exponent as an exact rational, rounded up by a relative 2^-40;
    InputDomainError when it is beyond a float.

    Overestimating a cost can only reject a rule, never admit a bad one.
    """
    try:
        approx = Fraction(2.0 ** float(exponent))
    except OverflowError:
        raise InputDomainError(f"cost exponent {exponent} is beyond a float") from None
    return approx * (1 + COST_ROUNDING_MARGIN)


def prune_dominated_indexed(
    candidates: Sequence,
    exponents: Sequence[int],
    eb_masks: Sequence[int],
) -> list[int]:
    """Indices of candidates surviving dominance pruning, in increasing
    order, given the candidates in branch_sort_key order (only their number
    and order are read: they may be branches or masks) with each one's cost
    exponent over one common denominator (as cost_exponents gives it).

    b is dominated by b' when cost(b) >= cost(b') and eb(b) is a subset of
    eb(b'); exact ties keep the branch with the smaller identifier.
    Domination is a strict partial order, so one sweep reaches the fixpoint.
    """
    # collapse identical eb sets first: only the cheapest, earliest survives
    best_for_mask: dict[int, int] = {}
    for i in range(len(candidates)):
        cur = best_for_mask.get(eb_masks[i])
        if cur is None or exponents[i] < exponents[cur]:
            best_for_mask[eb_masks[i]] = i
    reps = sorted(best_for_mask.values())
    survivors = []
    for pos, i in enumerate(reps):
        e, mask = exponents[i], eb_masks[i]
        dominated = False
        for pos2, j in enumerate(reps):
            if i == j or exponents[j] > e or mask & ~eb_masks[j]:
                continue
            if exponents[j] < e or eb_masks[j] != mask or pos2 < pos:
                dominated = True
                break
        if not dominated:
            survivors.append(i)
    return survivors
