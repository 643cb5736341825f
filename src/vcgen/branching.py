"""Candidate branches and their worst-case measure cost.

A branch is the vertex set one child of a rule commits into the cover.  Its
cost bounds the multiplicative measure shrinkage over every host instance;
the visible part is exact, and a correction term compensates for incomplete
edges whose removal may keep low-degree vertices alive longer than the
configuration shows.

Generation works on masks over a configuration's sorted vertices at every
depth.  A root's candidates are all its nonempty vertex subsets
(seed_masks), and a child's are its parent's surviving masks extended by
the new edge's endpoints (extend_masks): expand gives a fresh vertex the
largest label, so a parent's mask names the same vertices in each child.
A branch's cost exponent, an integer over the measure's common
denominator, is a sum of one term per vertex (_exponents):
subset_exponents sums them for every subset of a root at once by a
lowest-bit recurrence, and mask_exponents for each candidate below it.
Only the entries of a rule leaf become vertex sets.  cost_bound scores one
such set by a second formula, through measure.degree_shift, and also
reports the terms of its exponent; certification uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

from .configs import LocalConfiguration
from .errors import CapacityError, InputDomainError
from .graphs import MAX_DEGREE
from .measure import Measure, degree_shift

SEED_CAP = 16
COST_ROUNDING_MARGIN = Fraction(1, 2**40)


@dataclass(frozen=True)
class SubspaceAssertions:
    """Facts guaranteed by the subspace every host instance lives in."""

    no_deg3_with_two_deg2: bool = False
    no_degree_2: bool = False
    excluded_subspaces: tuple[int, ...] = ()


NO_ASSERTIONS = SubspaceAssertions()


def mask_key(b: int) -> tuple[int, list[int]]:
    """The order of candidate masks: that of the vertex sets they name, by
    size, then by their sorted vertices, lexicographically."""
    return b.bit_count(), [i for i in range(b.bit_length()) if b >> i & 1]


def seed_masks(l: LocalConfiguration) -> list[int]:
    """All nonempty vertex subsets of l as masks over its sorted vertices,
    in mask_key order."""
    n = len(l.h.vertices)
    if n > SEED_CAP:
        raise CapacityError(f"seeding capped at {SEED_CAP} vertices")
    bits = [1 << i for i in range(n)]
    return [sum(c) for size in range(1, n + 1) for c in combinations(bits, size)]


def extend_masks(prev: Iterable[int], u_bit: int, v_bit: int) -> list[int]:
    """Candidates for the child configuration reached by adding the edge
    between the vertices of u_bit and v_bit: each previous mask, it with u,
    with v, and with both, each once, in mask_key order."""
    return sorted({b | extra for b in prev for extra in (0, u_bit, v_bit, u_bit | v_bit)},
                  key=mask_key)


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


def _exponents(
    l: LocalConfiguration,
    m: Measure,
    assertions: SubspaceAssertions,
    sums: Callable[..., list[int]],
) -> list[int]:
    """D times the cost exponent, for D = m.scaled[0], of each branch that
    sums(nbrs, taken, left) adds up per-vertex terms for: taken[v] for each
    v in the branch and left[u][k] for each u outside it, k its number of
    edges into it, with nbrs the neighbours by index over l's sorted
    vertices.  The terms are each vertex's own change to the measure
    (Measure.scaled_value of its degree change).  When m charges a
    correction, the boundary profile is summed the same way, one 8-bit
    field per BoundaryProfile field, and its correction added."""
    vs = sorted(l.h.vertices)
    index = {v: i for i, v in enumerate(vs)}
    nbrs = [[index[u] for u in l.h.neighbors(v)] for v in vs]
    degrees = [(len(ns) + l.d[v], l.d[v]) for v, ns in zip(vs, nbrs)]  # (true degree, d)

    def term(t: int, budget: int, k: int) -> int:
        """D times the change to the measure when a vertex of true degree t loses k of it."""
        dn = [0] * (MAX_DEGREE + 1)
        dn[t] -= 1
        dn[t - k] += 1
        return m.scaled_value(budget, dn)

    exponents = sums(nbrs, [term(t, -1, t) for t, _ in degrees],
                     [[term(t, 0, k) for k in range(len(ns) + 1)] for (t, _), ns in zip(degrees, nbrs)])
    unit = _correction_unit(m)
    if unit <= 0:  # count >= 0, so no correction is charged
        return exponents

    def field(slot: Optional[int]) -> int:
        return 0 if slot is None else 1 << 8 * slot

    profiles = sums(nbrs, [field(_TAKEN_SLOT.get(td)) for td in degrees],
                    [[field(_KEPT_SLOT.get((t - k, dv))) for k in range(len(ns) + 1)]
                     for (t, dv), ns in zip(degrees, nbrs)])
    counts = {p: _correction(assertions, *(p >> s & 255 for s in range(0, 48, 8)))[1]
              for p in set(profiles)}
    return [e + unit * counts[p] for e, p in zip(exponents, profiles)]


def mask_exponents(
    l: LocalConfiguration,
    masks: Iterable[int],
    m: Measure,
    assertions: SubspaceAssertions = NO_ASSERTIONS,
) -> list[int]:
    """D * cost_bound(l, b, m, assertions).exponent for the branch b of each
    mask over l's sorted vertices, for D = m.scaled[0]: the terms that
    subset_exponents sums by its recurrence, summed vertex by vertex."""
    return _exponents(l, m, assertions, partial(_mask_sums, list(masks)))


def subset_exponents(
    l: LocalConfiguration,
    m: Measure,
    assertions: SubspaceAssertions = NO_ASSERTIONS,
) -> list[int]:
    """mask_exponents of every vertex subset of l at once, indexed by its
    mask (2^n of them: gensa calls this on a root, whose size seed_masks
    caps); the empty set scores 0.  _subset_sums adds the terms up for
    every subset by a lowest-bit recurrence."""
    return _exponents(l, m, assertions, _subset_sums)


def _mask_sums(masks: Sequence[int], nbrs: Sequence[Sequence[int]], taken: Sequence[int],
               left: Sequence[Sequence[int]]) -> list[int]:
    """_subset_sums at each of masks, one vertex at a time."""
    rows = [(own, row, sum(1 << u for u in ns)) for own, row, ns in zip(taken, left, nbrs)]
    return [sum(own if b >> i & 1 else row[(nbr & b).bit_count()]
                for i, (own, row, nbr) in enumerate(rows))
            for b in masks]


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
    with the terms it is made of; InputDomainError on a vertex outside l.

    Taking b removes its vertices, and each neighbour outside b loses one
    true degree per edge into b.  Survivors keep their incomplete counts
    (the deleted incomplete edges' endpoints are unknown, so the counts are
    left as an upper approximation that the correction pays for).  Only b
    and its neighbours change degree, so no child configuration is built.
    The degree shift comes from measure.degree_shift, not from the
    per-vertex terms that generation sums, so a fault in either formula
    fails certification.
    """
    take = frozenset(b)
    if not take <= l.h.vertices:
        raise InputDomainError(f"unknown vertices {sorted(take - l.h.vertices)}")
    dn, lost = degree_shift(l.true_degree, l.h.neighbors, take)
    p = [0] * 6
    for v, dv in l.d.items():
        if dv:
            t = l.true_degree(v)
            slot = _TAKEN_SLOT.get((t, dv)) if v in take else _KEPT_SLOT.get((t - lost.get(v, 0), dv))
            if slot is not None:
                p[slot] += 1
    lemma, count = _correction(assertions, *p)
    numerator = m.scaled_value(-len(take), dn) + max(0, count * _correction_unit(m))
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
    order, given the candidate masks in mask_key order (only their number
    and order are read) with each one's cost exponent over one common
    denominator (as mask_exponents gives it).

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
