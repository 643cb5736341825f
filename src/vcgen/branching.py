"""Candidate branches and their worst-case measure cost.

A branch is the vertex set one child of a rule commits into the cover.  Its
cost bounds the multiplicative measure shrinkage over every host instance;
the visible part is exact, and a correction term compensates for incomplete
edges whose removal may keep low-degree vertices alive longer than the
configuration shows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .configs import LocalConfiguration
from .errors import CapacityError, InputDomainError
from .measure import Measure

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


def seed_branches(l: LocalConfiguration) -> list[Branch]:
    """All nonempty vertex subsets, in deterministic order."""
    vs = sorted(l.h.vertices)
    if len(vs) > SEED_CAP:
        raise CapacityError(f"seeding capped at {SEED_CAP} vertices")
    return [frozenset(vs[i] for i in range(len(vs)) if mask >> i & 1)
            for mask in range(1, 1 << len(vs))]


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


def cost_bound(
    l: LocalConfiguration,
    b: Iterable[int],
    m: Measure,
    assertions: SubspaceAssertions = NO_ASSERTIONS,
) -> CostBound:
    """Exponent e with cost(l, b) <= 2^e, by the tightest applicable bound.

    Taking b removes its vertices, and each neighbour outside b loses one
    true degree per edge into b.  Survivors keep their incomplete counts
    (the deleted incomplete edges' endpoints are unknown, so the counts are
    left as an upper approximation that the correction pays for).  Only b
    and its neighbours change degree, so no child configuration is built;
    the exponent is a sum of integers over the measure's common denominator.
    """
    take = frozenset(b)
    h, d = l.h, l.d
    if not take <= h.vertices:
        raise InputDomainError(f"unknown vertices {sorted(take - h.vertices)}")
    dn = [0, 0, 0, 0]  # change in the number of vertices of each true degree
    lost: dict[int, int] = {}  # neighbour outside b -> its edges into b
    for v in take:
        dn[h.degree(v) + d[v]] -= 1
        for u in h.neighbors(v):
            if u not in take:
                lost[u] = lost.get(u, 0) + 1
    for u, k in lost.items():
        td = h.degree(u) + d[u]
        dn[td] -= 1
        dn[td - k] += 1
    # boundary vertices by (true degree, d): taken ones before, survivors after
    taken = [(h.degree(v) + d[v], d[v]) for v in take if d[v]]
    kept = [(h.degree(v) + dv - lost.get(v, 0), dv) for v, dv in d.items() if dv and v not in take]
    p = BoundaryProfile(taken.count((3, 1)), taken.count((3, 2)), taken.count((2, 1)),
                        kept.count((2, 1)), kept.count((2, 2)), kept.count((1, 1)))
    r_capacity = p.r21 + 2 * p.r22 + p.r11
    if assertions.no_degree_2:
        lemma = 14
        correction_count = min(p.d31 + 2 * p.d32 + p.d21, r_capacity)
    elif assertions.no_deg3_with_two_deg2:
        lemma = 13
        correction_count = p.d31 + p.d32 + min(p.d32 + p.d21, r_capacity)
    else:
        lemma = 12
        correction_count = p.d31 + 2 * p.d32 + min(p.d21, r_capacity)
    denominator, alpha, beta1, beta2, beta3 = m.scaled
    correction = max(0, correction_count * max(beta1 - beta2, -beta1))
    numerator = -alpha * len(take) + beta1 * dn[1] + beta2 * dn[2] + beta3 * dn[3] + correction
    return CostBound(Fraction(numerator, denominator), lemma, -len(take), dn[1], dn[2], dn[3], p)


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
    branches: Sequence[Branch],
    exponents: Sequence[Fraction],
    eb_masks: Sequence[int],
) -> list[int]:
    """Indices of branches surviving dominance pruning.

    b is dominated by b' when cost(b) >= cost(b') and eb(b) is a subset of
    eb(b'); exact ties keep the branch with the smaller identifier.
    Domination is a strict partial order, so one sweep reaches the fixpoint.
    """
    dd = math.lcm(*(e.denominator for e in exponents))  # compare ints, not Fractions
    exponents = [e.numerator * (dd // e.denominator) for e in exponents]
    keys = [branch_sort_key(b) for b in branches]
    order = sorted(range(len(branches)), key=keys.__getitem__)
    # collapse identical eb sets first: only the cheapest, earliest survives
    best_for_mask: dict[int, int] = {}
    for i in order:
        cur = best_for_mask.get(eb_masks[i])
        if cur is None or exponents[i] < exponents[cur]:
            best_for_mask[eb_masks[i]] = i
    reps = sorted(best_for_mask.values(), key=keys.__getitem__)
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
