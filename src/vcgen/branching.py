"""Candidate branches and their worst-case measure cost.

A branch is the vertex set one child of a rule commits into the cover.  Its
cost bounds the multiplicative measure shrinkage over every host instance;
the visible part is exact, and a correction term compensates for incomplete
edges whose removal may keep low-degree vertices alive longer than the
configuration shows.
"""

from __future__ import annotations

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
    out = []
    for mask in range(1, 1 << len(vs)):
        out.append(frozenset(vs[i] for i in range(len(vs)) if mask >> i & 1))
    return out


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


def apply_branch(l: LocalConfiguration, b: Iterable[int]) -> LocalConfiguration:
    """Remove the branch vertices; survivors keep their incomplete counts
    (the deleted incomplete edges' endpoints are unknown, so the counts are
    left as an upper approximation that the cost correction pays for)."""
    take = frozenset(b)
    h2 = l.h.without(take)
    return LocalConfiguration(h2, {v: l.d[v] for v in h2.vertices}, l.delta)


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


def _true_degree_counts(l: LocalConfiguration) -> list[int]:
    counts = [0, 0, 0, 0]
    for v in l.h.vertices:
        counts[l.true_degree(v)] += 1
    return counts


def boundary_profile(l: LocalConfiguration, b: Branch, after: LocalConfiguration) -> BoundaryProfile:
    counts = {"d31": 0, "d32": 0, "d21": 0, "r21": 0, "r22": 0, "r11": 0}
    for v in l.boundary():
        if v in b:
            key = (l.true_degree(v), l.d[v])
            if key == (3, 1):
                counts["d31"] += 1
            elif key == (3, 2):
                counts["d32"] += 1
            elif key == (2, 1):
                counts["d21"] += 1
        else:
            key = (after.true_degree(v), after.d[v])
            if key == (2, 1):
                counts["r21"] += 1
            elif key == (2, 2):
                counts["r22"] += 1
            elif key == (1, 1):
                counts["r11"] += 1
    return BoundaryProfile(**counts)


def cost_bound(
    l: LocalConfiguration,
    b: Iterable[int],
    m: Measure,
    assertions: SubspaceAssertions = NO_ASSERTIONS,
) -> CostBound:
    """Exponent e with cost(l, b) <= 2^e, by the tightest applicable bound."""
    take = frozenset(b)
    after = apply_branch(l, take)
    before_counts = _true_degree_counts(l)
    after_counts = _true_degree_counts(after)
    dn = [after_counts[i] - before_counts[i] for i in range(4)]
    p = boundary_profile(l, take, after)
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
    multiplier = max(m.beta1 - m.beta2, -m.beta1)
    exponent = (
        m.alpha * (-len(take))
        + m.beta1 * dn[1]
        + m.beta2 * dn[2]
        + m.beta3 * dn[3]
        + max(Fraction(0), correction_count * multiplier)
    )
    return CostBound(exponent, lemma, -len(take), dn[1], dn[2], dn[3], p)


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
    order = sorted(range(len(branches)), key=lambda i: branch_sort_key(branches[i]))
    # collapse identical eb sets first: only the cheapest, earliest survives
    best_for_mask: dict[int, int] = {}
    for i in order:
        cur = best_for_mask.get(eb_masks[i])
        if cur is None or exponents[i] < exponents[cur]:
            best_for_mask[eb_masks[i]] = i
    reps = sorted(best_for_mask.values(), key=lambda i: branch_sort_key(branches[i]))
    survivors = []
    for pos, i in enumerate(reps):
        dominated = False
        for pos2, j in enumerate(reps):
            if i == j:
                continue
            if exponents[j] > exponents[i]:
                continue
            if eb_masks[i] & ~eb_masks[j]:
                continue
            if (
                exponents[j] < exponents[i]
                or eb_masks[j] != eb_masks[i]
                or pos2 < pos
            ):
                dominated = True
                break
        if not dominated:
            survivors.append(i)
    return survivors
