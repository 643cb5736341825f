"""Reference branch scoring: the cost bound and requirement coverage as
first written, kept as the oracle of tests/test_scoring_differential.py.

`cost_bound` here builds the child configuration with `apply_branch`,
counts true degrees before and after over the whole graph, and reads the
boundary profile off both configurations, all in `Fraction` arithmetic.
`coverage_mask` runs the Algorithm-3 test once per requirement through
`reference_requirements.vc_minus`.  The package scores a branch from its vertices and their
neighbours in integers, and tests coverage on vertex masks; both must agree
with this module on every input.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from vcgen.branching import (
    NO_ASSERTIONS,
    Branch,
    BoundaryProfile,
    CostBound,
    SubspaceAssertions,
)
from vcgen.configs import LocalConfiguration
from vcgen.measure import Measure
from reference_requirements import vc_minus
from vcgen.requirements import Requirement, RequirementContext


def apply_branch(l: LocalConfiguration, b: Iterable[int]) -> LocalConfiguration:
    """Remove the branch vertices; survivors keep their incomplete counts
    (the deleted incomplete edges' endpoints are unknown, so the counts are
    left as an upper approximation that the cost correction pays for)."""
    take = frozenset(b)
    h2 = l.h.without(take)
    return LocalConfiguration(h2, {v: l.d[v] for v in h2.vertices})


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


def satisfies(ctx: RequirementContext, b: Iterable[int], req: Requirement) -> bool:
    """Algorithm-3 test: b extends some minimum cover of H - req."""
    b = frozenset(b)
    extra = b - req
    return vc_minus(ctx, req) == vc_minus(ctx, req | b) + len(extra)


def coverage_mask(ctx: RequirementContext, b: Iterable[int], reqs: Sequence[Requirement]) -> int:
    """Bit i set iff b satisfies reqs[i], one requirement at a time."""
    mask = 0
    for i, r in enumerate(reqs):
        if satisfies(ctx, b, r):
            mask |= 1 << i
    return mask
