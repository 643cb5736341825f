"""The rule-leaf check that vcgen.rulegen used before it summed coverage as
integers, kept unchanged as the oracle of
tests/test_leaf_check_differential.py.

check_rule_leaf adds each entry's weight, as a Fraction, to every crucial
requirement the entry covers.  The package sums the same weights as integer
numerators over the lcm of their denominators; the failures, in order, and
the objective must agree on every leaf.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

import vcgen.rulegen as rulegen
from vcgen.branching import SubspaceAssertions, cost_bound, cost_value
from vcgen.configs import LocalConfiguration
from vcgen.measure import Measure
from vcgen.requirements import Requirement, RequirementContext
from vcgen.tree import RuleEntry


def check_rule_leaf(
    config: LocalConfiguration,
    entries: Sequence[RuleEntry],
    ctx: RequirementContext,
    crucial: Sequence[Requirement],
    m: Measure,
    rule_mode: str,
    assertions: SubspaceAssertions,
) -> tuple[list[str], Optional[Fraction]]:
    """Everything a rule leaf claims, recomputed by exact substitution: the
    failures found and the objective (None when an entry is malformed)."""
    objective = Fraction(0)
    coverage = [Fraction(0)] * len(crucial)
    for entry in entries:
        take = sorted(entry.take)
        if not entry.take or not entry.take <= config.h.vertices:
            return [f"branch {take} outside the graph"], None
        if any(config.h.degree(v) == 0 for v in entry.take):
            return [f"branch {take} takes an isolated vertex (its cost bound is not sound)"], None
        if entry.weight <= 0 or entry.weight > 1:
            return [f"weight {entry.weight} outside (0, 1]"], None
        if rule_mode == "deterministic" and entry.weight != 1:
            return ["fractional weight in a deterministic table"], None
        exp = cost_bound(config, entry.take, m, assertions).exponent
        cost = cost_value(exp)
        if not rulegen._at_least_pow2(cost, exp):
            return [f"cost of branch {take} is below 2^({exp})"], None
        objective += entry.weight * cost
    for entry, covered in zip(entries, ctx.cover_masks([e.take for e in entries], crucial)):
        for i in range(len(crucial)):
            if covered >> i & 1:
                coverage[i] += entry.weight
    failures = [f"requirement {sorted(r)} covered with weight {w} < 1"
                for r, w in zip(crucial, coverage) if w < 1]
    if objective > 1:
        failures.append(f"objective {objective} exceeds 1")
    return failures, objective
