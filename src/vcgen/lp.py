"""Exact covering LP / ILP solver used for rule synthesis.

minimize    sum_i cost_i * w_i
subject to  sum_{i covering r} w_i >= 1   for every requirement r
            0 <= w_i <= 1

The LP is a primal two-phase simplex with Bland's rule (terminating,
deterministic), integer-preserving (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 1968;
Edmonds, "Systems of distinct representatives and linear algebra", J. Res.
NBS 1967) and revised.  Every number is a Python int equal to det times
its true value, where det > 0 is the determinant of the current basis B,
and only det * B^-1, the rhs, the objective row over the m artificial
columns (the scaled duals, negated) and the basis are kept.  Every other
tableau column is a sum of columns of det * B^-1 over its requirements
(one column, negated, for a surplus), so pricing and the ratio test read
the integers the full tableau would hold, and each pivot updates
(m+1) x (m+1) numbers instead of (m+1) x (n+2m+1).  Phase 2 scales the
costs by the lcm of their denominators (a power of two for cost_value
outputs).  Every division is exact, and scaling by a positive constant
changes no sign and no ratio order, so each pivot is the one the plain
rational tableau would take, and so is the final vertex.  Numbers grow
only as far as the minors of the constraint matrix, not with the ~90-bit
cost denominators as Fractions did.  The 133 LPs of the pure-k and beta3 = 1/5 generations take 0.07 s,
against 0.15 s on the full integer tableau and 4.3 s as Fractions
(CPython 3.11.7, 2-CPU VM).

The integral variant is the one ILP path: a depth-first branch and bound
that fixes the first fractional variable to 1, then to 0, and drops a
subproblem whose LP relaxation is no better than the best cover found so
far.  An integral relaxation is returned as it is.  Costs are strictly
positive, which makes the upper bounds w_i <= 1 vacuous at optimality: any
optimal solution exceeding 1 could be capped and improved, so the bounds
are asserted rather than modeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

@dataclass(frozen=True)
class CoverSolution:
    weights: tuple[Fraction, ...]
    objective: Fraction


def _optimize(tableau: list[list[int]], basis: list[int], reqs: list[tuple[int, ...]],
              costs: Sequence[int], det: int) -> Optional[int]:
    """Run simplex to optimality (Bland's rule) and return the determinant;
    None means unbounded.

    tableau holds the rows det * B^-1 (one column per requirement, then the
    rhs) and last the objective row (w, then -det times the objective).
    Column j < n is real column j, with requirements reqs[j] and cost
    costs[j]; column n + r is the surplus column of requirement r.  Their
    tableau entries are sums of the inverse columns, so pricing, the ratio
    test (compared by cross-multiplication) and the pivot see the integers
    the full tableau holds.
    """
    n, m = len(reqs), len(tableau) - 1
    obj = tableau[m]
    while True:
        for j in range(n):
            rc = det * costs[j] + sum(map(obj.__getitem__, reqs[j]))
            if rc < 0:
                column = [sum(map(vals.__getitem__, reqs[j])) for vals in tableau[:m]]
                break
        else:
            j = next((r for r in range(m) if obj[r] > 0), None)
            if j is None:
                return det
            rc = -obj[j]
            column = [-vals[j] for vals in tableau[:m]]
            j += n
        row = None
        for i in range(m):
            coeff = column[i]
            if coeff > 0:
                if row is None:
                    row = i
                    continue
                # ratio_i ? ratio_row  <=>  rhs_i * coeff_row ? rhs_row * coeff_i
                lhs = tableau[i][-1] * column[row]
                rhs = tableau[row][-1] * coeff
                if lhs < rhs or (lhs == rhs and basis[i] < basis[row]):
                    row = i
        if row is None:
            return None
        # Bareiss pivot: the pivot row keeps its entries, every other row
        # becomes (t_ij*p - t_ic*t_rj) / det, an exact division, and the
        # pivot p becomes the determinant
        column.append(rc)
        pivot_row = tableau[row]
        p = column[row]
        for r, vals in enumerate(tableau):
            if r == row:
                continue
            f = column[r]
            if f:
                tableau[r] = [(a * p - f * b) // det for a, b in zip(vals, pivot_row)]
            elif p != det:
                tableau[r] = [a * p // det for a in vals]
        obj = tableau[m]
        basis[row] = j
        det = p


def solve_cover_lp(
    costs: Sequence[Fraction], cover_masks: Sequence[int], n_reqs: int
) -> Optional[CoverSolution]:
    """LP relaxation optimum, or None when some requirement is uncoverable.

    cover_masks[i] has bit r set when branch i satisfies requirement r.
    """
    n = len(costs)
    covered = 0
    for mask in cover_masks:
        covered |= mask
    if covered & ((1 << n_reqs) - 1) != (1 << n_reqs) - 1:
        return None
    if n_reqs == 0:
        return CoverSolution(tuple(Fraction(0) for _ in range(n)), Fraction(0))

    # columns: w_0..w_{n-1}, surplus s_r, artificial t_r; the artificial
    # basis has determinant 1, so det * B^-1 starts as the identity and every
    # rhs as 1
    reqs = [tuple(r for r in range(n_reqs) if mask >> r & 1) for mask in cover_masks]
    tableau = [[int(r == i) for r in range(n_reqs)] + [1] for i in range(n_reqs)]
    basis = list(range(n + n_reqs, n + 2 * n_reqs))

    # phase 1: minimize the artificials.  The full objective row holds
    # det + w_r over artificial t_r; the row kept here leaves out the det,
    # and the Bareiss update carries w alone exactly, as it turns det into
    # the pivot p.  The reduced cost of column j is det * c_j + sum(w_r over
    # reqs[j]) for a real column and -w_r for a surplus one.
    tableau.append([-1] * n_reqs + [-n_reqs])
    det = _optimize(tableau, basis, reqs, [0] * n, 1)
    if det is None:  # pragma: no cover - bounded by design
        raise AssertionError("phase-1 LP cannot be unbounded")
    if tableau[-1][-1] != 0:
        return None  # infeasible; unreachable past the cover pre-check
    # No artificial is left in the basis, so no pivot on a negative entry is
    # needed to drive one out: a basic t_r has reduced cost 1 - y_r = 0, but
    # optimality needs y >= 0 (surplus columns) and -sum(y_r over the
    # requirements of branch i) >= 0 (real columns), so y = 0 on every
    # requirement that some branch covers.
    # Nor does Bland's rule ever price an artificial, which comes after
    # every real and surplus column: it would reach them only when all of
    # those are optimal, so with y = -w / det = 0 as above, and then each
    # artificial's reduced cost det * (1 - y_r) = det is positive.
    assert all(b < n + n_reqs for b in basis)

    # phase 2: original objective, scaled to integers; the artificials now
    # cost 0, so w = -(c_B scaled) * (det * B^-1)
    costs = [Fraction(c) for c in costs]
    scale = math.lcm(*(c.denominator for c in costs))
    int_costs = [c.numerator * (scale // c.denominator) for c in costs]
    obj = [0] * (n_reqs + 1)
    for i in range(n_reqs):
        if basis[i] < n:
            f = int_costs[basis[i]]
            obj = [a - f * b for a, b in zip(obj, tableau[i])]
    tableau[-1] = obj
    det = _optimize(tableau, basis, reqs, int_costs, det)
    if det is None:  # pragma: no cover
        raise AssertionError("covering LP with positive costs cannot be unbounded")

    weights = [Fraction(0)] * n
    for i in range(n_reqs):
        if basis[i] < n:
            weights[basis[i]] = Fraction(tableau[i][-1], det)
    objective = Fraction(-tableau[-1][-1], det * scale)
    assert all(0 <= w <= 1 for w in weights)
    assert objective == sum(c * w for c, w in zip(costs, weights))
    return CoverSolution(tuple(weights), objective)


def solve_cover_ilp(
    costs: Sequence[Fraction],
    cover_masks: Sequence[int],
    n_reqs: int,
    lp: Optional[CoverSolution],
) -> Optional[CoverSolution]:
    """Optimal binary cover, or None when infeasible.

    lp is the relaxation, solve_cover_lp(costs, cover_masks, n_reqs), which
    the caller already holds.
    """
    n = len(costs)
    if lp is None:
        return None
    if all(w in (0, 1) for w in lp.weights):
        return lp
    best: list[Optional[CoverSolution]] = [None]

    def rec(fixed_one: frozenset[int], fixed_zero: frozenset[int]):
        free = [i for i in range(n) if i not in fixed_one and i not in fixed_zero]
        base_mask = 0
        base_cost = Fraction(0)
        for i in fixed_one:
            base_mask |= cover_masks[i]
            base_cost += costs[i]
        remaining = [r for r in range(n_reqs) if not (base_mask >> r & 1)]
        remap = {r: j for j, r in enumerate(remaining)}
        sub_masks = []
        for i in free:
            m = 0
            for r in remaining:
                if cover_masks[i] >> r & 1:
                    m |= 1 << remap[r]
            sub_masks.append(m)
        lp_sub = solve_cover_lp([costs[i] for i in free], sub_masks, len(remaining))
        if lp_sub is None:
            return
        bound = base_cost + lp_sub.objective
        if best[0] is not None and bound >= best[0].objective:
            return
        if all(w in (0, 1) for w in lp_sub.weights):
            weights = [Fraction(0)] * n
            for i in fixed_one:
                weights[i] = Fraction(1)
            for j, i in enumerate(free):
                weights[i] = lp_sub.weights[j]
            best[0] = CoverSolution(tuple(weights), bound)
            return
        frac = free[next(j for j, w in enumerate(lp_sub.weights) if w not in (0, 1))]
        rec(fixed_one | {frac}, fixed_zero)
        rec(fixed_one, fixed_zero | {frac})

    rec(frozenset(), frozenset())
    return best[0]
