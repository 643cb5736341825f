"""Reference solvers that vcgen.lp used before, kept unchanged as oracles
for tests/test_lp_differential.py and tests/test_lp.py.

solve_cover_lp is the exact Fraction simplex that preceded the
integer-preserving tableau: a primal two-phase simplex with Bland's rule
over fractions.Fraction; every pivot divides the pivot row by its pivot and
subtracts multiples of it from the other rows.

tableau_cover_lp is the integer-preserving (Bareiss) simplex that preceded
the revised one: the same Bland pivots on the full tableau, real, surplus
and artificial columns, every row rewritten at every pivot.  It is exact,
and on the 133 LPs of the two reference generations it takes 0.15 s where
the Fraction simplex takes 4.3 s, so it is the oracle for LPs that size.

_exhaustive_cover is the set-cover depth-first search that solved every ILP
of up to 20 branches before branch and bound became the only ILP path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from vcgen.lp import CoverSolution


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    pivot_row = tableau[row]
    for r, vals in enumerate(tableau):
        if r != row and vals[col] != 0:
            f = vals[col]
            tableau[r] = [a - f * b for a, b in zip(vals, pivot_row)]
    basis[row] = col


def _optimize(tableau: list[list[Fraction]], basis: list[int], n_cols: int) -> bool:
    """Run simplex to optimality (Bland's rule); False means unbounded."""
    m = len(tableau) - 1
    obj = tableau[m]
    while True:
        col = next((j for j in range(n_cols) if obj[j] < 0), None)
        if col is None:
            return True
        row = None
        best: Fraction | None = None
        for i in range(m):
            coeff = tableau[i][col]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    best, row = ratio, i
        if row is None:
            return False
        _pivot(tableau, basis, row, col)
        obj = tableau[m]


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

    # columns: w_0..w_{n-1}, surplus s_r, artificial t_r
    n_cols = n + 2 * n_reqs
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    for r in range(n_reqs):
        row = [Fraction(0)] * (n_cols + 1)
        for i in range(n):
            if cover_masks[i] >> r & 1:
                row[i] = Fraction(1)
        row[n + r] = Fraction(-1)
        row[n + n_reqs + r] = Fraction(1)
        row[-1] = Fraction(1)
        tableau.append(row)
        basis.append(n + n_reqs + r)

    # phase 1: minimize the artificials
    obj = [Fraction(0)] * (n_cols + 1)
    for r in range(n_reqs):
        obj[n + n_reqs + r] = Fraction(1)
    tableau.append(obj)
    for r in range(n_reqs):
        tableau[-1] = [a - b for a, b in zip(tableau[-1], tableau[r])]
    if not _optimize(tableau, basis, n_cols):  # pragma: no cover - bounded by design
        raise AssertionError("phase-1 LP cannot be unbounded")
    if -tableau[-1][-1] != 0:
        return None  # infeasible; unreachable past the cover pre-check
    # drive leftover artificials out of the basis
    for i in range(n_reqs):
        if basis[i] >= n + n_reqs:
            col = next(
                (j for j in range(n + n_reqs) if tableau[i][j] != 0),
                None,
            )
            if col is not None:
                _pivot(tableau, basis, i, col)

    # phase 2: original objective over real + surplus columns
    n_cols2 = n + n_reqs
    obj = [Fraction(0)] * (n_cols + 1)
    for i in range(n):
        obj[i] = Fraction(costs[i])
    tableau[-1] = obj
    for i in range(n_reqs):
        if basis[i] < n and costs[basis[i]] != 0:
            f = Fraction(costs[basis[i]])
            tableau[-1] = [a - f * b for a, b in zip(tableau[-1], tableau[i])]
    if not _optimize(tableau, basis, n_cols2):  # pragma: no cover
        raise AssertionError("covering LP with positive costs cannot be unbounded")

    weights = [Fraction(0)] * n
    for i in range(n_reqs):
        if basis[i] < n:
            weights[basis[i]] = tableau[i][-1]
    objective = -tableau[-1][-1]
    assert all(0 <= w <= 1 for w in weights)
    assert objective == sum(c * w for c, w in zip(costs, weights))
    return CoverSolution(tuple(weights), objective)


def _tableau_pivot(tableau: list[list[int]], basis: list[int], row: int, col: int, det: int) -> int:
    """Integer-preserving (Bareiss) pivot on a positive entry; returns the
    new determinant.

    Every entry is det times its true value.  The pivot row keeps its
    entries, every other row becomes (t_ij*p - t_ic*t_rj) / det, an exact
    division, and the pivot p becomes the determinant.
    """
    pivot_row = tableau[row]
    p = pivot_row[col]
    for r, vals in enumerate(tableau):
        if r == row:
            continue
        f = vals[col]
        if f:
            tableau[r] = [(a * p - f * b) // det for a, b in zip(vals, pivot_row)]
        elif p != det:
            tableau[r] = [a * p // det for a in vals]
    basis[row] = col
    return p


def _tableau_optimize(tableau: list[list[int]], basis: list[int], n_cols: int, det: int) -> Optional[int]:
    """Run simplex to optimality (Bland's rule) and return the determinant;
    None means unbounded.

    The tableau is a positive multiple of the true one, so the signs of the
    reduced costs and the order of the ratios (compared by
    cross-multiplication) are the true ones.
    """
    m = len(tableau) - 1
    while True:
        obj = tableau[m]
        col = next((j for j in range(n_cols) if obj[j] < 0), None)
        if col is None:
            return det
        row = None
        for i in range(m):
            coeff = tableau[i][col]
            if coeff > 0:
                if row is None:
                    row = i
                    continue
                # ratio_i ? ratio_row  <=>  rhs_i * coeff_row ? rhs_row * coeff_i
                lhs = tableau[i][-1] * tableau[row][col]
                rhs = tableau[row][-1] * coeff
                if lhs < rhs or (lhs == rhs and basis[i] < basis[row]):
                    row = i
        if row is None:
            return None
        det = _tableau_pivot(tableau, basis, row, col, det)


def tableau_cover_lp(
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
    # basis has determinant 1
    n_cols = n + 2 * n_reqs
    tableau: list[list[int]] = []
    basis: list[int] = []
    for r in range(n_reqs):
        row = [0] * (n_cols + 1)
        for i in range(n):
            if cover_masks[i] >> r & 1:
                row[i] = 1
        row[n + r] = -1
        row[n + n_reqs + r] = 1
        row[-1] = 1
        tableau.append(row)
        basis.append(n + n_reqs + r)

    # phase 1: minimize the artificials
    obj = [0] * (n_cols + 1)
    for r in range(n_reqs):
        obj[n + n_reqs + r] = 1
    for r in range(n_reqs):
        obj = [a - b for a, b in zip(obj, tableau[r])]
    tableau.append(obj)
    det = _tableau_optimize(tableau, basis, n_cols, 1)
    if det is None:  # pragma: no cover - bounded by design
        raise AssertionError("phase-1 LP cannot be unbounded")
    if tableau[-1][-1] != 0:
        return None  # infeasible; unreachable past the cover pre-check
    # No artificial is left in the basis, so no pivot on a negative entry is
    # needed to drive one out: a basic t_r has reduced cost 1 - y_r = 0, but
    # optimality needs y >= 0 (surplus columns) and -sum(y_r over the
    # requirements of branch i) >= 0 (real columns), so y = 0 on every
    # requirement that some branch covers.
    assert all(b < n + n_reqs for b in basis)

    # phase 2: original objective over real + surplus columns, scaled to
    # integers; the artificial columns are never read again
    n_cols2 = n + n_reqs
    costs = [Fraction(c) for c in costs]
    scale = math.lcm(*(c.denominator for c in costs))
    int_costs = [c.numerator * (scale // c.denominator) for c in costs]
    tableau = [vals[:n_cols2] + vals[-1:] for vals in tableau[:-1]]
    obj = [det * c for c in int_costs] + [0] * (n_reqs + 1)
    for i in range(n_reqs):
        if basis[i] < n and int_costs[basis[i]] != 0:
            f = int_costs[basis[i]]
            obj = [a - f * b for a, b in zip(obj, tableau[i])]
    tableau.append(obj)
    det = _tableau_optimize(tableau, basis, n_cols2, det)
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


def _exhaustive_cover(
    costs: Sequence[Fraction], cover_masks: Sequence[int], n_reqs: int
) -> tuple[tuple[int, ...], Fraction]:
    """Optimal 0/1 selection by set-cover DFS with cost pruning."""
    full = (1 << n_reqs) - 1
    coverers: list[list[int]] = [[] for _ in range(n_reqs)]
    for i, mask in enumerate(cover_masks):
        for r in range(n_reqs):
            if mask >> r & 1:
                coverers[r].append(i)
    best_cost: list[Fraction | None] = [None]
    best_pick: list[tuple[int, ...]] = [()]

    def rec(uncovered: int, banned: int, picked: tuple[int, ...], cost: Fraction):
        if best_cost[0] is not None and cost >= best_cost[0]:
            return
        if uncovered == 0:
            best_cost[0] = cost
            best_pick[0] = picked
            return
        r = (uncovered & -uncovered).bit_length() - 1
        for i in coverers[r]:
            if banned >> i & 1:
                continue
            rec(
                uncovered & ~cover_masks[i],
                banned | (1 << i),
                picked + (i,),
                cost + costs[i],
            )
            # once branch i is skipped for requirement r it stays excluded in
            # later alternatives of this frame, avoiding duplicate covers
            banned |= 1 << i

    rec(full, 0, (), Fraction(0))
    if best_cost[0] is None:
        return (), Fraction(-1)
    return best_pick[0], best_cost[0]
