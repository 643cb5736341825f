"""Reference solvers that vcgen.lp used before, kept unchanged as oracles
for tests/test_lp_differential.py and tests/test_lp.py.

solve_cover_lp is the exact Fraction simplex that preceded the
integer-preserving tableau: a primal two-phase simplex with Bland's rule
over fractions.Fraction; every pivot divides the pivot row by its pivot and
subtracts multiples of it from the other rows.

_exhaustive_cover is the set-cover depth-first search that solved every ILP
of up to 20 branches before branch and bound became the only ILP path.
"""

from __future__ import annotations

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
