import itertools
import random
from fractions import Fraction

from reference_lp import _exhaustive_cover
from vcgen.lp import solve_cover_ilp, solve_cover_lp


def brute_force_lp_check(costs, masks, n_reqs, solution, grid=8):
    """The LP optimum is no worse than any rational grid point (sanity)."""
    n = len(costs)
    for combo in itertools.product([Fraction(0), Fraction(1, 2), Fraction(1)], repeat=n):
        if all(
            sum(w for w, m in zip(combo, masks) if m >> r & 1) >= 1
            for r in range(n_reqs)
        ):
            value = sum(c * w for c, w in zip(costs, combo))
            assert solution.objective <= value


def brute_force_ilp(costs, masks, n_reqs):
    best = None
    n = len(costs)
    for bits in range(1 << n):
        covered = 0
        cost = Fraction(0)
        for i in range(n):
            if bits >> i & 1:
                covered |= masks[i]
                cost += costs[i]
        if covered & ((1 << n_reqs) - 1) == (1 << n_reqs) - 1:
            if best is None or cost < best:
                best = cost
    return best


def test_single_branch_single_requirement():
    sol = solve_cover_lp([Fraction(3, 4)], [0b1], 1)
    assert sol.weights == (Fraction(1),)
    assert sol.objective == Fraction(3, 4)


def test_edge_rule_forces_both_weights():
    # two requirements, each covered by its own branch of cost 1/2
    costs = [Fraction(1, 2), Fraction(1, 2), Fraction(1, 4)]
    masks = [0b01, 0b10, 0b00]
    sol = solve_cover_lp(costs, masks, 2)
    assert sol.weights[0] == 1 and sol.weights[1] == 1 and sol.weights[2] == 0
    assert sol.objective == Fraction(1)


def test_degenerate_equal_cover_returns_basic_solution():
    costs = [Fraction(1, 2), Fraction(1, 2)]
    masks = [0b1, 0b1]
    sol = solve_cover_lp(costs, masks, 1)
    assert sorted(sol.weights) == [0, 1]
    assert sol.objective == Fraction(1, 2)


def test_infeasible_returns_none():
    assert solve_cover_lp([Fraction(1)], [0b01], 2) is None
    assert solve_cover_ilp([Fraction(1)], [0b01], 2, None) is None


def test_three_cycle_fractional_gap():
    # three requirements pairwise covered by three branches: LP can split
    # weights in halves (1.5c), the ILP needs two branches (2c)
    c = Fraction(1, 3)
    costs = [c, c, c]
    masks = [0b011, 0b110, 0b101]
    lp = solve_cover_lp(costs, masks, 3)
    ilp = solve_cover_ilp(costs, masks, 3, lp)
    assert lp.objective == Fraction(3, 2) * c
    assert ilp.objective == 2 * c
    assert sorted(ilp.weights) == [0, 1, 1]


def test_ilp_integral_lp_passthrough():
    costs = [Fraction(1, 2), Fraction(1, 2)]
    masks = [0b01, 0b10]
    ilp = solve_cover_ilp(costs, masks, 2, solve_cover_lp(costs, masks, 2))
    assert ilp.weights == (1, 1)
    assert ilp.objective == 1


def test_lp_never_exceeds_ilp_randomized():
    rng = random.Random(61)
    for _ in range(120):
        n = rng.randint(1, 7)
        n_reqs = rng.randint(0, 5)
        costs = [Fraction(rng.randint(1, 16), 16) for _ in range(n)]
        masks = [rng.getrandbits(n_reqs) for _ in range(n)]
        lp = solve_cover_lp(costs, masks, n_reqs)
        ilp = solve_cover_ilp(costs, masks, n_reqs, lp)
        assert (lp is None) == (ilp is None)
        if lp is None:
            continue
        assert lp.objective <= ilp.objective
        assert ilp.objective == brute_force_ilp(costs, masks, n_reqs)
        assert all(w in (0, 1) for w in ilp.weights)
        # both satisfy coverage exactly
        for sol in (lp, ilp):
            for r in range(n_reqs):
                total = sum(w for w, m in zip(sol.weights, masks) if m >> r & 1)
                assert total >= 1
        brute_force_lp_check(costs, masks, n_reqs, lp)


def test_ilp_branch_and_bound_path():
    # 24 branches, beyond 2^n enumeration; the exhaustive set-cover DFS
    # serves as the reference
    rng = random.Random(67)
    for _ in range(5):
        n = 24
        n_reqs = 6
        costs = [Fraction(rng.randint(1, 32), 32) for _ in range(n)]
        masks = [rng.getrandbits(n_reqs) | (1 << (i % n_reqs)) for i in range(n)]
        ilp = solve_cover_ilp(costs, masks, n_reqs, solve_cover_lp(costs, masks, n_reqs))
        assert ilp is not None
        _, ref_cost = _exhaustive_cover(costs, masks, n_reqs)
        assert ilp.objective == ref_cost
