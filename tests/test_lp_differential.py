"""The revised integer simplex against the two simplexes it replaced, and
branch and bound against the exhaustive set-cover search.

All three run Bland's rule on the same tableau up to a positive factor: the
Fraction simplex and the full integer tableau hold it, the revised simplex
derives each entry it reads from det * B^-1.  So they must take the same
pivots and return the same vertex: equal weights, not only an equal
objective.  Optimal 0/1 covers can tie, so the ILP is held to the oracle's
objective and to covering every requirement.
"""

import random
from fractions import Fraction

import pytest

import vcgen.rulegen as rulegen
from corpus import MU_N20, build_tables
from reference_lp import _exhaustive_cover, tableau_cover_lp
from reference_lp import solve_cover_lp as reference_lp
from vcgen.branching import cost_value
from vcgen.lp import solve_cover_ilp, solve_cover_lp
from vcgen.measure import pure_k


def dyadic_costs(rng, n):
    # cost_value of exponents like those of cost_bound: 2^e rounded up
    return [cost_value(Fraction(-rng.randint(1, 80), rng.randint(1, 24))) for _ in range(n)]


def non_dyadic_costs(rng, n):
    return [Fraction(rng.randint(1, 12), rng.choice((3, 5, 6, 7, 9, 12))) for _ in range(n)]


def coverable_masks(rng, n, n_reqs):
    masks = [rng.getrandbits(n_reqs) for _ in range(n)]
    for r in range(n_reqs):
        masks[rng.randrange(n)] |= 1 << r
    return masks


def random_case(rng, family):
    """costs, masks, n_reqs for one seeded case of the given family."""
    if family == "wide":
        # shaped like generation's largest LPs: sparse masks, and costs 2^e
        # for e in (-4, 0), whose denominators have ~96 bits
        n, n_reqs = rng.randint(120, 200), rng.randint(14, 20)
        costs = [cost_value(Fraction(-rng.randint(1, 400), 100)) for _ in range(n)]
        masks = [rng.getrandbits(n_reqs) & rng.getrandbits(n_reqs) for _ in range(n)]
        for r in range(n_reqs):
            masks[rng.randrange(n)] |= 1 << r
        return costs, masks, n_reqs
    if family == "large":
        n, n_reqs = rng.randint(30, 60), rng.randint(8, 12)
    else:
        n, n_reqs = rng.randint(1, 24), rng.randint(1, 8)
    costs = (non_dyadic_costs if family == "non-dyadic" else dyadic_costs)(rng, n)
    masks = coverable_masks(rng, n, n_reqs)
    if family == "degenerate":
        # copies of a few masks with a few distinct costs tie ratios and
        # reduced costs
        pool = [(costs[i], masks[i]) for i in range(min(n, 3))]
        missing = (1 << n_reqs) - 1
        for _, m in pool:
            missing &= ~m
        pool[0] = (pool[0][0], pool[0][1] | missing)
        picks = [pool[i % len(pool)] for i in range(n)]
        rng.shuffle(picks)
        costs = [c for c, _ in picks]
        masks = [m for _, m in picks]
    elif family == "equal-costs":
        # many optimal vertices: which one comes out depends on every
        # entering and leaving decision
        costs = [costs[0]] * n
    elif family == "uncoverable":
        lost = 1 << rng.randrange(n_reqs)
        masks = [m & ~lost for m in masks]
    elif family == "no-requirements":
        n_reqs = 0
        masks = [0] * n
    return costs, masks, n_reqs


FAMILIES = {
    "dyadic": 120,
    "non-dyadic": 80,
    "degenerate": 80,
    "equal-costs": 150,
    "uncoverable": 20,
    "no-requirements": 10,
    "large": 12,
}


@pytest.mark.parametrize("family", FAMILIES)
def test_integer_simplex_matches_fraction_simplex(family):
    rng = random.Random(f"lp-differential/{family}")
    for _ in range(FAMILIES[family]):
        costs, masks, n_reqs = random_case(rng, family)
        got = solve_cover_lp(costs, masks, n_reqs)
        assert got == reference_lp(costs, masks, n_reqs), (costs, masks, n_reqs)
        ilp = solve_cover_ilp(costs, masks, n_reqs, got)
        _, ilp_objective = _exhaustive_cover(costs, masks, n_reqs)
        if family == "uncoverable":
            assert got is None and ilp is None and ilp_objective == -1
            continue
        if family == "no-requirements":
            assert got.objective == 0 and set(got.weights) == {0}
        assert ilp.objective == ilp_objective, (costs, masks, n_reqs)
        assert set(ilp.weights) <= {0, 1}
        assert ilp.objective == sum(c for c, w in zip(costs, ilp.weights) if w)
        covered = 0
        for w, m in zip(ilp.weights, masks):
            if w:
                covered |= m
        assert covered == (1 << n_reqs) - 1


def test_revised_simplex_matches_both_oracles_on_wide_lps():
    """Columns per requirement is where the revised and the full tableau
    differ most; the Fraction simplex takes seconds per case of this size,
    so it checks the first two."""
    rng = random.Random("lp-differential/wide")
    for case in range(30):
        costs, masks, n_reqs = random_case(rng, "wide")
        got = solve_cover_lp(costs, masks, n_reqs)
        assert got == tableau_cover_lp(costs, masks, n_reqs), (costs, masks, n_reqs)
        if case < 2:
            assert got == reference_lp(costs, masks, n_reqs), (costs, masks, n_reqs)


def test_generation_lps_match_the_tableau_oracle(monkeypatch):
    """Every LP that generating the two reference table sets solves."""
    solved = []

    def checked(costs, masks, n_reqs):
        got = solve_cover_lp(costs, masks, n_reqs)
        assert got == tableau_cover_lp(costs, masks, n_reqs), (costs, masks, n_reqs)
        solved.append(len(costs))
        return got

    monkeypatch.setattr(rulegen, "solve_cover_lp", checked)
    for m, mode in ((MU_N20, "randomized"), (pure_k(), "deterministic")):
        assert all(t.complete for t in build_tables(m, mode).values())
    assert len(solved) == 133 and max(solved) > 150


def test_tie_families_reach_tied_and_fractional_vertices():
    """The seeded tie families exercise what they are meant to: some
    duplicate-mask optima leave out a copy of a branch they pick, and some
    equal-cost optima are fractional."""
    rng = random.Random("lp-differential/degenerate")
    tied = 0
    for _ in range(FAMILIES["degenerate"]):
        costs, masks, n_reqs = random_case(rng, "degenerate")
        sol = solve_cover_lp(costs, masks, n_reqs)
        picked = {i for i, w in enumerate(sol.weights) if w > 0}
        tied += any(
            i not in picked and (costs[i], masks[i]) == (costs[j], masks[j])
            for i in range(len(costs)) for j in picked
        )
    rng = random.Random("lp-differential/equal-costs")
    fractional = 0
    for _ in range(FAMILIES["equal-costs"]):
        sol = solve_cover_lp(*random_case(rng, "equal-costs"))
        fractional += any(w not in (0, 1) for w in sol.weights)
    assert tied > 0 and fractional > 0
