"""The integer measure and a take's measure drop against evaluate on built
graphs.

The engines keep the measure as an integer numerator over D, the common
denominator of the measure's weights, and the randomized engine weighs
each child by the measure drop it reads off the degree changes around its
take instead of building the child graph.  On seeded instances and takes,
both must equal evaluate exactly, and the drop must equal generation's
cost exponent for the take on the instance's boundary-free view.
"""

import random
from fractions import Fraction

import pytest

from corpus import MU_N20, random_subcubic
from vcgen.branching import cost_bound
from vcgen.configs import instance_as_config
from vcgen.graphs import Instance
from vcgen.measure import MU2, degree_counts, degree_shift, evaluate, pure_k

MEASURES = {"n-mode b3=1/5": MU_N20, "pure k": pure_k(), "MU2": MU2}


def takes(rng: random.Random, g):
    """Random vertex sets of g, and the neighbourhoods and closed
    neighbourhoods that rule entries take."""
    vs = sorted(g.vertices)
    for _ in range(6):
        yield frozenset(rng.sample(vs, rng.randint(1, min(5, len(vs)))))
    for v in rng.sample(vs, min(4, len(vs))):
        yield g.neighbors(v)
        yield g.neighbors(v) | {v}


@pytest.mark.parametrize("m", MEASURES.values(), ids=MEASURES)
def test_child_measure_from_degree_changes(m):
    rng = random.Random(41)
    scale = m.scaled[0]
    checked = 0
    for _ in range(150):
        g = random_subcubic(rng, rng.randint(1, 16))
        k = rng.randint(-2, len(g))
        counts = degree_counts(g)
        parent = Instance(g, k)
        assert Fraction(m.scaled_value(k, counts), scale) == evaluate(m, parent)
        view = instance_as_config(g)
        for take in takes(rng, g):
            child = Instance(g.without(take), k - len(take))
            dn, _ = degree_shift(g.degree, g.neighbors, take)
            assert [c + d for c, d in zip(counts, dn)] == degree_counts(child.graph), (g, take)
            drop = m.scaled_value(-len(take), dn)
            exact = evaluate(m, child) - evaluate(m, parent)
            assert Fraction(drop, scale) == exact, (g, take)
            # the float exponent of the walk's weight equals the one from evaluate
            assert drop / scale == float(exact)
            # on a boundary-free view the correction is 0: generation's cost
            # and the walk's weight are the same number
            assert cost_bound(view, take, m).exponent == exact, (g, take)
            checked += 1
    assert checked > 1000


@pytest.mark.parametrize("m", MEASURES.values(), ids=MEASURES)
def test_measure_sign_agrees_with_evaluate(m):
    rng = random.Random(43)
    signs = set()
    for _ in range(300):
        g = random_subcubic(rng, rng.randint(0, 14))
        inst = Instance(g, rng.randint(-3, len(g)))
        at_most_zero = evaluate(m, inst) <= 0
        assert (m.scaled_value(inst.budget, degree_counts(g)) <= 0) == at_most_zero
        signs.add(at_most_zero)
    assert signs == {True, False}
