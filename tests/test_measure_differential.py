"""The solve step's integer measure against evaluate on built graphs.

The engines keep the measure as an integer numerator over D, the common
denominator of the measure's weights, and the randomized engine reads each
child's measure off the degree changes around its take instead of
building the child graph.  On seeded instances and takes, both must equal
evaluate exactly.
"""

import random
from fractions import Fraction

import pytest

from corpus import MU_N20, random_subcubic
from vcgen.graphs import Instance
from vcgen.measure import MU2, evaluate, pure_k
from vcgen.runtime import _counts_after, _degree_counts, _scaled_measure

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
        counts = _degree_counts(g)
        parent = _scaled_measure(m, k, counts)
        assert Fraction(parent, scale) == evaluate(m, Instance(g, k))
        for take in takes(rng, g):
            child = Instance(g.without(take), k - len(take))
            scaled = _scaled_measure(m, child.budget, _counts_after(g, counts, take))
            assert Fraction(scaled, scale) == evaluate(m, child), (g, take)
            # the float weight of the walk equals the one from evaluate
            assert scaled / scale == float(evaluate(m, child))
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
        assert (_scaled_measure(m, inst.budget, _degree_counts(g)) <= 0) == at_most_zero
        signs.add(at_most_zero)
    assert signs == {True, False}
