"""Crucial sets against the reference in tests/reference_requirements.py.

The package reads vc(H - S), for every boundary subset S, off one
subset-maximum transform; the reference runs one vertex-cover search per
subset.  The table and the crucial set, in order, must agree: on a seeded
corpus whose boundaries reach the cap, and on every rule leaf of the two
reference table sets.
"""

import pytest

import reference_requirements as ref
from corpus import config_corpus
from vcgen.configs import LocalConfiguration
from vcgen.graphs import MAX_DEGREE
from vcgen.requirements import BOUNDARY_CAP, RequirementContext


def assert_same_crucial_set(l: LocalConfiguration):
    ctx = RequirementContext(l)
    got = ctx.crucial_set()
    want = RequirementContext(l)
    assert got == ref.crucial_set(want), l
    assert ctx.vc_table == ref.vc_table(want), l


def test_crucial_sets_match_reference_up_to_the_cap():
    # every vertex keeps its whole slack, so boundaries run up to the cap
    opened = [
        LocalConfiguration(l.h, {v: MAX_DEGREE - l.h.degree(v) for v in l.h.vertices})
        for l in config_corpus(seed=5, count=150, max_n=16)
    ]
    opened = [l for l in opened if len(l.boundary()) <= BOUNDARY_CAP]
    assert max(len(l.boundary()) for l in opened) == BOUNDARY_CAP
    for l in opened:
        assert_same_crucial_set(l)
    for l in config_corpus(seed=41, count=100, max_n=8):
        assert_same_crucial_set(l)


@pytest.mark.parametrize("engine", ["rand_engine", "det_engine"], ids=["n20", "k"])
def test_crucial_sets_match_reference_on_rule_leaves(engine, request):
    leaves = [
        node.config
        for table in request.getfixturevalue(engine).tables.values()
        for node in table.tree.nodes
        if node.kind == "leaf" and node.leaf.kind == "rule"
    ]
    assert leaves
    for l in leaves:
        assert_same_crucial_set(l)
