"""classify and forbidden_by against root embedding (tests/reference_roots.py).

A generated table is certified only for the instances that contain its
root, so an instance that classifies as sid must contain root_config(sid)
and no earlier root.  forbidden_by is also asked about each subspace alone,
so that every detector, not only the first to fire, is its root.
"""

import random

import reference_roots as ref
from corpus import random_cubic, random_subcubic
from test_cycles_differential import NAMED_CUBIC, girth5_cubic
from test_subspaces import simplification_free_corpus
from vcgen.branching import SubspaceAssertions
from vcgen.configs import expand, instance_as_config
from vcgen.graphs import Graph
from vcgen.subspaces import (
    SUBSPACE_IDS,
    assertions_for,
    classify,
    forbidden_by,
    root_config,
)

EACH_ALONE = [SubspaceAssertions(excluded_subspaces=(sid,)) for sid in SUBSPACE_IDS]
# the subspaces whose detector took two cycles sharing one edge or more
SHARING_ONE_EDGE = [EACH_ALONE[sid - 1] for sid in (9, 10, 12)]


def checked_class(g: Graph, alone=EACH_ALONE) -> int:
    sid = classify(g)
    assert sid == ref.classify(g), g
    l = instance_as_config(g)
    for a in alone:
        assert forbidden_by(l, a) == ref.forbidden_by(l, a), (a, g)
    return sid


def test_corpora_match_root_embedding():
    rng = random.Random(11)
    graphs = [random_cubic(rng, rng.randrange(4, 41, 2)) for _ in range(100)]
    graphs += [random_subcubic(rng, rng.randint(3, 14)) for _ in range(150)]
    graphs += simplification_free_corpus(79, 40)
    graphs.append(Graph())
    reached = {checked_class(g) for g in graphs}
    assert reached == set(range(1, 10)) | {19}, sorted(reached)


def test_girth5_cubic_sweep_matches_root_embedding():
    rng = random.Random(13)
    graphs = [girth5_cubic(rng, rng.randrange(20, 61, 2)) for _ in range(200)]
    reached = {checked_class(g, SHARING_ONE_EDGE) for g in graphs}
    assert reached == {9, 10, 11}, sorted(reached)


def test_named_graphs_match_root_embedding():
    # girth 5, 6, 7, 8 and 10
    assert [checked_class(g) for g in NAMED_CUBIC] == [9, 12, 14, 18, 19]


def test_expanded_roots_match_root_embedding():
    checked = 0
    for sid in SUBSPACE_IDS:
        for _, child in expand(root_config(sid), 3):
            grandchildren = [c for _, c in expand(child, 3)] if child.boundary() else []
            for l in [child, *grandchildren]:
                for a in (assertions_for(sid), assertions_for(19), *EACH_ALONE):
                    assert forbidden_by(l, a) == ref.forbidden_by(l, a), (a, l)
                    checked += 1
    assert checked > 15000
