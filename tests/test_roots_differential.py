"""classify and forbidden_by against root embedding (tests/reference_roots.py).

A generated table is certified only for the instances that contain its
root, so an instance that classifies as sid must contain root_config(sid)
and no earlier root.  forbidden_by is also asked about each subspace alone,
so that every detector, not only the first to fire, is its root.

The solve step anchors the root from the starts that classify found; on
the same corpora, that anchor must be the one the full search from every
vertex finds.
"""

import functools
import random

import pytest
import reference_roots as ref
from corpus import random_cubic, random_subcubic
from test_cycles_differential import NAMED_CUBIC, girth5_cubic
from test_subspaces import simplification_free_corpus
from vcgen.branching import SubspaceAssertions
from vcgen.configs import expand, instance_as_config, is_expansion
from vcgen.graphs import Graph, Instance
from vcgen.subspaces import (
    SUBSPACE_IDS,
    assertions_for,
    classify,
    forbidden_by,
    root_config,
)
from vcgen.tree import find_anchor

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


@functools.cache
def mixed_corpus() -> tuple[Graph, ...]:
    rng = random.Random(11)
    graphs = [random_cubic(rng, rng.randrange(4, 41, 2)) for _ in range(100)]
    graphs += [random_subcubic(rng, rng.randint(3, 14)) for _ in range(150)]
    graphs += simplification_free_corpus(79, 40)
    graphs.append(Graph())
    return tuple(graphs)


@functools.cache
def girth5_corpus() -> tuple[Graph, ...]:
    rng = random.Random(13)
    return tuple(girth5_cubic(rng, rng.randrange(20, 61, 2)) for _ in range(200))


def test_corpora_match_root_embedding():
    reached = {checked_class(g) for g in mixed_corpus()}
    assert reached == set(range(1, 10)) | {19}, sorted(reached)


def test_girth5_cubic_sweep_matches_root_embedding():
    reached = {checked_class(g, SHARING_ONE_EDGE) for g in girth5_corpus()}
    assert reached == {9, 10, 11}, sorted(reached)


def test_named_graphs_match_root_embedding():
    # girth 5, 6, 7, 8 and 10
    assert [checked_class(g) for g in NAMED_CUBIC] == [9, 12, 14, 18, 19]


def test_expanded_roots_match_root_embedding():
    checked = 0
    for sid in SUBSPACE_IDS:
        for _, child in expand(root_config(sid)):
            grandchildren = [c for _, c in expand(child)] if child.boundary() else []
            for l in [child, *grandchildren]:
                for a in (assertions_for(sid), assertions_for(19), *EACH_ALONE):
                    assert forbidden_by(l, a) == ref.forbidden_by(l, a), (a, l)
                    checked += 1
    assert checked > 15000


def anchored_class(g: Graph) -> int:
    """classify's subspace for g, after checking that the anchor from its
    starts is the full search's, and that the starts hold the full search's
    image of root vertex 0."""
    sid, starts = classify(g, with_starts=True)
    root = root_config(sid)
    full = is_expansion(instance_as_config(g), root)
    assert find_anchor(Instance(g, 0), root, starts) == full, (sid, g)
    if full is not None:
        assert full[0] in starts, (sid, sorted(starts), g)
    return sid


@pytest.mark.parametrize("corpus, expected", [
    (mixed_corpus, set(range(1, 10)) | {19}),
    (girth5_corpus, {9, 10, 11}),
    (lambda: NAMED_CUBIC, {9, 12, 14, 18, 19}),
], ids=["mixed", "girth5", "named"])
def test_anchor_from_starts_is_the_full_search(corpus, expected):
    reached = {anchored_class(g) for g in corpus()}
    assert reached == expected, sorted(reached)
