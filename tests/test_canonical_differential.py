"""Canonical forms against the direct search in tests/reference_canonical.py.

`configs._canonical_form` encodes each vertex order from the neighbour
masks of its vertices and keeps the first least encoding with `min`; the
reference encodes pair by pair and keeps a running best.  Keys and orders
must be equal, orders included because `isomorphism` zips them into the
tables as `alias_iso`: on every configuration that generating both
reference table sets and the deep tables canonicalizes, on every node
configuration of those tables, and on seeded relabelled corpora.  The
caps must raise where the reference raises, with the same messages.
"""

import random

import pytest

import reference_canonical as ref
import vcgen.configs as configs
from corpus import MU_N20, build_tables, config_corpus, deep_tables, relabel
from vcgen.configs import CANONICAL_CAP, _PERM_BUDGET, LocalConfiguration
from vcgen.errors import CapacityError
from vcgen.graphs import Graph, cycle_graph
from vcgen.measure import pure_k


def outcome(form, l):
    """(key, order) of l, or the CapacityError message."""
    try:
        return form(l)
    except CapacityError as exc:
        return str(exc)


def test_generation_canonical_forms_match_reference(monkeypatch):
    canonical_form, seen, counts = configs._canonical_form, {}, []

    def check(l):
        seen[id(l)] = l  # held, so that no id is reused
        counts[-1] += 1
        got = outcome(canonical_form, l)
        assert got == outcome(ref.canonical_form, l), l
        return got

    def compared(l):
        got = check(l)
        if isinstance(got, str):
            raise CapacityError(got)
        return got

    monkeypatch.setattr(configs, "_canonical_form", compared)
    for generate in (lambda: build_tables(MU_N20, "randomized"),
                     lambda: build_tables(pure_k(), "deterministic"), deep_tables):
        counts.append(0)
        seen.clear()
        tables = generate().values()
        assert all(t.complete for t in tables)
        nodes = [node for t in tables for node in t.tree.nodes]
        for node in nodes:
            if id(node.config) not in seen:
                check(node.config)
        assert counts[-1] == len(nodes)  # every configuration canonicalized is a node's
    assert counts == [173, 25, 1_644]


def test_relabelled_corpus_matches_reference():
    rng = random.Random(53)
    checked = 0
    for l in config_corpus(59, 300, 10):
        vs = sorted(l.h.vertices)
        shuffled = rng.sample(range(3 * len(vs)), len(vs))
        for c in (l, relabel(l, dict(zip(vs, shuffled)))):
            assert outcome(configs._canonical_form, c) == outcome(ref.canonical_form, c), c
            checked += 1
    assert checked == 600


def isolated(*block_sizes: int) -> LocalConfiguration:
    """Edgeless configuration with one colour block per size: block i
    holds vertices of d = i, so refinement keeps the blocks as given."""
    d, v = {}, 0
    for i, size in enumerate(block_sizes):
        for _ in range(size):
            d[v], v = i, v + 1
    return LocalConfiguration(Graph(range(v)), d)


def test_a_block_of_eight_is_canonicalized():
    eight = LocalConfiguration(cycle_graph(8), dict.fromkeys(range(8), 1))
    assert len({c for c in configs._refined_colors(eight).values()}) == 1
    key, order = configs._canonical_form(eight)
    assert (key, order) == ref.canonical_form(eight)
    assert configs._canonical_form(isolated(6, 5)) == ref.canonical_form(isolated(6, 5))


@pytest.mark.parametrize("l", [
    LocalConfiguration(cycle_graph(9), dict.fromkeys(range(9), 1)),
    isolated(9),
    isolated(6, 6),
    isolated(1, 8, 3),
], ids=["9-cycle", "9 isolated", "6 and 6", "1, 8 and 3"])
def test_over_the_budget_raises(l):
    with pytest.raises(CapacityError, match="too many candidate orderings"):
        configs._canonical_form(l)
    assert outcome(configs._canonical_form, l) == outcome(ref.canonical_form, l)


def test_over_the_vertex_cap_raises():
    l = LocalConfiguration(Graph(range(CANONICAL_CAP + 1)), {})
    with pytest.raises(CapacityError, match=f"capped at {CANONICAL_CAP} vertices"):
        configs._canonical_form(l)
    assert outcome(configs._canonical_form, l) == outcome(ref.canonical_form, l)
    assert _PERM_BUDGET == 100_000 and CANONICAL_CAP == 16
