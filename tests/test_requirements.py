import itertools
import random

import pytest

from corpus import config_corpus
from vcgen.configs import LocalConfiguration
from vcgen.errors import CapacityError
from vcgen.graphs import Graph
from vcgen.requirements import RequirementContext, crucial_set, eb


def lone(d: int) -> LocalConfiguration:
    return LocalConfiguration(Graph([0]), {0: d})


def edge22() -> LocalConfiguration:
    return LocalConfiguration(Graph([0, 1], [(0, 1)]), {0: 2, 1: 2})


def test_crucial_lone_vertex():
    assert crucial_set(lone(3)) == (frozenset(),)


def test_crucial_edge():
    assert set(crucial_set(edge22())) == {frozenset({0}), frozenset({1})}


def test_crucial_empty_boundary():
    l = LocalConfiguration(Graph([0, 1], [(0, 1)]), {})
    assert crucial_set(l) == (frozenset(),)


def test_crucial_claw():
    # complete star: center 0 with leaves 1,2,3 still carrying slack
    l = LocalConfiguration(Graph(range(4), [(0, 1), (0, 2), (0, 3)]), {1: 2, 2: 2, 3: 2})
    assert set(crucial_set(l)) == {frozenset(), frozenset({1, 2, 3})}


def test_crucial_boundary_cap():
    big = LocalConfiguration(Graph(range(13)), {v: 1 for v in range(13)})
    with pytest.raises(CapacityError):
        crucial_set(big)


def test_eb_examples():
    l = edge22()
    r1 = crucial_set(l)
    assert eb(l, {0}, r1) == (frozenset({0}),)
    assert eb(l, {0, 1}, r1) == ()
    assert eb(l, frozenset(), r1) == r1  # empty branch satisfies everything


def test_dag_acyclic_and_prop20_exhaustive():
    rng = random.Random(47)
    corpus = config_corpus(seed=101, count=60, max_n=5)
    for l in corpus:
        ctx = RequirementContext(l)
        delta = ctx.delta
        vs = sorted(l.h.vertices)
        branches = [
            frozenset(c)
            for size in range(1, len(vs) + 1)
            for c in itertools.combinations(vs, size)
        ]
        for csize in range(len(delta)):
            for c in itertools.combinations(delta, csize):
                creq = frozenset(c)
                for v in delta:
                    if v in creq:
                        continue
                    forced = ctx.vc_minus(creq) == ctx.vc_minus(creq | {v}) + 1
                    for b in branches:
                        sat_c = ctx.satisfies(b, creq)
                        sat_cv = ctx.satisfies(b, creq | {v})
                        if forced:
                            assert not sat_cv or sat_c
                        else:
                            assert not sat_c or sat_cv


def satisfier_sets(ctx, universe, branches):
    """Bitmask of satisfying branches per requirement."""
    out = {}
    for r in universe:
        mask = 0
        for i, b in enumerate(branches):
            if ctx.satisfies(b, r):
                mask |= 1 << i
        out[r] = mask
    return out


def test_crucial_coverage_transfer_exhaustive():
    # For every requirement context R there is a crucial requirement whose
    # satisfying branches all satisfy R too: LP coverage of the crucial set
    # therefore covers every context.
    corpus = config_corpus(seed=103, count=60, max_n=5)
    for l in corpus:
        ctx = RequirementContext(l)
        crucial = ctx.crucial_set()
        delta = ctx.delta
        vs = sorted(l.h.vertices)
        universe = [
            frozenset(c)
            for size in range(len(delta) + 1)
            for c in itertools.combinations(delta, size)
        ]
        branches = [
            frozenset(c)
            for size in range(1, len(vs) + 1)
            for c in itertools.combinations(vs, size)
        ]
        sat = satisfier_sets(ctx, universe, branches)
        for r in universe:
            assert any(sat[rc] & ~sat[r] == 0 for rc in crucial), (l, r)


def test_requirement_dag_acyclic():
    corpus = config_corpus(seed=107, count=40, max_n=5)
    for l in corpus:
        ctx = RequirementContext(l)
        delta = ctx.delta
        n = len(delta)
        vc = [ctx.vc_minus(delta[i] for i in range(n) if mask >> i & 1)
              for mask in range(1 << n)]
        edges = []
        for mask in range(1 << n):
            for i in range(n):
                bit = 1 << i
                if mask & bit:
                    continue
                # adding v to the requirement costs no extra cover vertex:
                # the edge runs (R + v) -> R
                if vc[mask] == vc[mask | bit] + 1:
                    edges.append((mask | bit, mask))
                else:
                    edges.append((mask, mask | bit))
        # Kahn topological sort must consume every node
        indeg = {m: 0 for m in range(1 << n)}
        adj = {m: [] for m in range(1 << n)}
        for a, b in edges:
            adj[a].append(b)
            indeg[b] += 1
        queue = [m for m, d in indeg.items() if d == 0]
        seen = 0
        while queue:
            m = queue.pop()
            seen += 1
            for t in adj[m]:
                indeg[t] -= 1
                if indeg[t] == 0:
                    queue.append(t)
        assert seen == 1 << n
