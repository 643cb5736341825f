"""Exhaustive host-graph completions of a configuration, up to measure effect.

Applying a branch b changes the measure through (a) the visible part of the
configuration, (b) survivors losing incomplete edges that had resolved into
removed vertices, and (c) external neighbors of removed vertices dropping
degree.  Everything farther away is untouched, so completions only need to
fix, per incomplete edge of a removed vertex, its counterparty: a surviving
boundary vertex, another removed vertex, or an external vertex of declared
final degree (externals may absorb several such edges).  Each enumerated
completion is realizable as a concrete simplification-free host by wiring
all remaining slots into a far, rule-free 3-regular scaffold.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from vcgen.configs import LocalConfiguration
from vcgen.graphs import Graph
from vcgen.measure import Measure


@dataclass(frozen=True)
class Completion:
    to_survivor: tuple[tuple[int, int], ...]  # (removed v, surviving u)
    to_removed: tuple[tuple[int, int], ...]  # (v, w), both removed, v < w
    groups: tuple[tuple[tuple[int, ...], int], ...]  # (removed hosts, degree)


def _structures(l: LocalConfiguration, b: frozenset[int]):
    removed = {v: l.d[v] for v in sorted(b) if l.d[v] > 0}
    survivors = {u: l.d[u] for u in sorted(l.boundary() - b)}
    shapes: set[tuple] = set()

    def rec(remaining, surv_left, pairs_s, pairs_r, groups):
        vertex = next((v for v in removed if remaining[v] > 0), None)
        if vertex is None:
            shape = (
                tuple(sorted(pairs_s)),
                tuple(sorted(pairs_r)),
                tuple(sorted(tuple(sorted(g)) for g in groups)),
            )
            shapes.add(shape)
            return
        remaining2 = dict(remaining)
        remaining2[vertex] -= 1
        g = l.h
        for u in survivors:
            if surv_left[u] > 0 and (vertex, u) not in pairs_s and not g.has_edge(vertex, u):
                s2 = dict(surv_left)
                s2[u] -= 1
                rec(remaining2, s2, pairs_s | {(vertex, u)}, pairs_r, groups)
        for w in removed:
            if w > vertex and remaining2[w] > 0 and (vertex, w) not in pairs_r and not g.has_edge(vertex, w):
                r2 = dict(remaining2)
                r2[w] -= 1
                rec(r2, surv_left, pairs_s, pairs_r | {(vertex, w)}, groups)
        for i, grp in enumerate(groups):
            if vertex not in grp and len(grp) < 3:
                rec(remaining2, surv_left, pairs_s, pairs_r,
                    groups[:i] + [grp | {vertex}] + groups[i + 1 :])
        rec(remaining2, surv_left, pairs_s, pairs_r, groups + [frozenset({vertex})])

    rec(removed, dict(survivors), frozenset(), frozenset(), [])
    return shapes


def enumerate_completions(l: LocalConfiguration, b: frozenset[int]):
    """All measure-distinct resolutions of the removed vertices' slots."""
    for pairs_s, pairs_r, host_sets in _structures(l, b):
        degree_choices = [range(max(2, len(hosts)), 4) for hosts in host_sets]
        for degs in itertools.product(*degree_choices):
            yield Completion(
                pairs_s,
                pairs_r,
                tuple((hosts, t) for hosts, t in zip(host_sets, degs)),
            )


def completion_config(l: LocalConfiguration, c: Completion) -> LocalConfiguration:
    """The known part of the completed host, as a configuration."""
    vertices = list(l.h.vertices)
    edges = list(l.h.edges())
    d = dict(l.d)
    for v, u in c.to_survivor:
        edges.append((v, u))
        d[v] -= 1
        d[u] -= 1
    for v, w in c.to_removed:
        edges.append((v, w))
        d[v] -= 1
        d[w] -= 1
    nxt = max(vertices, default=-1) + 1
    for hosts, t in c.groups:
        vertices.append(nxt)
        d[nxt] = t - len(hosts)
        for h in hosts:
            edges.append((nxt, h))
            d[h] -= 1
        nxt += 1
    return LocalConfiguration(Graph(vertices, edges), d)


def beta(m: Measure, degree: int) -> Fraction:
    """The weight of a vertex of true degree `degree`."""
    return {1: m.beta1, 2: m.beta2, 3: m.beta3}.get(degree, Fraction(0))


def realized_exponent(
    l: LocalConfiguration, b: frozenset[int], c: Completion, m: Measure
) -> Fraction:
    """mu(b(I)) - mu(I) on the completed host, exactly."""
    delta = m.alpha * (-len(b))

    def shift(old: int, new: int) -> Fraction:
        return beta(m, new) - beta(m, old)

    for v in b:
        delta -= beta(m, l.true_degree(v))
    surv_hits = {u: 0 for u in l.h.vertices if u not in b}
    for v, u in c.to_survivor:
        surv_hits[u] += 1
    for u in surv_hits:
        old = l.true_degree(u)
        new = old - sum(1 for x in l.h.neighbors(u) if x in b) - surv_hits[u]
        delta += shift(old, new)
    for hosts, t in c.groups:
        delta += shift(t, t - len(hosts))
    return delta
