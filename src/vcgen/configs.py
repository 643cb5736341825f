"""Local configurations: graph fragments with per-vertex incomplete-edge counts.

A configuration (H, d) stands for every host graph that contains H with each
vertex v incident to exactly d(v) additional, not-yet-known edges.  The true
degree deg_H(v) + d(v) is what the vertex will have in any host, and it is
conserved by the expansion relation.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .errors import CapacityError, ContractError, InputDomainError
from .graphs import MAX_DEGREE, Graph, format_graph

CANONICAL_CAP = 16
_PERM_BUDGET = 100_000  # covers a fully symmetric 8-cycle; larger classes skip merging

ChildLabel = tuple[str, int]  # ("internal", u) or ("new", true_degree)


class LocalConfiguration:
    """Immutable pair (H, d) with deg + d <= MAX_DEGREE everywhere."""

    __slots__ = ("h", "d", "__dict__")

    def __init__(self, h: Graph, d: Mapping[int, int]):
        full = {v: int(d.get(v, 0)) for v in h.vertices}
        for v, dv in full.items():
            if dv < 0:
                raise InputDomainError(f"negative incomplete count at {v}")
            if h.degree(v) + dv > MAX_DEGREE:
                raise InputDomainError(
                    f"vertex {v}: degree {h.degree(v)} + d {dv} exceeds {MAX_DEGREE}"
                )
        unknown = set(d) - h.vertices
        if unknown:
            raise InputDomainError(f"d given for unknown vertices {sorted(unknown)}")
        self.h = h
        self.d = full

    @cached_property
    def _key(self):
        return (
            frozenset(self.h.vertices),
            frozenset(self.h.edges()),
            tuple(sorted(self.d.items())),
        )

    @cached_property
    def _canonical(self) -> tuple[bytes, list[int]]:
        return _canonical_form(self)

    def __eq__(self, other) -> bool:
        # the same test as comparing _key, without sorting the edges
        return isinstance(other, LocalConfiguration) and self.h == other.h and self.d == other.d

    def __hash__(self) -> int:
        return hash(self._key)

    def boundary(self) -> frozenset[int]:
        """Vertices with at least one incomplete edge."""
        return frozenset(v for v, dv in self.d.items() if dv > 0)

    def true_degree(self, v: int) -> int:
        """Degree the vertex has in every host graph: deg_H(v) + d(v)."""
        return self.h.degree(v) + self.d[v]

    def __repr__(self) -> str:
        ds = {v: dv for v, dv in sorted(self.d.items()) if dv}
        return f"LocalConfiguration({sorted(self.h.vertices)}, {list(self.h.edges())}, d={ds})"


def instance_as_config(g: Graph) -> LocalConfiguration:
    """View a graph as a configuration with no incomplete edges.  A Graph
    is subcubic by construction, so there is nothing to check."""
    view = LocalConfiguration.__new__(LocalConfiguration)
    view.h = g
    view.d = dict.fromkeys(g.vertices, 0)
    return view


def select_expansion_vertex(l: LocalConfiguration) -> int:
    """Boundary vertex with lexicographically least (d, degree), smallest id."""
    b = l.boundary()
    if not b:
        raise ContractError("cannot expand a configuration with empty boundary")
    return min(b, key=lambda v: (l.d[v], l.h.degree(v), v))


def expand(l: LocalConfiguration) -> list[tuple[ChildLabel, LocalConfiguration]]:
    """One-edge refinements whose instance spaces jointly cover l's.

    Resolves one incomplete edge of the selected boundary vertex v: either it
    joins another boundary vertex u already in H (child ("internal", u)), or
    it reaches a fresh vertex of true degree dd in 1..MAX_DEGREE (child
    ("new", dd)).  Internal candidates already adjacent to v are skipped:
    hosts are simple graphs, so that resolution cannot occur.
    """
    v = select_expansion_vertex(l)
    children: list[tuple[ChildLabel, LocalConfiguration]] = []
    for u in sorted(l.boundary() - {v}):
        if l.h.has_edge(u, v):
            continue
        d2 = dict(l.d)
        d2[u] -= 1
        d2[v] -= 1
        children.append((("internal", u), LocalConfiguration(l.h.with_edge(u, v), d2)))
    fresh = max(l.h.vertices, default=-1) + 1
    for dd in range(1, MAX_DEGREE + 1):
        d2 = dict(l.d)
        d2[v] -= 1
        d2[fresh] = dd - 1
        children.append((("new", dd), LocalConfiguration(l.h.with_edge(v, fresh), d2)))
    return children


def is_expansion(
    big: LocalConfiguration,
    small: LocalConfiguration,
    starts: Optional[Iterable[int]] = None,
) -> Optional[dict[int, int]]:
    """Injective embedding of small into big conserving true degree.

    Edges of small must map onto edges of big, each mapped vertex must keep
    its true degree, and its plain degree may only grow (incomplete edges
    resolve, they never appear).  Returns the lexicographically first mapping
    found, or None.  starts, when given, holds every vertex of big that
    small's smallest vertex can map to (it may hold more), and only those
    are tried for it; the mapping found is the same.
    """
    small_vs = sorted(small.h.vertices)
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def candidates(v: int):
        """big's vertices that v may map to, in sorted order: the given
        starts for small's smallest vertex, else the neighbours of a mapped
        neighbour's image, else every vertex that can carry v's true degree
        (one of degree <= 2 in h lies in h's low set)."""
        mapped = [mapping[u] for u in small.h.neighbors(v) if u in mapping]
        if starts is not None and v == small_vs[0]:
            pool = starts
        elif mapped:
            pool = big.h.neighbors(mapped[0])
        elif small.true_degree(v) <= 2:
            pool = big.h.low_degree()
        else:
            pool = big.h.vertices
        td, hd = small.true_degree(v), small.h.degree(v)
        for w in sorted(pool):
            if (
                w not in used
                and big.true_degree(w) == td
                and big.h.degree(w) >= hd
                and all(big.h.has_edge(w, x) for x in mapped)
            ):
                yield w

    def assign(i: int) -> bool:
        if i == len(small_vs):
            return True
        v = small_vs[i]
        for w in candidates(v):
            mapping[v] = w
            used.add(w)
            if assign(i + 1):
                return True
            del mapping[v]
            used.remove(w)
        return False

    return dict(mapping) if assign(0) else None


# -- canonicalization --------------------------------------------------------


def _refined_colors(l: LocalConfiguration) -> dict[int, tuple]:
    """Stable vertex colors under (d, degree) + neighborhood refinement."""
    colors = {v: (l.d[v], l.h.degree(v)) for v in l.h.vertices}
    while True:
        refined = {
            v: (colors[v], tuple(sorted(colors[u] for u in l.h.neighbors(v))))
            for v in l.h.vertices
        }
        if len(set(refined.values())) == len(set(colors.values())):
            return colors
        colors = refined


def _canonical_order(l: LocalConfiguration) -> list[list[int]]:
    colors = _refined_colors(l)
    blocks: dict[tuple, list[int]] = {}
    for v in sorted(l.h.vertices):
        blocks.setdefault(colors[v], []).append(v)
    return [blocks[c] for c in sorted(blocks)]


def _encode(l: LocalConfiguration, perm: list[int]) -> bytes:
    """Encoding of l under the vertex order perm (position -> old vertex)."""
    pos = {v: i for i, v in enumerate(perm)}
    n = len(perm)
    bits = bytearray((n * (n - 1) // 2 + 7) // 8)
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            if l.h.has_edge(perm[i], perm[j]):
                bits[idx >> 3] |= 1 << (idx & 7)
            idx += 1
    header = bytes([n]) + bytes(l.d[v] for v in perm)
    return header + bytes(bits)


def _canonical_form(l: LocalConfiguration) -> tuple[bytes, list[int]]:
    """canonical_key(l) and the first vertex order found that realizes it
    (position -> vertex)."""
    if len(l.h) > CANONICAL_CAP:
        raise CapacityError(f"canonicalization capped at {CANONICAL_CAP} vertices")
    blocks = _canonical_order(l)
    total = 1
    for blk in blocks:
        for i in range(2, len(blk) + 1):
            total *= i
        if total > _PERM_BUDGET:
            raise CapacityError("too many candidate orderings for canonicalization")
    best: bytes | None = None
    best_perm: list[int] | None = None
    for parts in itertools.product(*[itertools.permutations(blk) for blk in blocks]):
        perm = [v for part in parts for v in part]
        enc = _encode(l, perm)
        if best is None or enc < best:
            best, best_perm = enc, perm
    assert best is not None and best_perm is not None
    return best, best_perm


def canonical_key(l: LocalConfiguration) -> bytes:
    """Equal keys iff configurations are isomorphic respecting d.

    Minimizes the adjacency encoding over all orderings compatible with the
    refined color classes; refinement only prunes the permutation search and
    never changes the result.  The search runs once per configuration.
    """
    return l._canonical[0]


def isomorphism(a: LocalConfiguration, b: LocalConfiguration) -> Optional[dict[int, int]]:
    """Vertex map a -> b respecting adjacency and d, via canonical orders."""
    if len(a.h) != len(b.h) or canonical_key(a) != canonical_key(b):
        return None
    return dict(zip(a._canonical[1], b._canonical[1]))


# -- text form, for failure reports -------------------------------------------
#
# The graph format of graphs.py plus one "d <v> <count>" line per vertex with
# incomplete edges.


def format_config(l: LocalConfiguration) -> str:
    order = sorted(l.h.vertices)
    pos = {v: i for i, v in enumerate(order)}
    lines = [format_graph(l.h).rstrip("\n")]
    lines.extend(f"d {pos[v]} {l.d[v]}" for v in order if l.d[v])
    return "\n".join(lines) + "\n"
