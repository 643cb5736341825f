"""The 19-way partition of subcubic instances and its per-subspace data.

Each subspace is defined by one structure, its shape in SHAPES, with all
earlier structures absent.  The shape gives both the subspace's root
configuration and the detector that classify and forbidden_by run, and the
detector fires exactly when the root embeds.  Detectors are written over a
degree function so they run both on concrete instances (graph degree) and on
local configurations (true degree over complete edges only), where a
structure counts only when it is certain in every host graph.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, Iterator, Optional

from .branching import SubspaceAssertions
from .configs import LocalConfiguration
from .errors import InputDomainError
from .graphs import Graph, cycle_graph, enumerate_cycles

Shape = tuple
DegreeFn = Callable[[int], int]

# sid -> the structure that defines the subspace, one of
#   ("vertex", t)             a vertex of degree t; P1's detector also takes
#                             degree 0, so an isolated vertex is P1
#   ("fork",)                 a degree-3 vertex with two degree-2 neighbours
#   ("cycle", length, twos)   a cycle with `twos` (0 or 1) vertices of
#                             degree 2 and all others of degree 3
#   ("cycles", a, b, shared)  an a-cycle and a b-cycle of degree-3 vertices
#                             that share exactly a path of `shared` edges
SHAPES: dict[int, Shape] = {
    1: ("vertex", 1),
    2: ("fork",),
    3: ("cycle", 4, 1),
    4: ("cycle", 5, 1),
    5: ("cycle", 6, 1),
    6: ("vertex", 2),
    7: ("cycle", 3, 0),
    8: ("cycle", 4, 0),
    9: ("cycles", 5, 5, 1),
    10: ("cycles", 5, 7, 1),
    11: ("cycle", 5, 0),
    12: ("cycles", 6, 6, 1),
    13: ("cycle", 6, 0),
    14: ("cycles", 7, 7, 3),
    15: ("cycles", 7, 7, 2),
    16: ("cycles", 7, 7, 1),
    17: ("cycle", 7, 0),
    18: ("cycle", 8, 0),
    19: ("vertex", 3),
}
SUBSPACE_IDS = tuple(SHAPES)


def _cycle_edges(c: tuple[int, ...]) -> frozenset[frozenset[int]]:
    return frozenset(
        frozenset((c[i], c[(i + 1) % len(c)])) for i in range(len(c))
    )


class _Structures:
    """The structures of one graph under a degree function.  Cycles are
    listed once, up to the longest length a detector has asked for.

    scan, by default every vertex, holds every vertex of degree at most 2
    under deg (it may hold more); the low-degree detectors look only there.

    Each detector is a generator that yields a vertex each time it meets
    its structure, so asking for the first yield stops where a yes/no
    detector would.  Drawn to the end, its yields hold every vertex that
    vertex 0 of the shape's root can map to; see starts.
    """

    def __init__(self, g: Graph, deg: DegreeFn, scan: Optional[Iterable[int]] = None):
        self.g = g
        self.deg = deg
        self.low = [v for v in (g.vertices if scan is None else scan) if deg(v) <= 2]
        self._searched = 0
        self._cycles: dict[int, list[tuple[int, ...]]] = {}

    def has(self, shape: Shape) -> bool:
        return next(self.find(shape), None) is not None

    def find(self, shape: Shape) -> Iterator[int]:
        kind, *args = shape
        if kind == "vertex":
            return self._vertex(*args)
        if kind == "fork":
            return self._fork()
        if kind == "cycle":
            return self._cycle(*args)
        return self._cycles_sharing(*args)

    def starts(self, shape: Shape, found: Iterable[int]) -> set[int]:
        """The vertices that vertex 0 of the shape's root can map to, and
        maybe more, from the rest of a detector's yields: for a vertex
        shape the smallest vertex of its degree, else all of them."""
        if shape[0] == "vertex":
            t = shape[1]
            smallest = min((v for v in found if self.deg(v) == t), default=None)
            return set() if smallest is None else {smallest}
        return set(found)

    def cycles(self, length: int) -> list[tuple[int, ...]]:
        if length > self._searched:
            self._searched, self._cycles = length, {}
            for c in enumerate_cycles(self.g, length):
                self._cycles.setdefault(len(c), []).append(c)
        return self._cycles.get(length, [])

    def _all_deg3(self, c: Iterable[int]) -> bool:
        return all(self.deg(v) == 3 for v in c)

    def _vertex(self, t: int) -> Iterator[int]:
        """Vertices of degree t (for t = 1, also of degree 0)."""
        pool = self.low if t <= 2 else self.g.vertices
        deg = self.deg
        return (v for v in pool if (deg(v) <= 1 if t == 1 else deg(v) == t))

    def _fork(self) -> Iterator[int]:
        """Degree-3 vertices, once per degree-2 neighbour after the first."""
        seen: set[int] = set()
        for u in self.low:
            if self.deg(u) != 2:
                continue
            for v in self.g.neighbors(u):
                if self.deg(v) == 3:
                    if v in seen:
                        yield v
                    seen.add(v)

    def _cycle(self, length: int, twos: int) -> Iterator[int]:
        """With no degree-2 vertex, the vertices of each such cycle; with
        one, that vertex."""
        if not twos:
            for c in self.cycles(length):
                if self._all_deg3(c):
                    yield from c
            return
        # a degree-2 vertex on two edges of g, and a path of length - 2
        # edges between its neighbours
        for x in self.low:
            if self.deg(x) == 2 and self.g.degree(x) == 2:
                a, b = self.g.neighbors(x)
                if self.deg(a) == 3 and self._deg3_path(a, b, length - 2, {x, a}):
                    yield x

    def _deg3_path(self, u: int, end: int, edges: int, on_path: set[int]) -> bool:
        """A simple path of the given number of edges from u to end, off
        on_path, through vertices of degree 3 only."""
        if edges == 1:
            return self.g.has_edge(u, end) and self.deg(end) == 3
        for w in self.g.neighbors(u):
            if w not in on_path and w != end and self.deg(w) == 3:
                on_path.add(w)
                if self._deg3_path(w, end, edges - 1, on_path):
                    return True
                on_path.remove(w)
        return False

    def _cycles_sharing(self, len_a: int, len_b: int, shared: int) -> Iterator[int]:
        """The common vertices of each pair.  In a subcubic graph a vertex
        on two cycles touches an edge both use, so `shared` common edges on
        shared + 1 common vertices form one path, and the two cycles form
        exactly the shape's root."""
        a_list = [c for c in self.cycles(len_a) if self._all_deg3(c)]
        b_list = a_list if len_a == len_b else [c for c in self.cycles(len_b) if self._all_deg3(c)]
        b_edges = [_cycle_edges(c) for c in b_list]
        for i, ca in enumerate(a_list):
            ea = _cycle_edges(ca)
            for j in range(i + 1 if len_a == len_b else 0, len(b_list)):
                if len(ea & b_edges[j]) == shared:
                    common = set(ca).intersection(b_list[j])
                    if len(common) == shared + 1:
                        yield from common


def classify(g: Graph, with_starts: bool = False) -> int | tuple[int, set[int]]:
    """Smallest subspace whose structure is present; 19 when none is.

    with_starts adds the vertices of g that vertex 0 of the subspace's root
    can map to (maybe more), which the detector that fired met on its way,
    so that anchoring need not search for the structure again.
    """
    s = _Structures(g, g.degree, g.low_degree())
    for sid in SUBSPACE_IDS:
        found = s.find(SHAPES[sid])
        first = next(found, None)
        if first is not None:
            break
    if not with_starts:
        return sid
    return sid, s.starts(SHAPES[sid], () if first is None else chain((first,), found))


def forbidden_by(l: LocalConfiguration, a: SubspaceAssertions) -> Optional[int]:
    """Smallest subspace excluded by the assertions whose structure is
    certain in l; None when there is none."""
    s = _Structures(l.h, l.true_degree)
    for sid in a.excluded_subspaces:
        if s.has(SHAPES[sid]):
            return sid
    return None


def _shape(sid: int) -> Shape:
    if sid not in SHAPES:
        raise InputDomainError(f"subspace id {sid} outside 1..19")
    return SHAPES[sid]


def subspace_name(sid: int) -> str:
    return f"P{sid}"


def parse_subspace(name: str) -> int:
    """The id named by an optional single P or p and ASCII digits."""
    digits = name[1:] if name[:1] in ("P", "p") else name
    if not (digits.isascii() and digits.isdigit()):
        raise InputDomainError(f"bad subspace name {name!r}")
    sid = int(digits)
    _shape(sid)
    return sid


def _shared_cycles_config(la: int, lb: int, shared_path: int) -> LocalConfiguration:
    """Two cycles of the given lengths sharing a path of `shared_path` edges,
    every vertex at true degree 3."""
    a = list(range(la))
    edges = [(a[i], a[(i + 1) % la]) for i in range(la)]
    # second cycle reuses vertices 0..shared_path then fresh ones
    fresh = list(range(la, la + lb - shared_path - 1))
    b_path = list(range(shared_path + 1)) + fresh
    edges += [(b_path[i], b_path[i + 1]) for i in range(shared_path, len(b_path) - 1)]
    edges.append((b_path[-1], 0))
    g = Graph(range(la + len(fresh)), edges)
    return LocalConfiguration(g, {v: 3 - g.degree(v) for v in g.vertices})


def root_config(sid: int) -> LocalConfiguration:
    """The subspace's defining structure as an anchoring configuration."""
    kind, *args = _shape(sid)
    if kind == "vertex":
        return LocalConfiguration(Graph([0]), {0: args[0]})
    if kind == "fork":
        g = Graph(range(3), [(0, 1), (0, 2)])
        return LocalConfiguration(g, {0: 1, 1: 1, 2: 1})
    if kind == "cycle":
        length, twos = args
        return LocalConfiguration(cycle_graph(length), {v: 1 for v in range(twos, length)})
    return _shared_cycles_config(*args)


def assertions_for(sid: int) -> SubspaceAssertions:
    """Every earlier subspace is excluded; the cost lemmas that need no fork
    or no degree-2 vertex hold once P2 or P6 is."""
    _shape(sid)
    excluded = tuple(range(1, sid))
    shapes = {SHAPES[e] for e in excluded}
    return SubspaceAssertions(
        no_deg3_with_two_deg2=("fork",) in shapes,
        no_degree_2=("vertex", 2) in shapes,
        excluded_subspaces=excluded,
    )
